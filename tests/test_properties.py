"""Property tests: the library against the oracles on random dimensions.

Each example draws one seed; the seed drives ``tests/_oracles.py`` to
build the factor dimensions, the state and the measured factors, so a
failing example is reproduced by its seed alone.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wfsim import (
    CompositeSpace,
    DensityOperator,
    PureState,
    born_probabilities,
    chsh_value,
    dephase,
    exact_optimum,
    optimize_settings,
    partial_trace,
)
from wfsim.chsh import MeasurementSettings, _correlation_kernel, observable_from_bloch

from _oracles import (
    brute_correlation_kernel,
    brute_horodecki_value,
    brute_partial_trace,
    random_density,
    random_dims,
    random_pure,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
EXAMPLES = settings(max_examples=40, deadline=None)


def _random_space(rng, max_total):
    dims = random_dims(rng, max_total=max_total)
    labels = [f"q{k}" for k in range(len(dims))]
    return CompositeSpace(tuple(zip(labels, dims))), labels


def _random_axes(rng, n):
    size = int(rng.integers(1, n + 1))
    return sorted(rng.choice(n, size=size, replace=False).tolist())


@EXAMPLES
@given(seed=SEEDS)
def test_partial_trace_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    space, labels = _random_space(rng, max_total=64)
    matrix = random_density(rng, space.dim)
    keep = _random_axes(rng, len(labels))
    reduced = partial_trace(DensityOperator(space, matrix), [labels[a] for a in keep])
    expected = brute_partial_trace(matrix, list(space.dims), keep)
    assert np.max(np.abs(reduced.matrix - expected)) < 1e-12


@EXAMPLES
@given(seed=SEEDS)
def test_born_probabilities_sum_to_one_and_match_marginals(seed):
    rng = np.random.default_rng(seed)
    space, labels = _random_space(rng, max_total=16)
    measured = _random_axes(rng, len(labels))
    names = [labels[a] for a in measured]
    pure = PureState(space, random_pure(rng, space.dim))
    mixed = DensityOperator(space, random_density(rng, space.dim))
    for state, matrix in ((pure, pure.density().matrix), (mixed, mixed.matrix)):
        probs = born_probabilities(state, names)
        assert np.all(probs >= 0.0)
        assert abs(float(probs.sum()) - 1.0) < 1e-12
        marginal = brute_partial_trace(matrix, list(space.dims), measured)
        assert np.max(np.abs(probs - np.diag(marginal).real)) < 1e-12


@EXAMPLES
@given(seed=SEEDS)
def test_chsh_value_respects_tsirelson_on_random_states(seed):
    rng = np.random.default_rng(seed)
    space = CompositeSpace.qubits("x", "y")
    rho = DensityOperator(space, random_density(rng, 4))

    def wing(label):
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(2, 2))
        sub = CompositeSpace.qubits(label)
        return tuple(observable_from_bloch(t, p, sub) for t, p in angles)

    result = chsh_value(rho, MeasurementSettings(alice=wing("x"), bob=wing("y")))
    assert abs(result.s_value) <= 2.0 * math.sqrt(2.0) + 1e-9


@EXAMPLES
@given(seed=SEEDS)
def test_dephase_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    space, labels = _random_space(rng, max_total=64)
    rho = DensityOperator(space, random_density(rng, space.dim))
    on = [labels[a] for a in _random_axes(rng, len(labels))]
    once = dephase(rho, on)
    assert np.array_equal(dephase(once, on).matrix, once.matrix)
    assert np.array_equal(np.diag(once.matrix), np.diag(rho.matrix))


@EXAMPLES
@given(seed=SEEDS)
def test_exact_optimum_matches_horodecki_oracle(seed):
    rng = np.random.default_rng(seed)
    rho = DensityOperator(CompositeSpace.qubits("x", "y"), random_density(rng, 4))
    settings, value = exact_optimum(rho)
    assert abs(value - brute_horodecki_value(rho.matrix)) < 1e-12
    assert value == chsh_value(rho, settings).s_value
    assert value >= optimize_settings(rho, math.pi / 16)[1] - 1e-12
    assert value <= 2.0 * math.sqrt(2.0) + 1e-9


@EXAMPLES
@given(seed=SEEDS)
def test_correlation_kernel_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace.qubits(*labels)
    order = rng.permutation(n).tolist()
    n_alice = int(rng.integers(1, min(2, n - 1) + 1))
    n_bob = int(rng.integers(1, min(2, n - n_alice) + 1))
    alice, bob = order[:n_alice], order[n_alice : n_alice + n_bob]
    wings = (
        space.subspace([labels[a] for a in alice]),
        space.subspace([labels[b] for b in bob]),
    )
    mixed = DensityOperator(space, random_density(rng, space.dim))
    pure = PureState(space, random_pure(rng, space.dim))
    for state, matrix in ((mixed, mixed.matrix), (pure, pure.density().matrix)):
        kernel = _correlation_kernel(state, *wings)
        expected = brute_correlation_kernel(matrix, list(space.dims), alice, bob)
        assert kernel.flags.c_contiguous
        assert np.max(np.abs(kernel - expected)) < 1e-12
