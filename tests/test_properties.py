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
    DichotomicObservable,
    ProjectiveMeasurement,
    PureState,
    born_probabilities,
    chsh_value,
    dephase,
    embed,
    exact_optimum,
    expectation,
    optimize_settings,
    partial_trace,
    projective_collapse,
)
from wfsim.chsh import (
    MeasurementSettings,
    _correlation_kernel,
    _joint_distribution,
    observable_from_bloch,
)

from _oracles import (
    brute_correlation_kernel,
    brute_expectation,
    brute_horodecki_value,
    brute_partial_trace,
    gather_index,
    random_density,
    random_dims,
    random_pure,
    random_unitary,
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


@EXAMPLES
@given(seed=SEEDS)
def test_measurement_on_reduced_state_matches_embed_route(seed):
    """Born rule, expectation and collapse agree with the full-space route.

    The measured factors are any subset of 2-4 qubits in any order; the
    reference reduces by brute force and gathers each measured-order
    operator into the ascending order, and the collapse reference applies
    the embedded projector to the whole state.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace.qubits(*labels)
    measured = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
    sub = space.subspace([labels[a] for a in measured])
    gather = np.ix_(*[gather_index(list(space.dims), measured)] * 2)
    unitary = random_unitary(rng, sub.dim)
    projectors = [np.outer(u, u.conj()) for u in unitary.T]
    meas = ProjectiveMeasurement(sub, tuple(projectors), tuple(map(str, range(sub.dim))))
    signs = rng.choice((-1.0, 1.0), size=sub.dim)
    obs = DichotomicObservable(sub, (unitary * signs) @ unitary.conj().T)
    pure = PureState(space, random_pure(rng, space.dim))
    mixed = DensityOperator(space, random_density(rng, space.dim))
    for state, matrix in ((pure, pure.density().matrix), (mixed, mixed.matrix)):
        reduced = brute_partial_trace(matrix, list(space.dims), measured)
        want = [brute_expectation(reduced, p[gather]) for p in projectors]
        assert np.max(np.abs(born_probabilities(state, meas) - want)) < 1e-12
        diagonal = [brute_expectation(reduced, np.diag(e)[gather]) for e in np.eye(sub.dim)]
        assert np.max(np.abs(born_probabilities(state, sub.labels) - diagonal)) < 1e-12
        want_obs = brute_expectation(reduced, obs.matrix[gather])
        assert abs(expectation(state, obs) - want_obs) < 1e-12

    outcome, collapsed = projective_collapse(pure, basis=meas, rng=rng)
    branch = embed(projectors[outcome], sub, space) @ pure.amplitudes
    assert collapsed.space == space
    assert np.max(np.abs(collapsed.amplitudes - branch / np.linalg.norm(branch))) < 1e-12


@EXAMPLES
@given(seed=SEEDS)
def test_joint_distribution_matches_projector_route(seed):
    """(1 + s_a<A> + s_b<B> + s_a s_b E)/4 equals Born over the four kron projectors."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace.qubits(*labels)
    order = [labels[k] for k in rng.permutation(n)]
    n_alice = int(rng.integers(1, min(2, n - 1) + 1))
    n_bob = int(rng.integers(1, min(2, n - n_alice) + 1))
    alice = space.subspace(order[:n_alice])
    bob = space.subspace(order[n_alice : n_alice + n_bob])

    def bloch(wing):
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        return observable_from_bloch(theta, phi, wing)

    a, b = bloch(alice), bloch(bob)
    projectors = tuple(np.kron(pa, pb) for pa in a.projectors() for pb in b.projectors())
    four = ProjectiveMeasurement(
        CompositeSpace(alice.factors + bob.factors), projectors, ("++", "+-", "-+", "--")
    )
    mixed = DensityOperator(space, random_density(rng, space.dim))
    pure = PureState(space, random_pure(rng, space.dim))
    for state in (mixed, pure):
        joint = _joint_distribution(state, a, b)
        assert np.max(np.abs(joint - born_probabilities(state, four))) < 1e-12
