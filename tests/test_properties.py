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
    _SETTING_ORDER,
    MeasurementSettings,
    _correlation_kernel,
    _grid_bob_pair,
    _wing_moments,
    observable_from_bloch,
    sample_inequality,
)

from _oracles import (
    brute_correlation_kernel,
    brute_expectation,
    brute_grid_pair,
    brute_horodecki_value,
    brute_partial_trace,
    brute_wing_moments,
    gather_index,
    random_density,
    random_dichotomic,
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
def test_measurement_with_higher_rank_blocks_matches_embed_route(seed):
    """Rank >= 2 outcomes: Born sums over each block, collapse projects onto it.

    One measurement splits a random unitary's columns into random block
    sizes; the other measures a random dichotomic observable, whose +1 and
    -1 eigenspaces are degenerate (or one of them empty) once the measured
    factors span more than one qubit.  The measured factors are any subset
    of 2-4 qubits in any order.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace.qubits(*labels)
    measured = rng.permutation(n)[: int(rng.integers(1, n + 1))].tolist()
    sub = space.subspace([labels[a] for a in measured])
    gather = np.ix_(*[gather_index(list(space.dims), measured)] * 2)
    cuts = np.sort(rng.permutation(np.arange(1, sub.dim))[: int(rng.integers(0, sub.dim))])
    blocks = np.split(random_unitary(rng, sub.dim), cuts, axis=1)
    split = [v @ v.conj().T for v in blocks]
    obs = DichotomicObservable(sub, random_dichotomic(rng, sub.dim))
    halves = [(np.eye(sub.dim) + obs.matrix) / 2, (np.eye(sub.dim) - obs.matrix) / 2]
    cases = (
        (ProjectiveMeasurement(sub, tuple(split), tuple(map(str, range(len(split))))), split),
        (ProjectiveMeasurement.of_observable(obs), halves),
    )
    pure = PureState(space, random_pure(rng, space.dim))
    mixed = DensityOperator(space, random_density(rng, space.dim))
    for meas, projectors in cases:
        assert np.max(np.abs(meas.projectors - np.array(projectors))) < 1e-12
        for state, matrix in ((pure, pure.density().matrix), (mixed, mixed.matrix)):
            reduced = brute_partial_trace(matrix, list(space.dims), measured)
            want = [brute_expectation(reduced, p[gather]) for p in projectors]
            assert np.max(np.abs(born_probabilities(state, meas) - want)) < 1e-12
        outcome, collapsed = projective_collapse(pure, basis=meas, rng=rng)
        branch = embed(projectors[outcome], sub, space) @ pure.amplitudes
        assert np.max(np.abs(collapsed.amplitudes - branch / np.linalg.norm(branch))) < 1e-12


class _RecordingStream:
    """Stands in for a child Generator: records each multinomial's probabilities."""

    def __init__(self, drawn):
        self.drawn = drawn

    def multinomial(self, shots, probs):
        self.drawn.append(np.array(probs))
        return np.array([shots, 0, 0, 0])


class _RecordingGenerator:
    def __init__(self):
        self.drawn = []

    def spawn(self, n):
        return [_RecordingStream(self.drawn) for _ in range(n)]


def _random_wings(rng, labels):
    """Two disjoint wings of one or two factors each, in random label order."""
    order = [labels[k] for k in rng.permutation(len(labels))]
    n_alice = int(rng.integers(1, min(2, len(labels) - 1) + 1))
    n_bob = int(rng.integers(1, min(2, len(labels) - n_alice) + 1))
    return order[:n_alice], order[n_alice : n_alice + n_bob]


@EXAMPLES
@given(seed=SEEDS)
def test_joint_distribution_matches_projector_route(seed):
    """The four distributions ``sample_inequality`` draws from equal Born over kron projectors.

    For each setting pair (A_i, B_j), in S order, the distribution
    (1 + s_a<A> + s_b<B> + s_a s_b E)/4 read from the moment table must
    match the Born probabilities of the four projectors P_a (x) P_b.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace.qubits(*labels)
    alice_labels, bob_labels = _random_wings(rng, labels)
    alice, bob = space.subspace(alice_labels), space.subspace(bob_labels)

    def bloch(wing):
        theta, phi = rng.uniform(0.0, math.pi), rng.uniform(0.0, 2.0 * math.pi)
        return observable_from_bloch(theta, phi, wing)

    settings = MeasurementSettings(alice=(bloch(alice), bloch(alice)), bob=(bloch(bob), bloch(bob)))
    joint_space = CompositeSpace(alice.factors + bob.factors)
    mixed = DensityOperator(space, random_density(rng, space.dim))
    pure = PureState(space, random_pure(rng, space.dim))
    for state in (mixed, pure):
        recorder = _RecordingGenerator()
        sample_inequality(state, settings, 10, recorder)
        assert len(recorder.drawn) == 4
        for (i, j), joint in zip(_SETTING_ORDER, recorder.drawn):
            a, b = settings.alice[i], settings.bob[j]
            projectors = tuple(np.kron(pa, pb) for pa in a.projectors() for pb in b.projectors())
            four = ProjectiveMeasurement(joint_space, projectors, ("++", "+-", "-+", "--"))
            assert np.max(np.abs(joint - born_probabilities(state, four))) < 1e-12


@EXAMPLES
@given(seed=SEEDS)
def test_wing_moments_match_brute_force(seed):
    """M[m, n] = Tr(rho A_m (x) B_n) against the brute partial trace and krons.

    Factors of dimension 2 or 3; each wing one or two factors in any label
    order, leftover factors traced out; each stack is the identity and up
    to two random dichotomic observables, in random order.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    dims = [int(d) for d in rng.integers(2, 4, size=n)]
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace(tuple(zip(labels, dims)))
    alice_labels, bob_labels = _random_wings(rng, labels)
    alice, bob = space.subspace(alice_labels), space.subspace(bob_labels)

    def stack(wing):
        extra = int(rng.integers(0, 3))
        ops = [np.eye(wing.dim)] + [random_dichotomic(rng, wing.dim) for _ in range(extra)]
        return np.stack([ops[k] for k in rng.permutation(len(ops))])

    a_ops, b_ops = stack(alice), stack(bob)
    axes = ([labels.index(l) for l in alice_labels], [labels.index(l) for l in bob_labels])
    mixed = DensityOperator(space, random_density(rng, space.dim))
    pure = PureState(space, random_pure(rng, space.dim))
    for state, matrix in ((mixed, mixed.matrix), (pure, pure.density().matrix)):
        moments = _wing_moments(state, alice, bob, a_ops, b_ops)
        expected = brute_wing_moments(matrix, dims, *axes, a_ops, b_ops)
        assert moments.shape == (len(a_ops), len(b_ops))
        assert np.max(np.abs(moments - expected)) < 1e-12


@EXAMPLES
@given(seed=SEEDS, kind=st.sampled_from(["random", "quarters", "diagonal"]))
def test_grid_pair_matches_full_table(seed, kind):
    """The half-triangle scan picks the full table's first maximum, bitwise.

    Quarter-rounded and diagonal kernels have exact ties between
    different grid pairs, so they exercise the tie rule.
    """
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    if kind != "random":
        kernel = np.round(4.0 * kernel) / 4.0
    if kind == "diagonal":
        kernel = np.diag(np.diag(kernel))
    for step in (math.pi / 8, math.pi / 16):
        picked = _grid_bob_pair(kernel, step)
        expected = brute_grid_pair(kernel, step)
        assert all(np.array_equal(a, b) for a, b in zip(picked, expected)), (kind, step)
