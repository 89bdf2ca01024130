"""Property tests: the library against the oracles on random dimensions.

Each example draws one seed; the seed drives ``tests/_oracles.py`` to
build the factor dimensions, the state and the measured factors, so a
failing example is reproduced by its seed alone.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wfsim import (
    CollapseHypothesis,
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    ProjectiveMeasurement,
    PureState,
    bell_singlet,
    born_probabilities,
    chsh_value,
    dephase,
    embed,
    exact_optimum,
    expectation,
    friend_interaction,
    hypothesis_comparison,
    optimize_settings,
    partial_trace,
    projective_collapse,
    proietti_scenario,
)
from wfsim.chsh import (
    _SETTING_ORDER,
    _TIE_EPS,
    TSIRELSON_BOUND,
    MeasurementSettings,
    _basis_triple,
    _grid_bob_pair,
    _grid_bob_pairs,
    _grid_gaps,
    _row_seed,
    _row_values,
    _s_max,
    _scan_directions,
    _tables,
    _wing_moments,
    observable_from_bloch,
    sample_inequality,
)
from wfsim.hilbert import _bloch_operator
from wfsim.scenarios import HeldScenario

from wfsim.measurement import _HYPOTHESIS_VARIANTS

from _oracles import (
    brute_comparison,
    brute_correlation_kernel,
    brute_expectation,
    brute_friend_interaction,
    brute_grid_pair,
    brute_grid_table,
    full_table_maximum,
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
        kernel = _tables([state], wings)[0][0, 0]
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


class _RecordingGenerator(np.random.Generator):
    """A Generator, as the sampler checks, whose spawned children record their draws."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))
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
        (moments,) = _wing_moments([state], alice, bob, a_ops, b_ops)
        expected = brute_wing_moments(matrix, dims, *axes, a_ops, b_ops)
        assert moments.shape == (len(a_ops), len(b_ops))
        assert np.max(np.abs(moments - expected)) < 1e-12


@pytest.mark.one_blas_thread
@EXAMPLES
@given(seed=SEEDS)
def test_stacked_wing_moments_equal_each_state_alone(seed):
    """One call over a stack of 1-5 pure and mixed states, repeats included, gives each
    state's one-state table bitwise, and the brute partial trace's within 1e-12."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    dims = [int(d) for d in rng.integers(2, 4, size=n)]
    labels = [f"q{k}" for k in range(n)]
    space = CompositeSpace(tuple(zip(labels, dims)))
    alice_labels, bob_labels = _random_wings(rng, labels)
    alice, bob = space.subspace(alice_labels), space.subspace(bob_labels)
    a_ops, b_ops = (np.stack([np.eye(wing.dim)] + [random_dichotomic(rng, wing.dim)
                                                    for _ in range(2)]) for wing in (alice, bob))
    axes = ([labels.index(l) for l in alice_labels], [labels.index(l) for l in bob_labels])
    states = [DensityOperator(space, random_density(rng, space.dim)),
              PureState(space, random_pure(rng, space.dim))]
    states = [states[k] for k in rng.integers(0, 2, size=int(rng.integers(1, 6)))]
    stacked = _wing_moments(states, alice, bob, a_ops, b_ops)
    assert stacked.shape == (len(states), 3, 3)
    for state, moments in zip(states, stacked):
        assert np.array_equal(moments, _wing_moments([state], alice, bob, a_ops, b_ops)[0])
        matrix = state.matrix if isinstance(state, DensityOperator) else state.density().matrix
        expected = brute_wing_moments(matrix, dims, *axes, a_ops, b_ops)
        assert np.max(np.abs(moments - expected)) < 1e-12


@pytest.mark.one_blas_thread
@EXAMPLES
@given(seed=SEEDS)
def test_bloch_operator_is_the_observables_matrix(seed):
    """A default-settings comparison takes its operators bare: on one and two factors,
    ``_bloch_operator`` over the family's triple is bitwise the validated observable's
    matrix, at the defaults' angles and at drawn ones."""
    rng = np.random.default_rng(seed)
    drawn = zip(rng.uniform(0.0, math.pi, 4).tolist(), rng.uniform(0.0, 2 * math.pi, 4).tolist())
    for n in (1, 2):
        space = CompositeSpace.qubits(*(f"q{k}" for k in range(n)))
        for theta, phi in [(0.0, 0.0), (math.pi / 2, 0.0), *drawn]:
            bare = _bloch_operator(theta, phi, _basis_triple(n))
            matrix = observable_from_bloch(theta, phi, space).matrix
            assert (bare.dtype, bare.shape) == (matrix.dtype, matrix.shape)
            assert bare.tobytes() == matrix.tobytes()


_THREE_SITES = (("x",), ("y", "w"), ("z",))


@pytest.mark.one_blas_thread
@EXAMPLES
@given(p=st.floats(min_value=0.0, max_value=1.0))
def test_held_term_weights_are_site_order_products(p):
    """Every stochastic ``held_terms`` weight is bitwise ``math.prod``, in site order, of p
    where the term fires the site and 1 - p where not, the first site varying fastest: on
    the Proietti scenario's two sites and on three sites."""
    rho = DensityOperator(CompositeSpace.qubits("x", "y", "w", "z"), np.eye(16) / 16)
    three = HeldScenario(rho, ("x",), ("z",), sites=_THREE_SITES, friends=("w",))
    for scenario, sites in ((proietti_scenario(), 2), (three, 3)):
        weights = [w for w, _ in scenario.held_terms(CollapseHypothesis.stochastic(p))]
        expected = [math.prod(p if k >> s & 1 else 1 - p for s in range(sites))
                    for k in range(2**sites)]
        assert [w.hex() for w in weights] == [w.hex() for w in expected]


@EXAMPLES
@given(p=st.floats(min_value=1e-3, max_value=1.0))
def test_refutation_margin_has_its_closed_form(p):
    """The data's margin over stochastic_collapse(p) at N shots, in plug-in standard
    errors, (2 sqrt2 - s_max(p)) / sqrt(sum (1 - E^2) / N) with E the unitary data's
    exact correlators at the witness settings, is p (2 - p) sqrt N within 1e-12 relative:
    every |E| is 1/sqrt2, so the standard error is sqrt(2 / N)."""
    shots = 100_000
    unitary, result = hypothesis_comparison(proietti_scenario(),
                                            ["unitary_only", CollapseHypothesis.stochastic(p)])
    spread = sum(1.0 - e * e for e in unitary.exact_correlators)
    z = (TSIRELSON_BOUND - result.s_max) / math.sqrt(spread / shots)
    closed = p * (2.0 - p) * math.sqrt(shots)
    assert abs(z - closed) <= 1e-12 * closed


GRID_KERNELS = ["random", "quarters", "diagonal", "rank_one", "rank_two", "rotation", "zero"]
# About 13-14 examples per kind, the share each of the first three kinds had in
# 40 examples over three.
GRID_EXAMPLES = settings(max_examples=95, deadline=None)


def _grid_kernel(rng: np.random.Generator, kind: str) -> np.ndarray:
    """A 3 x 3 kernel of the given kind for the grid-scan properties.

    Quarter-rounded and diagonal kernels have exact ties between
    different grid pairs, so they exercise the tie rule.  A rank-one
    kernel maps every direction onto one line: its best pairs tie
    exactly, and those with both directions at the maximum are the
    parallel pairs the scan's screen keeps by its 2P >= t^2 test.  A
    rotation gives every direction the same |K b|; the zero kernel ties
    every pair at S = 0.
    """
    def unit():
        v = rng.normal(size=3)
        return v / np.linalg.norm(v)

    if kind == "rank_one":
        return 0.9 * np.outer(unit(), unit())
    if kind == "rank_two":
        return 0.9 * np.outer(unit(), unit()) + 0.5 * np.outer(unit(), unit())
    if kind == "rotation":
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        return q * np.sign(np.diag(r))
    if kind == "zero":
        return np.zeros((3, 3))
    kernel = rng.uniform(-1.0, 1.0, size=(3, 3))
    if kind != "random":
        kernel = np.round(4.0 * kernel) / 4.0
    if kind == "diagonal":
        kernel = np.diag(np.diag(kernel))
    return kernel


@pytest.mark.one_blas_thread
@GRID_EXAMPLES
@given(seed=SEEDS, kind=st.sampled_from(GRID_KERNELS))
def test_grid_pair_matches_full_table(seed, kind):
    """The screened scan picks the full table's first pair within _TIE_EPS of its maximum,
    bitwise; S there lies within _TIE_EPS of that maximum; and the grid gap is s_max minus
    |K(b1 + b0)| + |K(b1 - b0)| at that pick, never below -1e-9."""
    kernel = _grid_kernel(np.random.default_rng(seed), kind)
    s_max = _s_max(kernel)
    for step in (math.pi / 8, math.pi / 16):
        picked = _grid_bob_pair(kernel, step)
        expected = brute_grid_pair(kernel, step)
        assert all(np.array_equal(a, b) for a, b in zip(picked, expected)), (kind, step)
        b1, b0 = expected
        at_pick = np.linalg.norm(kernel @ (b1 + b0)) + np.linalg.norm(kernel @ (b1 - b0))
        assert abs(at_pick - full_table_maximum(kernel, step)) <= _TIE_EPS, (kind, step)
        (gap,) = _grid_gaps(kernel[None], [s_max], step)
        assert gap == s_max - at_pick and gap >= -1e-9, (kind, step)


@GRID_EXAMPLES
@given(seed=SEEDS, kind=st.sampled_from(GRID_KERNELS))
def test_scan_seed_is_a_pair_of_the_full_table(seed, kind):
    """The screen's seed, the best S in the scan's row of the largest |K b|, is S at some
    pair of the full table and not above its maximum, both up to rounding (the seed adds
    K b_i and K b_j, the table applies K to b_i + b_j; they differ by at most 1.8e-15 on
    1260 measured cases).  So every pair within _TIE_EPS of the maximum passes the screen."""
    kernel = _grid_kernel(np.random.default_rng(seed), kind)
    for step in (math.pi / 8, math.pi / 16, 0.37):
        w = _scan_directions(step) @ kernel.T
        (value,) = _row_seed(w[None], np.einsum("ij,ij->i", w, w)[None])
        table = brute_grid_table(kernel, step)[1]
        assert np.min(np.abs(table - value)) <= 1e-14, (kind, step)
        assert value <= table.max() + 1e-14, (kind, step)


@pytest.mark.one_blas_thread
@EXAMPLES
@given(seed=SEEDS)
def test_row_values_sum_columns_like_add_reduce(seed):
    """The scan's S sums each norm's three squares in order, bitwise np.add.reduce over
    the last axis, on random, gathered and seed-shaped rows."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 50, 3)) * np.exp(rng.normal(size=(3, 50, 3)) * 3)

    def reduced(firsts, seconds):
        a, b = w.reshape(-1, 3)[firsts], w.reshape(-1, 3)[seconds]
        return (np.sqrt(np.add.reduce((a + b) ** 2, axis=-1))
                + np.sqrt(np.add.reduce((a - b) ** 2, axis=-1)))

    firsts, seconds = rng.integers(0, 150, size=(2, 400))
    assert np.array_equal(_row_values(w.reshape(-1, 3), firsts, seconds),
                          reduced(firsts, seconds))
    rows = (np.arange(3)[:, None], rng.integers(0, 50, size=(3, 1)))
    expected = reduced(rows[0] * 50 + rows[1], np.arange(150).reshape(3, 50))
    assert np.array_equal(_row_values(w, rows, slice(None)), expected)


@pytest.mark.one_blas_thread
@GRID_EXAMPLES
@given(seed=SEEDS, kinds=st.lists(st.sampled_from(GRID_KERNELS), min_size=1, max_size=5))
def test_grid_gaps_of_a_stack_equal_the_norm_route(seed, kinds):
    """The stacked gaps are each kernel's s_max minus np.linalg.norm(K (b1 + b0)) +
    np.linalg.norm(K (b1 - b0)) at its pick, bitwise."""
    rng = np.random.default_rng(seed)
    kernels = np.stack([_grid_kernel(rng, kind) for kind in kinds])
    s_max = _s_max(kernels).tolist()
    for step in (math.pi / 8, math.pi / 16):
        picks = _grid_bob_pairs(kernels, step)
        expected = [top - (np.linalg.norm(kernel @ (b1 + b0)) + np.linalg.norm(kernel @ (b1 - b0)))
                    for kernel, top, (b1, b0) in zip(kernels, s_max, picks)]
        assert _grid_gaps(kernels, s_max, step) == expected, (kinds, step)


@pytest.mark.one_blas_thread
@settings(max_examples=30, deadline=None)
@given(
    seed=SEEDS,
    kinds=st.lists(st.sampled_from(GRID_KERNELS), min_size=1, max_size=4),
    order=st.lists(st.integers(0, 3), min_size=1, max_size=6),
)
@example(seed=0, kinds=["zero", "rank_one", "random"], order=[1, 0, 2, 0, 1, 2])
def test_grid_picks_do_not_depend_on_the_stack(seed, kinds, order):
    """Each kernel's pick from a stack of one to six, in any order and with repeats, is
    bitwise the full table's pick for that kernel alone: a stack shares the scan's set-up and
    survivor flushes, never a kernel's threshold, best or staircase."""
    rng = np.random.default_rng(seed)
    kernels = [_grid_kernel(rng, kind) for kind in kinds]
    order = [i % len(kernels) for i in order]
    for step in (math.pi / 8, math.pi / 16, 0.37):
        expected = {i: brute_grid_pair(kernels[i], step) for i in set(order)}
        picked = _grid_bob_pairs(np.stack([kernels[i] for i in order]), step)
        for i, pair in zip(order, picked):
            assert all(np.array_equal(a, b) for a, b in zip(pair, expected[i])), (kinds[i], step)


@pytest.mark.one_blas_thread
@GRID_EXAMPLES
@given(seed=SEEDS, kind=st.sampled_from(GRID_KERNELS))
@example(seed=248, kind="rank_one")
def test_grid_pair_matches_full_table_on_uneven_steps(seed, kind):
    """Bitwise the full table's pick at steps that do not divide pi.

    Such steps leave phi and theta rows short of 2 pi and pi, so the grid
    holds no antipodes and the scan keeps every direction; at step 0.2
    (481 distinct directions, 68 rows per block) the last row block is
    ragged.  At seed 248 the rank-one kernel's tied pairs differed in the
    last bit between a Gram product over the scan's 211 directions and one
    over the full grid's 231, which moved the pick under a tie rule that
    took the first exact maximum.
    """
    kernel = _grid_kernel(np.random.default_rng(seed), kind)
    for step in (0.2, 0.3, 0.37):
        picked = _grid_bob_pair(kernel, step)
        expected = brute_grid_pair(kernel, step)
        assert all(np.array_equal(a, b) for a, b in zip(picked, expected)), (kind, step)


@pytest.mark.one_blas_thread
@EXAMPLES
@given(seed=SEEDS, side=st.sampled_from(["A", "B"]))
def test_friend_interaction_matches_brute_force(seed, side):
    """The heralded map M against the flat-index oracle, on either side.

    A random normalized state over that side's (in, prime, friend) photons
    and up to two extra factors of dimension 2 or 3, in random factor order
    (so the friend may precede its photon and the prime may come last).
    """
    rng = np.random.default_rng(seed)
    wing = {"A": ["a", "alpha_prime", "alpha"], "B": ["b", "beta_prime", "beta"]}[side]
    extra = int(rng.integers(0, 3))
    labels = wing + [f"x{k}" for k in range(extra)]
    dims = [2, 2, 2] + [int(d) for d in rng.integers(2, 4, size=extra)]
    order = rng.permutation(len(labels))
    labels, dims = [labels[k] for k in order], [dims[k] for k in order]
    space = CompositeSpace(tuple(zip(labels, dims)))
    psi = PureState(space, random_pure(rng, space.dim))

    after = friend_interaction(psi, side)
    out_labels, raw, herald = brute_friend_interaction(psi.amplitudes, labels, dims, *wing)
    assert after.raw_state.space.labels == tuple(out_labels)
    assert after.state.space.labels == tuple(out_labels)
    assert np.max(np.abs(after.raw_state.amplitudes - raw)) < 1e-12
    assert abs(after.herald_probability - herald) < 1e-12
    assert np.max(np.abs(after.state.amplitudes - raw / math.sqrt(herald))) < 1e-12


def _local_deviation(rho, reference, wings) -> float:
    """The largest entry difference between ``rho``'s and ``reference``'s reduced densities
    on every single factor and on each wing."""
    keeps = [(label,) for label in reference.space.labels] + [tuple(wing) for wing in wings]
    gaps = (partial_trace(rho, keep).matrix - partial_trace(reference, keep).matrix
            for keep in keeps)
    return max(float(np.max(np.abs(gap))) for gap in gaps)


@EXAMPLES
@given(variant=st.sampled_from(_HYPOTHESIS_VARIANTS[1:]), p=st.floats(1e-3, 1.0))
def test_collapse_hypotheses_leave_every_local_state_unchanged(variant, p):
    """The improper-mixture point: attributing outcomes to the friends, under any collapse
    variant, leaves every single-photon and wing density the unitary one within 1e-15;
    only the joint density and S at the unitary witness settings tell them apart.

    The floors are measured: with p the collapse probability (1 for the full-collapse
    variants), S there falls by 2.12 p (at p = 1) to 2.79 p (as p goes to 0), and the
    joint density's largest entry moves by 0.427 p to 0.832 p.  Local deviations read 0.
    """
    scenario = proietti_scenario()
    wings = (scenario.alice_labels, scenario.bob_labels)
    stochastic = variant == "stochastic_collapse"
    hypothesis = CollapseHypothesis.stochastic(p) if stochastic else CollapseHypothesis(variant)
    weight = p if stochastic else 1.0
    unitary = scenario.exact_state_under("unitary_only")
    rho = scenario.exact_state_under(hypothesis)
    witness, s_unitary = exact_optimum(unitary, *wings)
    assert _local_deviation(rho, unitary, wings) <= 1e-15
    assert s_unitary - chsh_value(rho, witness).s_value >= 2.1 * weight
    assert np.max(np.abs(rho.matrix - unitary.matrix)) >= 0.42 * weight


def test_a_local_bit_flip_moves_a_wing_density():
    """The local check above can fail: X on any one photon of the unitary state leaves each
    single-photon density I/2, but moves that photon's wing density by 0.5."""
    scenario = proietti_scenario()
    wings = (scenario.alice_labels, scenario.bob_labels)
    unitary = scenario.exact_state_under("unitary_only")
    space = unitary.space
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for label in space.labels:
        x = embed(flip, space.subspace((label,)), space)
        flipped = DensityOperator(space, x @ unitary.matrix @ x)
        assert _local_deviation(flipped, unitary, ()) == 0.0, label
        assert _local_deviation(flipped, unitary, wings) >= 0.49, label


@EXAMPLES
@given(seed=SEEDS, variant=st.sampled_from(_HYPOTHESIS_VARIANTS), p=st.floats(0.0, 1.0))
def test_searches_return_chsh_value_at_their_settings(seed, variant, p):
    """Both searches read S off their own table; it is ``chsh_value``'s at the settings they
    return, bitwise: on a drawn hypothesis's Proietti density on the pair wings, and on a
    random pure and a random mixed two-qubit state, exactly and at pi/16."""
    scenario = proietti_scenario()
    hypothesis = CollapseHypothesis.stochastic(p) if variant == "stochastic_collapse" else variant
    rng = np.random.default_rng(seed)
    space = CompositeSpace.qubits("x", "y")
    cases = [
        (scenario.exact_state_under(hypothesis), (scenario.alice_labels, scenario.bob_labels)),
        (PureState(space, random_pure(rng, 4)), (("x",), ("y",))),
        (DensityOperator(space, random_density(rng, 4)), (("x",), ("y",))),
    ]
    for state, wings in cases:
        for settings, value in (exact_optimum(state, *wings),
                                optimize_settings(state, math.pi / 16, *wings)):
            assert value == chsh_value(state, settings).s_value, (settings.origin, wings)


_NAMED = [v for v in _HYPOTHESIS_VARIANTS if v != "stochastic_collapse"]
_PROBABILITIES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
_PROIETTI_HYPOTHESES = st.one_of(st.sampled_from(_NAMED).map(lambda v: (v, None)),
                                 _PROBABILITIES.map(lambda p: ("stochastic_collapse", p)))


@settings(max_examples=40, deadline=None)
@given(
    holder=st.sampled_from(["proietti", "singlet"]),
    hypotheses=st.lists(_PROIETTI_HYPOTHESES, min_size=1, max_size=6),
    shots=st.one_of(st.just(0), st.integers(1, 500)),
    seed=SEEDS,
    grid_step=st.sampled_from([None, math.pi / 8, 0.37]),
)
@example(holder="proietti", shots=0, seed=0, grid_step=math.pi / 8,
         hypotheses=[("stochastic_collapse", 0.0), ("unitary_only", None),
                     ("friend_projective", None), ("stochastic_collapse", 0.3),
                     ("friend_dephasing", None), ("stochastic_collapse", 0.6)])
@example(holder="proietti", shots=0, seed=0, grid_step=None,
         hypotheses=[("stochastic_collapse", 0.3), ("stochastic_collapse", 0.3 + 1e-9)])
def test_comparison_matches_the_brute_comparison(holder, hypotheses, shots, seed, grid_step):
    """Every field of a comparison against ``brute_comparison``, which takes only the
    unitary state and its witness angles from wfsim: exact fields within 1e-12, sampled
    correlators equal to the replay of the documented spawn order.  Drawn lists hold
    hypotheses with equal tables (p = 0 beside unitary_only, the friend variants beside
    subjective_collapse and p = 1), which the comparison merges into one entry, and the
    second example tables 1e-9 apart, which it must not merge.  The singlet holds
    unitary_only only, so its lists are that variant repeated."""
    if holder == "proietti":
        scenario = proietti_scenario()
        unitary = scenario.exact_state_under("unitary_only")
        matrix = unitary.matrix
    else:
        unitary = bell_singlet()
        scenario = HeldScenario(unitary, ("e1",), ("e2",), variants=("unitary_only",))
        matrix = np.outer(unitary.amplitudes, unitary.amplitudes.conj())
        hypotheses = [("unitary_only", None)] * len(hypotheses)
    space = unitary.space
    alice, bob = (list(space.axes(wing)) for wing in (scenario.alice_labels, scenario.bob_labels))
    sites = [alice, bob] if holder == "proietti" else []
    friends = list(space.axes(("alpha", "beta"))) if holder == "proietti" else []
    witness, _ = exact_optimum(unitary, scenario.alice_labels, scenario.bob_labels)
    parsed = [CollapseHypothesis(v, p) for v, p in hypotheses]
    results = hypothesis_comparison(scenario, parsed, shots=shots,
                                    rng=np.random.default_rng(seed), grid_step=grid_step)
    expected = brute_comparison(matrix, list(space.dims), alice, bob,
                                (witness.alice_angles, witness.bob_angles), hypotheses,
                                sites, friends, shots, seed, grid_step)
    assert len(results) == len(expected)
    for hyp, result, brute in zip(parsed, results, expected):
        assert result.hypothesis == hyp
        assert (result.exact, result.shots, result.consistent_with_data) == (
            brute["exact"], brute["shots"], brute["consistent_with_data"]), hyp
        for name in ("s_max", "grid_gap", "exact_s"):
            value, reference = getattr(result, name), brute[name]
            assert (value is None) == (reference is None), (hyp, name)
            assert reference is None or abs(value - reference) <= 1e-12, (hyp, name)
        gaps = np.subtract(result.exact_correlators, brute["exact_correlators"])
        assert np.max(np.abs(gaps)) <= 1e-12, hyp
        if shots:
            gap = float(np.max(np.abs(gaps))) / 4.0  # dp/dE is 1/4 for every outcome
            assert result.correlators == tuple(brute["correlators"].tolist()), (
                f"{hyp}: sampled counts differ from the replay; probability gap {gap:.3e}")
            assert result.s_value == brute["s_value"], hyp
            assert abs(result.std_error - brute["std_error"]) <= 1e-12, hyp
        else:
            assert abs(result.s_value - brute["s_value"]) <= 1e-12, hyp
            assert np.max(np.abs(np.subtract(result.correlators, brute["correlators"]))) <= 1e-12
            assert result.std_error is None
