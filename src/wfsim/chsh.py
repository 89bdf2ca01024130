"""Correlators, the four-setting inequality, settings search, sampling.

The inequality combination used throughout is

    S = E(A1, B1) + E(A1, B0) + E(A0, B1) - E(A0, B0)

with classical (locally definite) bound 2 and quantum ceiling 2*sqrt(2).

Observable families
-------------------
Each wing measures either one factor or a two-factor pair:

* single factor: the Bloch family n(theta, phi) . sigma;
* pair of factors: the same Bloch pattern applied blockwise on the
  anti-correlated span {|01>, |10>} and the correlated span {|00>, |11>}.
  theta=0 reduces to "which value does the first factor have" (sigma_z on
  the incoming photon) and theta=pi/2, phi=0 has its +1/-1 eigenspaces
  spanned by the four maximally entangled pair states, so the two named
  default observables are members of one continuously parameterized
  family.

Both families satisfy the Pauli algebra observable-by-observable, so the
correlator is exactly bilinear in the two Bloch vectors through a real
3x3 kernel K:  E(a, b) = a . K b.

Moment table
------------
Every inequality number comes from one table M[m, n] = Tr(rho A_m (x) B_n)
over stacks of Alice's and Bob's operators (``_wing_moments``).  Over each
wing's (I, obs0, obs1) row 0 and column 0 are the marginals and the rest
the correlators; over the basis triples M is K.  An entry beyond
1 + 1e-10 in magnitude raises InvariantViolation.

Settings search
---------------
For fixed Bob directions (b1, b0) Alice's best unit vectors are along
K(b1 + b0) and K(b1 - b0), giving

    S(b1, b0) = |K(b1 + b0)| + |K(b1 - b0)|.

``exact_optimum`` maximizes this in closed form (R., P. & M. Horodecki,
Phys. Lett. A 200, 340 (1995)): with mu1 >= mu2 the two largest
eigenvalues of K^T K and v1, v2 their eigenvectors, the supremum
2 sqrt(mu1 + mu2) is attained at

    b1, b0 = cos(t) v1 +/- sin(t) v2,   tan(t) = sqrt(mu2) / sqrt(mu1).

Eigenvectors are fixed by one canonical rule, so degenerate spectra give
reproducible settings: eigenvalues that agree within
1e-12 * max(1, mu1) form one group, and each group's eigenvectors are
replaced by the Gram-Schmidt of the z, x and y axes, in that order,
projected onto the group's eigenspace (a remainder shorter than 1e-9
counts as zero and is skipped).  That fixes every sign and gives the
textbook b1, b0 = (z +/- x)/sqrt(2) for the singlet.

``optimize_settings`` is the exhaustive reference: it scans Bob's two
directions over the full (theta, phi) product grid with Alice exact, so
halving grid_step produces a superset of Bob grid points and the
maximum can only grow, up to the exact value.  Ties take the first
candidate in row-major grid order, i.e. the lexicographically smallest
(theta_b1, phi_b1, theta_b0, phi_b0).  The scan walks the pair table in
row blocks of a fixed size, so its memory does not depend on the step; a
later block wins only when strictly larger, which keeps that tie rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Sequence, Union

import numpy as np

from .errors import InvariantViolation, ShapeError
from .hilbert import (
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    PureState,
    _PAULI_TRIPLE,
    _bloch_operator,
    _reduced_matrix,
)
from .measurement import UNITARY_ONLY, CollapseHypothesis, _clipped_distribution

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
TSIRELSON_TOL = 1e-9
CONSISTENCY_TOL = 1e-6  # |S - S_data| at the shared settings that still reproduces the data

# Accepted grid steps, inclusive.  The scan cost grows as step**-4: one pi/128
# scan takes 7.6 s and 35 MB peak RSS on a 2-core Xeon, each halving 16x more.
GRID_STEP_RANGE = (math.pi / 128, math.pi / 8)


def grid_step_in_range(step: float) -> bool:
    """Whether ``step`` lies in GRID_STEP_RANGE, up to rounding."""
    low, high = GRID_STEP_RANGE
    return low - 1e-12 <= step <= high + 1e-12


# Wing observable families as (3, d, d) stacks, both obeying the Pauli algebra:
# the Pauli triple on one factor; on a pair (basis |00>, |01>, |10>, |11>) each
# Pauli acts on the blocks (|01>, |10>) and (|00>, |11>) at once, which is
# X(x)X, Y(x)X, Z(x)I (adding 0j turns the kron's negative zeros into +0).
_X, _Y, _Z = _PAULI_TRIPLE
_TRIPLES = {
    1: np.stack(_PAULI_TRIPLE),
    2: np.stack([np.kron(a, b) + 0j for a, b in ((_X, _X), (_Y, _X), (_Z, np.eye(2)))]),
}


def _basis_triple(nfactors: int) -> np.ndarray:
    if nfactors not in _TRIPLES:
        raise ShapeError(f"observable families take one or two factors, got {nfactors}")
    return _TRIPLES[nfactors]


def observable_from_bloch(
    theta: float, phi: float, space: CompositeSpace
) -> DichotomicObservable:
    """Member of the wing's observable family for a Bloch direction.

    One factor gives the ordinary n.sigma; a pair gives the blockwise
    version described in the module docstring.
    """
    mat = _bloch_operator(theta, phi, _basis_triple(space.nfactors))
    return DichotomicObservable(space, mat)


@dataclass(frozen=True)
class MeasurementSettings:
    """The four observables of one inequality evaluation.

    ``alice`` and ``bob`` are (obs0, obs1) pairs; angles, when the
    setting came from the Bloch families, are ((theta0, phi0),
    (theta1, phi1)) for reporting.  ``origin`` says where the settings
    came from ("defaults", "exact", "optimized(...)", or "custom").
    """

    alice: tuple[DichotomicObservable, DichotomicObservable]
    bob: tuple[DichotomicObservable, DichotomicObservable]
    alice_angles: tuple[tuple[float, float], tuple[float, float]] | None = None
    bob_angles: tuple[tuple[float, float], tuple[float, float]] | None = None
    origin: str = "custom"

    def __post_init__(self) -> None:
        if len(self.alice) != 2 or len(self.bob) != 2:
            raise ShapeError("settings need exactly two observables per wing")
        if any(obs0.space != obs1.space for obs0, obs1 in (self.alice, self.bob)):
            raise ShapeError("each wing's two observables must act on one space")

    @classmethod
    def defaults(
        cls, alice_space: CompositeSpace, bob_space: CompositeSpace
    ) -> "MeasurementSettings":
        """The labeled default pair per wing.

        obs0 (theta=0) asks which basis value the wing's first factor
        carries; obs1 (theta=pi/2, phi=0) is the entangled-basis
        observable whose eigenspaces are spanned by the pair's maximally
        entangled states.  These are defaults of this artifact, not
        values taken from any experiment.
        """
        angles = ((0.0, 0.0), (math.pi / 2, 0.0))
        return cls(
            alice=tuple(observable_from_bloch(t, p, alice_space) for t, p in angles),
            bob=tuple(observable_from_bloch(t, p, bob_space) for t, p in angles),
            alice_angles=angles,
            bob_angles=angles,
            origin="defaults",
        )


@dataclass(frozen=True)
class InequalityResult:
    """One inequality evaluation, exact or sampled.

    ``s_value`` and ``correlators`` describe the evaluation itself; the
    correlator order is (E11, E10, E01, E00) matching
    S = E11 + E10 + E01 - E00.  For sampled results (``exact=False``)
    they are estimates and ``exact_s``/``exact_correlators`` carry the
    exact companions at the same settings.  ``s_max`` is the exact
    maximum for the same state when one was computed, and ``grid_gap``
    is ``s_max`` minus the grid-search maximum when a grid cross-check
    ran.  ``consistent_with_data`` is set by hypothesis comparisons:
    whether this hypothesis reproduces the unitary-model statistics that
    stand in for the observed data.
    """

    s_value: float
    correlators: tuple[float, float, float, float]
    bound: float = CLASSICAL_BOUND
    hypothesis: CollapseHypothesis | None = None
    exact: bool = True
    shots: int | None = None
    std_error: float | None = None
    s_max: float | None = None
    grid_gap: float | None = None
    exact_s: float | None = None
    exact_correlators: tuple[float, float, float, float] | None = None
    consistent_with_data: bool | None = None

    def __post_init__(self) -> None:
        if self.exact and not abs(self.s_value) <= TSIRELSON_BOUND + TSIRELSON_TOL:
            raise InvariantViolation(
                f"exact |S| = {abs(self.s_value)!r} exceeds the quantum ceiling "
                f"{TSIRELSON_BOUND} + {TSIRELSON_TOL}"
            )


State = Union[PureState, DensityOperator]

# (Alice, Bob) setting indices of the correlators in S order: E11, E10, E01, E00.
_SETTING_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


def _wing_moments(
    state: State,
    alice_space: CompositeSpace,
    bob_space: CompositeSpace,
    alice_ops: np.ndarray,
    bob_ops: np.ndarray,
) -> np.ndarray:
    """M[m, n] = Tr(rho A_m (x) B_n) for stacks of wing operators; see module docstring.

    rho, reduced to the wings' factors and reordered to (Alice, Bob), is
    read as r[i, j, k, l] = <i j| rho |k l>, and
    M[m, n] = sum r[i, j, k, l] A_m[k, i] B_n[l, j].
    """
    overlap = set(alice_space.labels) & set(bob_space.labels)
    if overlap:
        raise ShapeError(f"observables overlap on factors {sorted(overlap)}")
    d_a, d_b = alice_space.dim, bob_space.dim
    if (alice_ops.shape[-1], bob_ops.shape[-1]) != (d_a, d_b):
        raise ShapeError(f"operator stacks do not fit wings of dimensions ({d_a}, {d_b})")
    wings = CompositeSpace(alice_space.factors + bob_space.factors)
    r = _reduced_matrix(state, wings).reshape(d_a, d_b, d_a, d_b)
    # Contiguous: K @ v on a strided view of the same numbers can round differently.
    moments = np.ascontiguousarray(np.einsum("ijkl,mki,nlj->mn", r, alice_ops, bob_ops).real)
    if not np.max(np.abs(moments)) <= 1.0 + 1e-10:
        raise InvariantViolation(f"wing moment outside [-1, 1]: {moments!r}")
    return moments


def _settings_moments(state: State, settings: MeasurementSettings) -> np.ndarray:
    """The settings' table: ``_wing_moments`` over (I, obs0, obs1) on each wing."""
    wings = (settings.alice, settings.bob)
    stacks = [np.stack([np.eye(obs0.space.dim), obs0.matrix, obs1.matrix]) for obs0, obs1 in wings]
    return _wing_moments(state, settings.alice[0].space, settings.bob[0].space, *stacks)


def correlator(state: State, a: DichotomicObservable, b: DichotomicObservable) -> float:
    """E = <A tensor B> for observables on disjoint factors of the state."""
    return float(_wing_moments(state, a.space, b.space, a.matrix[None], b.matrix[None])[0, 0])


def chsh_value(
    state: State,
    settings: MeasurementSettings,
    hypothesis: CollapseHypothesis | None = None,
) -> InequalityResult:
    """Exact S for the given settings, with the quantum ceiling enforced."""
    m = _settings_moments(state, settings)
    correlators = tuple(float(m[i + 1, j + 1]) for i, j in _SETTING_ORDER)
    e11, e10, e01, e00 = correlators
    return InequalityResult(e11 + e10 + e01 - e00, correlators, hypothesis=hypothesis)


def local_deterministic_bound() -> float:
    """Maximum of the S combination over all 16 deterministic assignments.

    Every wing answers +1 or -1 regardless of the other; brute-force
    enumeration reproduces the classical bound.
    """
    best = -math.inf
    for a1, a0, b1, b0 in product((1, -1), repeat=4):
        best = max(best, a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0)
    return float(best)


def _correlation_kernel(
    state: State, alice_space: CompositeSpace, bob_space: CompositeSpace
) -> np.ndarray:
    """K[m, n] = E(basis_m on Alice, basis_n on Bob); E(a,b) = a.K b."""
    a3, b3 = (_basis_triple(wing.nfactors) for wing in (alice_space, bob_space))
    return _wing_moments(state, alice_space, bob_space, a3, b3)


def _sphere_grid(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta values, phi values, unit vectors) for the product grid.

    theta runs over multiples of step in [0, pi]; phi over multiples in
    [0, 2 pi).  Vectors are in row-major (theta, phi) order.
    """
    n_theta = int(math.floor(math.pi / step + 1e-9)) + 1
    n_phi = int(math.floor(2.0 * math.pi / step - 1e-9)) + 1
    thetas = np.arange(n_theta) * step
    phis = np.arange(n_phi) * step
    theta_grid, phi_grid = np.meshgrid(thetas, phis, indexing="ij")
    sin_t = np.sin(theta_grid)
    vectors = np.stack(
        [sin_t * np.cos(phi_grid), sin_t * np.sin(phi_grid), np.cos(theta_grid)],
        axis=-1,
    ).reshape(-1, 3)
    return thetas, phis, vectors


def _angles_of(vector: np.ndarray) -> tuple[float, float]:
    theta = math.acos(min(1.0, max(-1.0, float(vector[2]))))
    phi = math.atan2(float(vector[1]), float(vector[0])) % (2.0 * math.pi)
    return theta, phi


# Pairs per scan block, sized so that the three block buffers stay cache-resident.
_BLOCK_PAIRS = 1 << 15


def _grid_bob_pair(kernel: np.ndarray, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Bob's best (b1, b0) over the product grid, first in row-major order on ties."""
    _, _, vectors = _sphere_grid(grid_step)
    w = vectors @ kernel.T  # row i = K b_i
    norms2 = np.einsum("ij,ij->i", w, w)
    n = vectors.shape[0]

    rows = max(1, _BLOCK_PAIRS // n)
    buffers = [np.empty((rows, n)) for _ in range(3)]
    best_value = -math.inf
    best_flat = 0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        gram, plus, minus = (buffer[: stop - start] for buffer in buffers)
        np.matmul(w[start:stop], w.T, out=gram)
        gram *= 2.0  # exact, so plus and minus round as pair_sum +/- 2 gram
        np.add(norms2[start:stop, None], norms2[None, :], out=plus)
        np.subtract(plus, gram, out=minus)
        plus += gram
        for half in (plus, minus):
            np.clip(half, 0.0, None, out=half)
            np.sqrt(half, out=half)
        plus += minus
        local = int(np.argmax(plus))
        value = float(plus.flat[local])
        if value > best_value:  # strict >: the earliest block keeps a tie
            best_value = value
            best_flat = start * n + local

    idx_b1, idx_b0 = divmod(best_flat, n)
    return vectors[idx_b1], vectors[idx_b0]


# z, x, y: the order in which the canonical rule projects the axes.
_CANONICAL_AXES = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _exact_bob_pair(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's (b1, b0) attaining 2 sqrt(mu1 + mu2); see module docstring.

    The singular values sigma of K are the square roots of the
    eigenvalues mu of K^T K and its right singular vectors are their
    eigenvectors; working from the SVD keeps tan(t) = sigma2 / sigma1
    accurate when mu2 is tiny or zero.
    """
    _, sigma, vt = np.linalg.svd(kernel)
    mu = sigma * sigma
    tol = 1e-12 * max(1.0, float(mu[0]))
    basis: list[np.ndarray] = []
    start = 0
    while start < 3:
        stop = start + 1
        while stop < 3 and mu[stop - 1] - mu[stop] <= tol:
            stop += 1
        # Built from the other eigenvectors, so a fully degenerate
        # spectrum projects with the exact identity.
        others = np.delete(vt, np.s_[start:stop], axis=0)
        projector = np.eye(3) - others.T @ others
        group: list[np.ndarray] = []
        for axis in _CANONICAL_AXES:
            if len(group) == stop - start:
                break
            rest = projector @ axis
            for u in group:
                rest = rest - (u @ rest) * u
            norm = float(np.linalg.norm(rest))
            if norm > 1e-9:
                group.append(rest / norm)
        basis += group
        start = stop
    t = math.atan2(float(sigma[1]), float(sigma[0]))
    along, across = math.cos(t) * basis[0], math.sin(t) * basis[1]
    return along + across, along - across


def _best_settings(
    state: State,
    alice_labels: Sequence[str] | None = None,
    bob_labels: Sequence[str] | None = None,
    bob_pair: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = _exact_bob_pair,
    origin: str = "exact",
) -> tuple[MeasurementSettings, InequalityResult]:
    """Shared body of both searches; by default the exact one.

    Resolves each wing's factors, takes Bob's (b1, b0) = bob_pair(K),
    answers them with Alice's exact optimum along K(b1 + b0) and
    K(b1 - b0), and evaluates S there with ``chsh_value``, so every
    returned result has passed the quantum-ceiling guard.
    """
    if alice_labels is None and bob_labels is None:
        if state.space.nfactors != 2:
            raise ShapeError(
                f"state has factors {state.space.labels}; pass alice_labels "
                "and bob_labels to say which wing measures what"
            )
        alice_labels = (state.space.labels[0],)
        bob_labels = (state.space.labels[1],)
    if alice_labels is None or bob_labels is None:
        raise ShapeError("give both wings' labels or neither")

    alice_space = state.space.subspace(alice_labels)
    bob_space = state.space.subspace(bob_labels)
    kernel = _correlation_kernel(state, alice_space, bob_space)
    b1_vec, b0_vec = bob_pair(kernel)

    def _alice_vector(direction: np.ndarray) -> np.ndarray:
        norm = float(np.linalg.norm(direction))
        if norm < 1e-15:
            return np.array([0.0, 0.0, 1.0])
        return direction / norm

    a1_vec = _alice_vector(kernel @ (b1_vec + b0_vec))
    a0_vec = _alice_vector(kernel @ (b1_vec - b0_vec))

    a_angles = (_angles_of(a0_vec), _angles_of(a1_vec))
    b_angles = (_angles_of(b0_vec), _angles_of(b1_vec))
    settings = MeasurementSettings(
        alice=tuple(observable_from_bloch(t, p, alice_space) for t, p in a_angles),
        bob=tuple(observable_from_bloch(t, p, bob_space) for t, p in b_angles),
        alice_angles=a_angles,
        bob_angles=b_angles,
        origin=origin,
    )
    return settings, chsh_value(state, settings)


def exact_optimum(
    state: State,
    alice_labels: Sequence[str] | None = None,
    bob_labels: Sequence[str] | None = None,
) -> tuple[MeasurementSettings, float]:
    """Settings attaining the maximum of S, in closed form; see module docstring.

    The wings default as in ``optimize_settings``.  Returns the
    canonical maximizing settings (origin "exact") and S there.
    """
    settings, result = _best_settings(state, alice_labels, bob_labels)
    return settings, result.s_value


def optimize_settings(
    state: State,
    grid_step: float = math.pi / 64,
    alice_labels: Sequence[str] | None = None,
    bob_labels: Sequence[str] | None = None,
) -> tuple[MeasurementSettings, float]:
    """Deterministic grid search maximizing |S|; see module docstring.

    For a two-factor state the wings default to one factor each;
    otherwise pass each wing's labels explicitly (e.g. the four-photon
    final state measures the pairs ("a", "alpha") and ("b", "beta")).
    Returns the maximizing settings and the value.  Refining the grid
    (halving grid_step) never decreases the result beyond arithmetic
    noise, since Bob's coarse grid is a subset of the fine one and
    Alice's response is exact; ``exact_optimum`` is the limit.
    """
    if not grid_step_in_range(grid_step):
        raise ShapeError(f"grid_step {grid_step!r} outside [pi/128, pi/8]")
    settings, result = _best_settings(
        state,
        alice_labels,
        bob_labels,
        lambda kernel: _grid_bob_pair(kernel, grid_step),
        f"optimized(grid_step={grid_step:.9g})",
    )
    return settings, result.s_value


def _grid_gap(
    state: State,
    s_max: float,
    grid_step: float,
    alice_labels: Sequence[str] | None = None,
    bob_labels: Sequence[str] | None = None,
) -> float:
    """``s_max`` minus the grid-search maximum at ``grid_step``.

    No grid point can beat the supremum, so a gap below -1e-9 raises
    InvariantViolation.
    """
    _, grid_value = optimize_settings(state, grid_step, alice_labels, bob_labels)
    gap = s_max - grid_value
    if gap < -1e-9:
        raise InvariantViolation(
            f"grid search at step {grid_step!r} found S = {grid_value!r}, above the "
            f"exact maximum {s_max!r}"
        )
    return gap


# Outcome signs (s_a, s_b) in the order ++, +-, -+, --.
_SIGNS_A, _SIGNS_B = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def sample_inequality(
    state: State,
    settings: MeasurementSettings,
    shots: int,
    rng: np.random.Generator,
    hypothesis: CollapseHypothesis | None = None,
) -> InequalityResult:
    """Estimate S from finite per-setting counts.

    Each of the four setting pairs, in the fixed order (A1,B1), (A1,B0),
    (A0,B1), (A0,B0), owns an independent child stream spawned from
    ``rng`` (one spawn call, children in that order), and draws its
    outcome counts from a multinomial over the exact joint distribution
    p(s_a, s_b) = (1 + s_a <A> + s_b <B> + s_a s_b E) / 4 on
    (++, +-, -+, --), which holds for any two +/-1 observables on disjoint
    factors; <A>, <B> and E come from the settings' moment table.  An
    entry below -1e-10 raises InvariantViolation; the rest are clipped
    and renormalized as in ``born_probabilities``.  The standard error is
    the plug-in estimate sqrt(sum (1 - E_k^2) / shots).
    """
    if shots < 1:
        raise ShapeError("sample_inequality needs shots >= 1")
    m = _settings_moments(state, settings)
    counts = []
    for stream, (i, j) in zip(rng.spawn(len(_SETTING_ORDER)), _SETTING_ORDER):
        a, b, e = m[i + 1, 0], m[0, j + 1], m[i + 1, j + 1]
        probs = (1.0 + _SIGNS_A * a + _SIGNS_B * b + _SIGNS_A * _SIGNS_B * e) / 4.0
        if probs.min() < -1e-10:
            raise InvariantViolation(f"joint distribution {probs!r} has a negative entry")
        counts.append(stream.multinomial(shots, _clipped_distribution(probs)))

    estimates = []
    variances = []
    for n in counts:
        e_hat = float(n[0] - n[1] - n[2] + n[3]) / shots
        estimates.append(e_hat)
        variances.append(max(0.0, 1.0 - e_hat * e_hat) / shots)
    e11, e10, e01, e00 = estimates
    s_hat = e11 + e10 + e01 - e00
    return InequalityResult(
        s_value=s_hat,
        correlators=tuple(estimates),
        hypothesis=hypothesis,
        exact=False,
        shots=shots,
        std_error=math.sqrt(sum(variances)),
    )


def hypothesis_comparison(
    scenario,
    hypotheses: Sequence[Union[CollapseHypothesis, str]],
    settings: MeasurementSettings | None = None,
    shots: int = 0,
    rng: np.random.Generator | None = None,
    grid_step: float | None = None,
) -> list[InequalityResult]:
    """Evaluate each hypothesis against the unitary-model statistics.

    The unitary-only exact state stands in for "the data": settings
    default to its exact optimum, and every hypothesis is evaluated
    exactly at those shared settings.  A hypothesis is flagged
    inconsistent when its exact S at the shared settings differs from the
    unitary value by more than ``CONSISTENCY_TOL``.  Each result also
    carries the exact maximum ``s_max`` of the hypothesis's own state.
    With ``grid_step`` set, each distinct hypothesis state is also
    searched once on that grid, and ``grid_gap`` is ``s_max`` minus the
    grid maximum.  States are reused by content: a hypothesis whose
    density matrix equals one already built shares its optimum and its
    grid search.  With ``shots > 0`` the returned results are sampling
    estimates (one child stream per hypothesis, spawned from ``rng`` in
    list order) with the exact companions attached.
    """
    if shots > 0 and rng is None:
        raise ShapeError("sampling a comparison needs a Generator")
    parsed = [CollapseHypothesis.parse(h) for h in hypotheses]
    labels = (tuple(scenario.alice_labels), tuple(scenario.bob_labels))
    states: list[DensityOperator] = []
    which: dict[CollapseHypothesis, int] = {}  # hypothesis -> index into states
    for hyp in (UNITARY_ONLY, *parsed):
        if hyp in which:
            continue
        rho = scenario.exact_state_under(hyp)
        for index, seen in enumerate(states):
            if np.array_equal(seen.matrix, rho.matrix):
                which[hyp] = index
                break
        else:
            which[hyp] = len(states)
            states.append(rho)

    rho_unitary = states[0]
    s_max: dict[int, float] = {}
    if settings is None:
        settings, data = _best_settings(rho_unitary, *labels)
        s_max[0] = data.s_value
    else:
        data = chsh_value(rho_unitary, settings)
    s_data = data.s_value

    grid_gap: dict[int, float] = {}
    streams = rng.spawn(len(parsed)) if shots > 0 else None
    results: list[InequalityResult] = []
    for k, hyp in enumerate(parsed):
        index = which[hyp]
        rho = states[index]
        exact = replace(data, hypothesis=hyp) if index == 0 else chsh_value(rho, settings, hyp)
        if index not in s_max:
            s_max[index] = exact_optimum(rho, *labels)[1]
        if grid_step is not None and index not in grid_gap:
            grid_gap[index] = _grid_gap(rho, s_max[index], grid_step, *labels)
        evaluated = (
            sample_inequality(rho, settings, shots, streams[k], hyp)
            if shots > 0
            else exact
        )
        results.append(
            replace(
                evaluated,
                s_max=s_max[index],
                grid_gap=grid_gap.get(index),
                exact_s=exact.s_value,
                exact_correlators=exact.correlators,
                consistent_with_data=abs(exact.s_value - s_data) <= CONSISTENCY_TOL,
            )
        )
    return results
