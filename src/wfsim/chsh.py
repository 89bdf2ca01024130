"""Correlators, the four-setting inequality, settings search, sampling.

The inequality combination used throughout is

    S = E(A1, B1) + E(A1, B0) + E(A0, B1) - E(A0, B0)

with classical (locally definite) bound 2 and quantum ceiling 2*sqrt(2).

Observable families
-------------------
Each wing measures either one factor or a two-factor pair:

* single factor: the Bloch family n(theta, phi) . sigma;
* pair of factors: the same Bloch pattern applied blockwise on the
  anti-correlated span {|01>, |10>} and the correlated span {|00>, |11>},
  so the two defaults of ``MeasurementSettings.defaults`` are members of
  one continuously parameterized family.

Both families satisfy the Pauli algebra observable-by-observable, so the
correlator is exactly bilinear in the two Bloch vectors through a real
3x3 kernel K:  E(a, b) = a . K b.

Moment table
------------
Every inequality number comes from a table M[m, n] = Tr(rho A_m (x) B_n)
over stacks of Alice's and Bob's operators (``_wing_moments``).  Over each
wing's (I, obs0, obs1) row 0 and column 0 are the marginals and the rest
the correlators; over the basis triples M is K.  Tables are linear in rho,
so ``hypothesis_comparison`` takes K and the settings' M once per held
dephasing and mixes those with a hypothesis's weights, in term order
(``_mixed``); it never mixes densities for them.  Its ``s_max`` is the
closed form of the mixed K below, and its grid cross-check scans that K
(``_grid_gap``).  An entry beyond 1 + 1e-10 in magnitude, held or mixed,
raises InvariantViolation.

Settings search
---------------
For fixed Bob directions (b1, b0) Alice's best unit vectors are along
K(b1 + b0) and K(b1 - b0), giving

    S(b1, b0) = |K(b1 + b0)| + |K(b1 - b0)|.

``exact_optimum`` maximizes this in closed form (R., P. & M. Horodecki,
Phys. Lett. A 200, 340 (1995)): with mu1 >= mu2 the two largest
eigenvalues of K^T K and v1, v2 their eigenvectors, the supremum
2 sqrt(mu1 + mu2) (``_s_max``, from K's singular values) is attained at

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
(theta_b1, phi_b1, theta_b0, phi_b0).  S(b1, b0) and S(b0, b1) evaluate
bitwise equal, and every phi of the theta = 0 row is the same z, so that
first maximum has b1 at or before b0 and b1 not a later copy of z: the
scan evaluates only the upper triangle i <= j of the distinct directions,
keeping the first z.  It walks the triangle in row blocks of a fixed
number of pairs, each from its own first row on, so its memory grows with
the number of directions, not of pairs; a later block wins only when
strictly larger, which keeps the tie rule.  The grid cross-check of an
exact maximum (``_grid_gap``, in ``hypothesis_comparison``) needs only
K: it reads S at the scan's pick by the formula above, building no
observable, where both searches return ``chsh_value`` at the settings
they build.

The walk is screened.  Before it starts, the scan takes S at the grid pair
nearest a closed-form maximizer (the seed, ``_seed_pair``): the pair above
built from K's raw SVD, without the canonical rule, which only reported
settings need (``_exact_bob_pair``).  A threshold t, a relative 1e-6 below
the best S known so far (the seed's, then the running best's), screens each
block with one matmul that tests a proven necessary condition for S >= t
(derived at ``_grid_bob_pair``).  Only the pairs that pass get S, from
their block's Gram entries, in the same arithmetic as an unscreened scan,
and every pair dropped lies below the grid maximum.  So the maximum, its
ties and the pick are the unscreened scan's; the seed changes only how
much is pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Sequence, Union

import numpy as np

from .errors import InvariantViolation, ShapeError, _check_count
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

# Accepted grid steps, inclusive.  The scan's pairs grow as step**-4: one pi/128 scan
# takes 1.4-3.7 s (the singlet 3.0 s) and 38-41 MB peak RSS on a shared 2-core Xeon,
# each halving from pi/32 on about 17-25x more.
GRID_STEP_RANGE = (math.pi / 128, math.pi / 8)

# Most grid pairs a run may scan, counted as (hypotheses + 1) scans of _scan_pairs:
# sixteen pi/128 scans, 25-60 s on that Xeon.  More exits 2 up front.
_GRID_PAIR_BUDGET = 1 << 33


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
        return _built_settings((alice_space, bob_space), (angles, angles), "defaults")


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
    stand in for the observed data.  An exact |S| or an ``s_max`` beyond
    the quantum ceiling (plus TSIRELSON_TOL) raises InvariantViolation.
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
        bounded = {"exact |S|": abs(self.s_value) if self.exact else None, "s_max": self.s_max}
        for name, value in bounded.items():
            if value is not None and not value <= TSIRELSON_BOUND + TSIRELSON_TOL:
                raise InvariantViolation(f"{name} = {value!r} exceeds the quantum ceiling "
                                         f"{TSIRELSON_BOUND} + {TSIRELSON_TOL}")


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
    moments = np.einsum("ijkl,mki,nlj->mn", r, alice_ops, bob_ops).real
    return _checked(np.ascontiguousarray(moments))


def _checked(moments: np.ndarray) -> np.ndarray:
    if not np.max(np.abs(moments)) <= 1.0 + 1e-10:
        raise InvariantViolation(f"wing moment outside [-1, 1]: {moments!r}")
    return moments


def _mixed(terms: Sequence[tuple[float, np.ndarray]]) -> np.ndarray:
    """The sum of w T over (weight, table) terms, added in their order and guarded like a table."""
    return _checked(sum((w * table for w, table in terms[1:]), terms[0][0] * terms[0][1]))


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
    return _table_result(_settings_moments(state, settings), hypothesis)


def _table_result(m: np.ndarray, hypothesis: CollapseHypothesis | None = None) -> InequalityResult:
    """S and the correlators read off a settings' table (see ``_settings_moments``)."""
    correlators = tuple(float(m[i + 1, j + 1]) for i, j in _SETTING_ORDER)
    e11, e10, e01, e00 = correlators
    return InequalityResult(e11 + e10 + e01 - e00, correlators, hypothesis=hypothesis)


def local_deterministic_bound() -> float:
    """Maximum of the S combination over all 16 deterministic assignments.

    Every wing answers +1 or -1 regardless of the other; brute-force
    enumeration reproduces the classical bound.
    """
    signs = product((1, -1), repeat=4)
    return float(max(a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0 for a1, a0, b1, b0 in signs))


def _correlation_kernel(
    state: State, alice_space: CompositeSpace, bob_space: CompositeSpace
) -> np.ndarray:
    """K[m, n] = E(basis_m on Alice, basis_n on Bob); E(a,b) = a.K b."""
    a3, b3 = (_basis_triple(wing.nfactors) for wing in (alice_space, bob_space))
    return _wing_moments(state, alice_space, bob_space, a3, b3)


def _grid_shape(step: float) -> tuple[int, int]:
    """(n_theta, n_phi): multiples of step in [0, pi] and in [0, 2 pi)."""
    n_theta = int(math.floor(math.pi / step + 1e-9)) + 1
    n_phi = int(math.floor(2.0 * math.pi / step - 1e-9)) + 1
    return n_theta, n_phi


def _scan_pairs(step: float) -> int:
    """The triangle n(n + 1)/2 over the scan's n distinct directions (one z at theta = 0)."""
    n_theta, n_phi = _grid_shape(step)
    n = (n_theta - 1) * n_phi + 1
    return n * (n + 1) // 2


def _sphere_grid(step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta values, phi values, unit vectors) for the product grid.

    theta runs over multiples of step in [0, pi]; phi over multiples in
    [0, 2 pi).  Vectors are in row-major (theta, phi) order.
    """
    n_theta, n_phi = _grid_shape(step)
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


@lru_cache(maxsize=4)
def _scan_directions(step: float) -> np.ndarray:
    """The scan's distinct directions, read-only: ``_sphere_grid``'s with one z at theta = 0."""
    _, phis, vectors = _sphere_grid(step)
    vectors = np.delete(vectors, np.s_[1 : len(phis)], axis=0)
    vectors.setflags(write=False)
    return vectors


def _pair_values(pair_sum, gram):
    """S = sqrt(P + G) + sqrt(P - G), each clamped at 0, for pair sums P and G = 2 w_i . w_j."""
    return np.sqrt(np.maximum(pair_sum + gram, 0.0)) + np.sqrt(np.maximum(pair_sum - gram, 0.0))


# Pairs per Gram block: whole rows of the triangle, each from the block's first row on.
# A survivor's G is read from its block's matmul, whose shape does not depend on what
# the screen keeps, so G is bitwise the same whatever the threshold.
_BLOCK_PAIRS = 1 << 15

# The screen.  With w_i = K b_i, n_i = |w_i|^2, P = n_i + n_j, G = 2 w_i . w_j
# (|G| <= P) and R = sqrt(P^2 - G^2), a pair's S^2 = 2P + 2R.  So S >= t
# holds iff 2P >= t^2, or t^2 > 2P and 2R >= t^2 - 2P, which squares to
#     G^2 <= t^2 (P - t^2 / 4).
# Every pair with S >= t passes one of the two tests.  The first keeps the
# pairs with R near 0, where the second has no slack, such as the pairs of a
# rank-one K whose two directions both reach its largest |K b|.  For the
# second, G^2 = 4 sum over a, b of (w_ia w_ib)(w_ja w_jb), so with
# c_j = (w_j0^2, w_j1^2, w_j2^2, w_j0 w_j1, w_j0 w_j2, w_j1 w_j2, 1, n_j)
#     Q = G^2 - t^2 n_i - t^2 n_j + t^4 / 4 = c_i . W c_j <= 0
# for the symmetric W = diag(4, 4, 4, 8, 8, 8, 0, 0) plus t^4 / 4 at (6, 6)
# and -t^2 at (6, 7) and (7, 6): one matmul screens a Gram block, and costs
# less than squaring its G (the Gram matmul then runs only where a pair
# passes).  t is the best S known so far, first the S of the grid pair
# nearest the maximizer _seed_pair reads off K's raw SVD (the canonical rule
# of _exact_bob_pair is for reported settings only), shrunk by
# _SCREEN_MARGIN = m, so every dropped pair lies below the grid maximum.
# Near t^2 = 2P, once the first test fails, the second's slack is at least
# about (m t^2)^2, and must outlast Q's rounding, a few eps t^4: m = 1e-6
# leaves a factor of several hundred, while m = 1e-9 changed picks on
# rank-one kernels.  The margin also covers the seed's S, which another
# product order can read up to about 2e-8 higher where P - G is near 0.
_SCREEN_MARGIN = 1e-6
_PRODUCTS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))  # (a, b) of c's w_a w_b


def _grid_bob_pair(kernel: np.ndarray, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """Bob's best (b1, b0) over the product grid, first in row-major order on ties.

    Each Gram block is screened as above.  Only its survivors get S, from
    the block's own G, bitwise the value an unscreened scan computes; every
    pair the screen drops lies below the grid maximum, so the pick is the
    unscreened scan's.
    """
    if not grid_step_in_range(grid_step):
        raise ShapeError(f"grid_step {grid_step!r} outside [pi/128, pi/8]")
    vectors = _scan_directions(grid_step)
    w = vectors @ kernel.T  # row i = K b_i
    norms2 = np.einsum("ij,ij->i", w, w)
    n = vectors.shape[0]
    lifted = np.empty((8, n))  # column j is c_j
    for row, (a, b) in zip(lifted, _PRODUCTS):
        np.multiply(w[:, a], w[:, b], out=row)
    lifted[6], lifted[7] = 1.0, norms2
    weights = np.diag([4.0, 4.0, 4.0, 8.0, 8.0, 8.0, 0.0, 0.0])
    suffix_max = np.maximum.accumulate(norms2[::-1])[::-1]  # suffix_max[k] = max(norms2[k:])

    def screen_below(s: float) -> float:
        """Set W for t = s shrunk by the margin; return t^2."""
        t2 = (s * (1.0 - _SCREEN_MARGIN)) ** 2
        weights[6, 6], weights[6, 7], weights[7, 6] = t2 * t2 / 4.0, -t2, -t2
        return t2

    i, j = (int(np.argmax(vectors @ b)) for b in _seed_pair(kernel))
    seed = float(_pair_values(norms2[i] + norms2[j], 2.0 * (w[i] @ w[j])))
    t2 = screen_below(seed)
    rows = max(1, _BLOCK_PAIRS // n)
    starts = range(0, n, rows)
    row_max = np.maximum.reduceat(norms2, starts)  # largest n_i of each block's rows
    buffer = np.empty(rows * n)  # the block's Q, then its w_i . w_j, G / 2
    flags = np.empty(rows * n, dtype=bool)
    best_value = -math.inf
    best_pair = (0, 0)
    for block_index, start in enumerate(starts):
        stop = min(start + rows, n)
        shape = (stop - start, n - start)  # columns from the block's first row on
        size = shape[0] * shape[1]
        block, keep = buffer[:size].reshape(shape), flags[:size].reshape(shape)
        np.matmul(lifted[:, start:stop].T @ weights, lifted[:, start:], out=block)
        np.less_equal(block, 0.0, out=keep)
        if t2 / 2.0 - row_max[block_index] <= suffix_max[start]:  # a row may meet 2P >= t^2
            reach = t2 / 2.0 - norms2[start:stop]
            near = np.flatnonzero(reach <= suffix_max[start])
            keep[near] |= norms2[None, start:] >= reach[near, None]
        survivors = np.flatnonzero(keep)
        if survivors.size == 0:
            continue
        np.matmul(w[start:stop], w[start:].T, out=block)  # w_i . w_j, G / 2
        firsts = survivors // shape[1]  # np.divmod takes about twice as long
        seconds = survivors - firsts * shape[1]
        pair_sum = norms2[start:stop][firsts] + norms2[start:][seconds]
        # Scaling by 2 commutes with rounding, so this G is bitwise (2 w_i) . w_j.
        values = _pair_values(pair_sum, 2.0 * block.reshape(-1)[survivors])
        local = int(np.argmax(values))  # survivors are in row-major order
        value = float(values[local])
        if value > best_value:  # strict >: the earliest block keeps a tie
            best_value = value
            best_pair = (start + int(firsts[local]), start + int(seconds[local]))
            if value > seed:
                t2 = screen_below(value)

    return vectors[best_pair[0]], vectors[best_pair[1]]


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
    return _closed_form_pair(sigma, basis)


def _seed_pair(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A (b1, b0) attaining 2 sqrt(mu1 + mu2) from K's raw SVD, without the canonical
    rule: the grid scan's seed, which sets only how much its screen prunes."""
    _, sigma, vt = np.linalg.svd(kernel)
    return _closed_form_pair(sigma, vt)


def _closed_form_pair(
    sigma: np.ndarray, basis: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """b1, b0 = cos(t) v1 +/- sin(t) v2 with tan(t) = sigma2 / sigma1, for v1, v2 the
    first two rows of ``basis``."""
    t = math.atan2(float(sigma[1]), float(sigma[0]))
    along, across = math.cos(t) * basis[0], math.sin(t) * basis[1]
    return along + across, along - across


def _settings_angles(kernel: np.ndarray, grid_step: float | None = None) -> tuple[tuple, tuple]:
    """(Alice's, Bob's) ((theta0, phi0), (theta1, phi1)): Bob's (b1, b0) exact, or by the
    grid scan at ``grid_step``, answered by Alice's exact optimum along K(b1 +/- b0)."""
    b1_vec, b0_vec = (
        _exact_bob_pair(kernel) if grid_step is None else _grid_bob_pair(kernel, grid_step)
    )
    alice = []
    for direction in (kernel @ (b1_vec + b0_vec), kernel @ (b1_vec - b0_vec)):
        norm = float(np.linalg.norm(direction))
        alice.append(direction / norm if norm >= 1e-15 else np.array([0.0, 0.0, 1.0]))
    a1_vec, a0_vec = alice
    return (_angles_of(a0_vec), _angles_of(a1_vec)), (_angles_of(b0_vec), _angles_of(b1_vec))


def _built_settings(spaces: tuple, angles: tuple, origin: str) -> MeasurementSettings:
    """The validated observables at (Alice's, Bob's) angles on the two wing spaces."""
    alice, bob = (tuple(observable_from_bloch(t, p, space) for t, p in wing)
                  for space, wing in zip(spaces, angles))
    return MeasurementSettings(alice, bob, *angles, origin=origin)


def _s_max(kernel: np.ndarray) -> float:
    """The maximum of S, 2 sqrt(sigma1^2 + sigma2^2) of K; see module docstring."""
    sigma = np.linalg.svd(kernel, compute_uv=False)
    return 2.0 * math.sqrt(sigma[0] ** 2 + sigma[1] ** 2)


def _searched(
    state: State,
    alice_labels: Sequence[str] | None,
    bob_labels: Sequence[str] | None,
    grid_step: float | None,
    origin: str,
) -> tuple[MeasurementSettings, float]:
    """Shared body of both searches, exact or on a grid: the settings at the
    ``_settings_angles`` of the state's K on the wings, and ``chsh_value`` there."""
    if alice_labels is None and bob_labels is None and state.space.nfactors == 2:
        alice_labels, bob_labels = state.space.labels[:1], state.space.labels[1:]
    if alice_labels is None or bob_labels is None:
        raise ShapeError(
            f"state has factors {state.space.labels}; pass both alice_labels and "
            "bob_labels to say which wing measures what"
        )
    spaces = (state.space.subspace(alice_labels), state.space.subspace(bob_labels))
    angles = _settings_angles(_correlation_kernel(state, *spaces), grid_step)
    settings = _built_settings(spaces, angles, origin)
    return settings, chsh_value(state, settings).s_value


def exact_optimum(
    state: State,
    alice_labels: Sequence[str] | None = None,
    bob_labels: Sequence[str] | None = None,
) -> tuple[MeasurementSettings, float]:
    """Settings attaining the maximum of S, in closed form; see module docstring.

    The wings default as in ``optimize_settings``.  Returns the
    canonical maximizing settings (origin "exact") and S there.
    """
    return _searched(state, alice_labels, bob_labels, None, "exact")


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
    origin = f"optimized(grid_step={grid_step:.9g})"
    return _searched(state, alice_labels, bob_labels, grid_step, origin)


def _grid_gap(kernel: np.ndarray, s_max: float, grid_step: float) -> float:
    """``s_max`` minus the grid maximum of K at ``grid_step``: S at ``_grid_bob_pair``'s
    pick, read as |K(b1 + b0)| + |K(b1 - b0)|, the formula the scan maximizes.

    No grid point can beat the supremum, so a gap below -1e-9 raises
    InvariantViolation.
    """
    b1, b0 = _grid_bob_pair(kernel, grid_step)
    grid_value = float(np.linalg.norm(kernel @ (b1 + b0)) + np.linalg.norm(kernel @ (b1 - b0)))
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
    the plug-in estimate sqrt(sum (1 - E_k^2) / shots), which must be an
    integer in [1, 2**63).
    """
    _check_count("shots", shots, 1)
    return _sample_table(_settings_moments(state, settings), shots, rng, hypothesis)


def _sample_table(
    m: np.ndarray, shots: int, rng: np.random.Generator, hypothesis: CollapseHypothesis | None
) -> InequalityResult:
    """``sample_inequality`` from a settings' table ``m``, in the same spawn and draw order."""
    counts = []
    for stream, (i, j) in zip(rng.spawn(len(_SETTING_ORDER)), _SETTING_ORDER):
        a, b, e = m[i + 1, 0], m[0, j + 1], m[i + 1, j + 1]
        probs = (1.0 + _SIGNS_A * a + _SIGNS_B * b + _SIGNS_A * _SIGNS_B * e) / 4.0
        if probs.min() < -1e-10:
            raise InvariantViolation(f"joint distribution {probs!r} has a negative entry")
        counts.append(stream.multinomial(shots, _clipped_distribution(probs)))

    estimates = [float(n[0] - n[1] - n[2] + n[3]) / shots for n in counts]
    variances = [max(0.0, 1.0 - e_hat * e_hat) / shots for e_hat in estimates]
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

    ``scenario`` names its wings as ``alice_labels`` and ``bob_labels``,
    and ``scenario.held_terms(hypothesis)`` gives a hypothesis's (weight,
    held state) terms, a state held for several being one object.  The
    unitary-only exact state stands in for "the data": settings default
    to its exact optimum, and every hypothesis is evaluated exactly at
    those shared settings.  A hypothesis is flagged inconsistent when its
    exact S at the shared settings differs from the unitary value by more
    than ``CONSISTENCY_TOL``.  Each result also carries the exact maximum
    ``s_max`` of the hypothesis's own state.  Both come from mixed tables
    (see module docstring), not from mixed densities; hypotheses whose
    tables are equal entry by entry share one entry.  With ``grid_step``
    set, each entry's mixed K is also scanned once on that grid, and
    ``grid_gap`` is ``s_max`` minus the grid maximum (``_grid_gap``).
    ``shots`` must be an integer in [0, 2**63).  With ``shots > 0`` the
    returned results are sampling estimates (one child stream per
    hypothesis, spawned from ``rng`` in list order) with the exact
    companions attached.
    """
    _check_count("shots", shots, 0)
    if shots > 0 and rng is None:
        raise ShapeError("sampling a comparison needs a Generator")
    parsed = [CollapseHypothesis.parse(h) for h in hypotheses]
    labels = (tuple(scenario.alice_labels), tuple(scenario.bob_labels))
    ((_, rho_unitary),) = scenario.held_terms(UNITARY_ONLY)
    spaces = tuple(rho_unitary.space.subspace(wing) for wing in labels)
    kernel = _correlation_kernel(rho_unitary, *spaces)
    if settings is None:
        settings = _built_settings(spaces, _settings_angles(kernel), "exact")
    # id of a held state -> its (K, M), both 3 x 3
    tables = {id(rho_unitary): np.stack([kernel, _settings_moments(rho_unitary, settings)])}
    entries: list[tuple[np.ndarray, float]] = []  # ((K, M), s_max)
    which: dict[CollapseHypothesis, int] = {}  # hypothesis -> index into entries
    # (K, M) bytes -> index into entries; adding 0.0 turns -0.0 into 0.0, so tables
    # that compare equal entry by entry share a key
    index_of: dict[bytes, int] = {}
    for hyp in (UNITARY_ONLY, *parsed):
        terms = scenario.held_terms(hyp)
        for _, rho in terms:
            if id(rho) not in tables:
                kernel = _correlation_kernel(rho, *spaces)
                tables[id(rho)] = np.stack([kernel, _settings_moments(rho, settings)])
        mixed = _mixed([(w, tables[id(rho)]) for w, rho in terms])
        which[hyp] = index_of.setdefault((mixed + 0.0).tobytes(), len(entries))
        if which[hyp] == len(entries):
            entries.append((mixed, _s_max(mixed[0])))

    s_data = _table_result(entries[0][0][1]).s_value
    grid_gap: dict[int, float] = {}
    streams = rng.spawn(len(parsed)) if shots > 0 else None
    results: list[InequalityResult] = []
    for k, hyp in enumerate(parsed):
        index = which[hyp]
        (kernel, moments), s_max = entries[index]
        exact = _table_result(moments, hyp)
        if grid_step is not None and index not in grid_gap:
            grid_gap[index] = _grid_gap(kernel, s_max, grid_step)
        evaluated = _sample_table(moments, shots, streams[k], hyp) if shots > 0 else exact
        results.append(
            replace(
                evaluated,
                s_max=s_max,
                grid_gap=grid_gap.get(index),
                exact_s=exact.s_value,
                exact_correlators=exact.correlators,
                consistent_with_data=abs(exact.s_value - s_data) <= CONSISTENCY_TOL,
            )
        )
    return results
