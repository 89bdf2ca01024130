"""Correlators, the four-setting inequality, settings search, sampling.

The inequality combination used throughout is

    S = E(A1, B1) + E(A1, B0) + E(A0, B1) - E(A0, B0)

with classical (locally definite) bound 2 and quantum ceiling 2*sqrt(2).

Each wing measures either one factor, with the Bloch family n(theta, phi) . sigma, or
a pair of factors, with the same Bloch pattern applied blockwise on the anti-correlated
span {|01>, |10>} and the correlated span {|00>, |11>}, so the two defaults of
``MeasurementSettings.defaults`` are members of one continuously parameterized family.
Both families satisfy the Pauli algebra observable-by-observable, so the correlator is
exactly bilinear in the two Bloch vectors through a real 3x3 kernel K:  E(a, b) = a . K b.

Every inequality number comes from a table M[m, n] = Tr(rho A_m (x) B_n) over stacks of
the wings' operators (``_wing_moments``).  Over each wing's (I, obs0, obs1) row 0 and
column 0 are the marginals and the rest the correlators; over the basis triples M is K.
The comparison and both searches take K and M off one reduction of each state
(``_tables``).  Tables are linear in rho, so a comparison mixes tables, not densities.
A held or mixed entry beyond 1 + VALIDITY_TOL in magnitude raises InvariantViolation.

For fixed Bob directions (b1, b0) Alice's best unit vectors are along K(b1 + b0) and
K(b1 - b0), giving

    S(b1, b0) = |K(b1 + b0)| + |K(b1 - b0)|.

``exact_optimum`` maximizes this in closed form (R., P. & M. Horodecki, Phys. Lett. A
200, 340 (1995)): with mu1 >= mu2 the two largest eigenvalues of K^T K and v1, v2 their
eigenvectors, the supremum 2 sqrt(mu1 + mu2) (``_s_max``) is attained at

    b1, b0 = cos(t) v1 +/- sin(t) v2,   tan(t) = sqrt(mu2) / sqrt(mu1),

with the eigenvectors fixed by the canonical rule of ``_exact_bob_pair``.
``optimize_settings`` is the exhaustive reference: it scans Bob's two directions over
the (theta, phi) product grid with Alice exact (``_grid_bob_pairs``).  The scan's rules
are stated next to their code: its directions at ``_scan_directions``, its tie rule at
``_TIE_EPS``, its blocks at ``_BLOCK_PAIRS``, its seed at ``_row_seed`` and its screen at
``_SCREEN_MARGIN``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import product
from typing import Sequence, Union

import numpy as np

from .errors import InvariantViolation, ShapeError, _check_count, _check_generator
from .hilbert import (
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    PureState,
    VALIDITY_TOL,
    _PAULI_TRIPLE,
    _bloch_operator,
    _reduced_matrix,
)
from .measurement import UNITARY_ONLY, CollapseHypothesis, _clipped_distribution

CLASSICAL_BOUND = 2.0
TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)
TSIRELSON_TOL = 1e-9
CONSISTENCY_TOL = 1e-6  # |S - S_data| at the shared settings that still reproduces the data

# Accepted grid steps, inclusive.  The scan's pairs grow as step**-4: a pi/128 scan of one
# kernel takes 0.22-0.55 s (the singlet 0.46-0.55 s) and 37-43 MB peak RSS on a shared
# 2-core Xeon, about 25x a pi/64 scan.
GRID_STEP_RANGE = (math.pi / 128, math.pi / 8)

# Most grid pairs a run may scan, counted as (hypotheses + 1) scans of _scan_pairs: fifteen
# hypotheses at pi/128, whose one comparison took 3.3 s on that Xeon.  More exits 2 up front.
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


def observable_from_bloch(theta: float, phi: float, space: CompositeSpace) -> DichotomicObservable:
    """Member of the wing's observable family for a Bloch direction.

    One factor gives the ordinary n.sigma; a pair gives the blockwise
    version described in the module docstring.
    """
    return DichotomicObservable(space, _bloch_operator(theta, phi, _basis_triple(space.nfactors)))


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
    is ``s_max`` minus S at the grid search's pick when a grid cross-check
    ran.  ``consistent_with_data`` is set by hypothesis comparisons:
    whether this hypothesis reproduces the unitary-model statistics that
    stand in for the observed data.  An exact |S| (``s_value`` of an exact
    result, ``exact_s`` of a sampled one) or an ``s_max`` beyond the
    quantum ceiling (plus TSIRELSON_TOL) raises InvariantViolation.
    """

    s_value: float
    correlators: tuple[float, float, float, float]
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
        exact_s = self.s_value if self.exact else self.exact_s
        bounded = {"exact |S|": None if exact_s is None else abs(exact_s), "s_max": self.s_max}
        for name, value in bounded.items():
            if value is not None and not value <= TSIRELSON_BOUND + TSIRELSON_TOL:
                raise InvariantViolation(f"{name} = {value!r} exceeds the quantum ceiling "
                                         f"{TSIRELSON_BOUND} + {TSIRELSON_TOL}")


State = Union[PureState, DensityOperator]

# (Alice, Bob) setting indices of the correlators in S order: E11, E10, E01, E00.
_SETTING_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))


def _wing_moments(states: Sequence[State], alice_space: CompositeSpace, bob_space: CompositeSpace,
                  alice_ops: np.ndarray, bob_ops: np.ndarray) -> np.ndarray:
    """M[h, m, n] = Tr(rho_h A_m (x) B_n) for a sequence of states and stacks of wing
    operators: the ``_stack_moments`` of their ``_reduced_stack``; see module docstring."""
    return _stack_moments(_reduced_stack(states, alice_space, bob_space), alice_ops, bob_ops)


def _reduced_stack(states: Sequence[State], alice_space: CompositeSpace,
                   bob_space: CompositeSpace) -> np.ndarray:
    """r[h, i, j, k, l] = <i j| rho_h |k l>, each rho_h reduced to the wings' factors."""
    overlap = set(alice_space.labels) & set(bob_space.labels)
    if overlap:
        raise ShapeError(f"observables overlap on factors {sorted(overlap)}")
    r = np.stack([_reduced_matrix(state, alice_space.factors + bob_space.factors)
                  for state in states])
    return r.reshape(-1, alice_space.dim, bob_space.dim, alice_space.dim, bob_space.dim)


def _stack_moments(r: np.ndarray, alice_ops: np.ndarray, bob_ops: np.ndarray) -> np.ndarray:
    """M[h, m, n] = sum r[h, i, j, k, l] A_m[k, i] B_n[l, j] over a ``_reduced_stack``, one
    einsum for the stack whose tables are bitwise each state's alone."""
    d_a, d_b = r.shape[1:3]
    if (alice_ops.shape[-1], bob_ops.shape[-1]) != (d_a, d_b):
        raise ShapeError(f"operator stacks do not fit wings of dimensions ({d_a}, {d_b})")
    # Contiguous: K @ v on a strided view of the same numbers can round differently.
    moments = np.einsum("hijkl,mki,nlj->hmn", r, alice_ops, bob_ops).real
    return _checked(np.ascontiguousarray(moments))


def _checked(moments: np.ndarray) -> np.ndarray:
    if not np.max(np.abs(moments)) <= 1.0 + VALIDITY_TOL:
        raise InvariantViolation(f"wing moment outside [-1, 1]: {moments!r}")
    return moments


def _wing_stack(op0: np.ndarray, op1: np.ndarray) -> np.ndarray:
    """A wing's (I, obs0, obs1), whose table holds the marginals in row and column 0."""
    return np.stack([np.eye(len(op0)), op0, op1])


def _settings_wings(settings: MeasurementSettings) -> tuple:
    """The settings' wing spaces and (I, obs0, obs1) stacks: ``_wing_moments``' arguments."""
    (a0, a1), (b0, b1) = settings.alice, settings.bob
    return a0.space, b0.space, _wing_stack(a0.matrix, a1.matrix), _wing_stack(b0.matrix, b1.matrix)


def correlator(state: State, a: DichotomicObservable, b: DichotomicObservable) -> float:
    """E = <A tensor B> for observables on disjoint factors of the state."""
    return float(_wing_moments([state], a.space, b.space, a.matrix[None], b.matrix[None])[0, 0, 0])


def chsh_value(state: State, settings: MeasurementSettings) -> InequalityResult:
    """Exact S for the given settings, with the quantum ceiling enforced."""
    s_value, correlators = _table_values(_wing_moments([state], *_settings_wings(settings))[0])
    return InequalityResult(float(s_value), tuple(correlators.tolist()))


def _table_values(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """S and the correlators, in S order, read off a settings' table or a stack of them."""
    e11, e10, e01, e00 = (m[..., i + 1, j + 1] for i, j in _SETTING_ORDER)
    return e11 + e10 + e01 - e00, np.stack([e11, e10, e01, e00], axis=-1)


def local_deterministic_bound() -> float:
    """Maximum of the S combination over all 16 deterministic assignments.

    Every wing answers +1 or -1 regardless of the other; brute-force
    enumeration reproduces the classical bound.
    """
    signs = product((1, -1), repeat=4)
    return float(max(a1 * b1 + a1 * b0 + a0 * b1 - a0 * b0 for a1, a0, b1, b0 in signs))


def _grid_shape(step: float) -> tuple[int, int]:
    """(n_theta, n_phi): multiples of step in [0, pi] and in [0, 2 pi)."""
    n_theta = int(math.floor(math.pi / step + 1e-9)) + 1
    n_phi = int(math.floor(2.0 * math.pi / step - 1e-9)) + 1
    return n_theta, n_phi


def _scan_pairs(step: float) -> int:
    """The triangle n(n + 1)/2 over the grid's n distinct directions (one z at theta = 0).

    The run budget counts this triangle, the requested grid's, even where the scan keeps
    one direction of each antipodal pair and evaluates about a quarter of it, so the
    configurations it accepts do not depend on that halving.
    """
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
    """``_sphere_grid``'s directions, read-only, with one z and, when pi / step is an integer k,
    the first of each antipodal pair (theta_a, phi_b), (theta_(k-a), phi_(b+k mod 2k)) only.
    S is symmetric in (b1, b0) and even in each, and every phi of the theta = 0 row is the
    same z, so the scan evaluates only the triangle i <= j over these directions."""
    if not grid_step_in_range(step):
        raise ShapeError(f"grid_step {step!r} outside [pi/128, pi/8]")
    thetas, phis, vectors = _sphere_grid(step)
    row, col = np.divmod(np.arange(len(vectors)), len(phis))
    k = len(thetas) - 1
    k = k if abs(k * step - math.pi) <= 1e-14 else math.inf  # inf: the grid holds no antipodes
    vectors = vectors[((row > 0) | (col == 0)) & ((2 * row < k) | ((2 * row == k) & (col < k)))]
    vectors.setflags(write=False)
    return vectors


def _row_values(w: np.ndarray, firsts, seconds) -> np.ndarray:
    """S = |w_i + w_j| + |w_i - w_j| for rows w_i = K b_i: ``_grid_gaps``' formula, each
    norm the sqrt of three squares added in order, bitwise ``np.add.reduce``, not norm's."""
    a, b = w[firsts], w[seconds]
    plus, minus = (a + b) ** 2, (a - b) ** 2
    return (np.sqrt(plus[..., 0] + plus[..., 1] + plus[..., 2])
            + np.sqrt(minus[..., 0] + minus[..., 1] + minus[..., 2]))


def _row_seed(w: np.ndarray, norms2: np.ndarray) -> np.ndarray:
    """Each K's first S for the screen, w[c, i] = K_c b_i: the best pair in its row of the
    largest |K_c b_i|.  A grid pair's S, so never above the grid maximum, and no SVD."""
    rows = (np.arange(len(w))[:, None], np.argmax(norms2, axis=1)[:, None])
    return _row_values(w, rows, slice(None)).max(axis=1)


# Pairs per screen block (whole rows of the triangle, each from the block's first row on),
# survivors queued before a flush and rows of w in one stack, so a scan's memory grows with
# its directions, not its pairs.  It bounds memory only: S at a survivor is read off its
# two rows, whatever the blocking, flushes, stack, BLAS or t.
_BLOCK_PAIRS = 1 << 15

# The tie rule's tolerance.  A scan picks the first pair in row-major grid order (the
# lexicographically smallest (theta_b1, phi_b1, theta_b0, phi_b0)) whose S lies within it
# of the grid maximum, so rounding never decides between exact ties.  On the pinned and
# property-drawn kernels, S of pairs tied exactly to the grid maximum spread at most
# 1.8e-15, and the best pair not tied to it lay at least 9.9e-9 below: rounding cannot
# move a pair across this line.
_TIE_EPS = 1e-12

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
# and -t^2 at (6, 7) and (7, 6): one matmul screens a block, and only the
# pairs that pass get S.  t is the best S known so far, first _row_seed's S
# of a grid pair, shrunk by _SCREEN_MARGIN = m and then by _TIE_EPS, so every
# dropped pair lies more than _TIE_EPS below the grid maximum.  At pi/16 the
# seed leaves 1-4 survivors on the stochastic sweep's kernels without exact
# ties (p = 0.1 ... 0.9).  Near t^2 = 2P, once
# the first test fails, the second's slack is at least about (m t^2)^2, and
# must outlast Q's rounding, a few eps t^4: m = 1e-6 leaves a factor of
# several hundred, while m = 1e-9 changed picks on rank-one kernels.  So the pick is the
# unscreened scan's; the seed and the flushes change only what is pruned.
_SCREEN_MARGIN = 1e-6
_PRODUCTS = ([0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2])  # a and b of c's w_a w_b


def _grid_bob_pairs(kernels: np.ndarray, grid_step: float) -> np.ndarray:
    """Bob's (b1, b0) for each K of a (k, 3, 3) stack, as a (k, 2, 3) array: each K's first
    grid pair in row-major order within _TIE_EPS of its own maximum.  The Ks share the
    scan's set-up and flushes but no t, best or pick.

    The screen runs K by K and block by block and queues survivors, ascending, as indices
    (c n + i) k n + c n + j of pairs of w's k n rows.  A flush (``_kept``) reads S at each
    and keeps, ahead of later survivors, each K's pairs that beat all its earlier pairs and
    lie within _TIE_EPS of its best: after the last flush, its pick is its first kept pair."""
    vectors = _scan_directions(grid_step)
    k, n = len(kernels), len(vectors)
    rows = max(1, _BLOCK_PAIRS // n)  # a block's rows, and the most Ks a stack's set-up holds
    if k > rows:
        return np.concatenate([_grid_bob_pairs(kernels[i : i + rows], grid_step)
                               for i in range(0, k, rows)])
    w = np.matmul(vectors, kernels.transpose(0, 2, 1))  # w[c, i] = K_c b_i, one gemm per K
    norms2 = np.einsum("kij,kij->ki", w, w)
    lifted, wt = np.empty((k, 8, n)), w.transpose(0, 2, 1)  # column j of lifted[c] is K_c's c_j
    np.multiply(wt[:, _PRODUCTS[0]], wt[:, _PRODUCTS[1]], out=lifted[:, :6])
    lifted[:, 6], lifted[:, 7] = 1.0, norms2
    weights = np.diag([4.0, 4.0, 4.0, 8.0, 8.0, 8.0, 0.0, 0.0])
    starts = np.arange(0, n, rows)
    row_max = np.maximum.reduceat(norms2, starts, axis=1)  # each block's largest n_i, per K
    suffix_max = np.maximum.accumulate(row_max[:, ::-1], axis=1)[:, ::-1].tolist()  # from it on
    row_max = row_max.tolist()
    known = _row_seed(w, norms2).tolist()  # each K's best S so far
    buffer, flags = np.empty(rows * n), np.empty(rows * n, dtype=bool)  # a block's Q and keep
    kept, queue, queued = np.empty(0, dtype=np.intp), [], 0  # and the survivors queued since
    for c in range(k):
        lift, norms, t2 = lifted[c], norms2[c], None
        for block_index, start in enumerate(starts.tolist()):
            stop = min(start + rows, n)
            shape = (stop - start, n - start)  # columns from the block's first row on
            size = shape[0] * shape[1]
            block, keep = buffer[:size].reshape(shape), flags[:size].reshape(shape)
            if t2 is None:  # t: K_c's best S so far, shrunk by the margin and the tie tolerance
                t2 = max(known[c] * (1.0 - _SCREEN_MARGIN) - _TIE_EPS, 0.0) ** 2
                weights[6, 6], weights[6, 7], weights[7, 6] = t2 * t2 / 4.0, -t2, -t2
                left = lift.T @ weights  # row i is c_i W
            np.matmul(left[start:stop], lift[:, start:], out=block)
            np.less_equal(block, 0.0, out=keep)
            if t2 / 2.0 - row_max[c][block_index] <= suffix_max[c][block_index]:
                reach = t2 / 2.0 - norms[start:stop]  # a row may meet 2P >= t^2
                near = np.flatnonzero(reach <= suffix_max[c][block_index])
                keep[near] |= norms[None, start:] >= reach[near, None]
            survivors = np.flatnonzero(keep)
            if survivors.size:  # entry r (n - start) + j - start is the pair (start + r, j)
                if queued + survivors.size > _BLOCK_PAIRS:  # flush, then tighten K_c's t
                    kept = _kept(np.concatenate([kept, *queue]), w, known)
                    queue, queued, t2 = [], 0, None
                width, base = n - start, (c * n + start) * k * n + c * n + start
                queue.append(survivors + (survivors // width) * (k * n - width) + base)
                queued += survivors.size
    kept = _kept(np.concatenate([kept, *queue]), w, known)  # each K's pick: its first kept
    first = kept[np.searchsorted(kept, np.arange(0, k * k * n * n, (k * n + 1) * n))]
    return vectors[first[:, None] // [k * n, 1] % n]  # (i, j) of (c n + i) k n + c n + j


def _kept(pairs: np.ndarray, w: np.ndarray, known: list[float]) -> np.ndarray:
    """``_grid_bob_pairs``' flush: of its queued pairs, each K's that beat all its earlier
    pairs and lie within _TIE_EPS of its best S, read off w[c, i] = K_c b_i into known[c]."""
    k, n = w.shape[:2]
    firsts, seconds = np.divmod(pairs, k * n)
    values, keep = _row_values(w.reshape(-1, 3), firsts, seconds), np.empty(pairs.size, bool)
    bounds = np.searchsorted(firsts, np.arange(0, k * n + 1, n)).tolist()
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):  # K_c's run of pairs
        if b > a:
            running = np.maximum.accumulate(values[a:b])  # exact
            known[c] = max(known[c], float(running[-1]))
            np.greater_equal(values[a:b], running[-1] - _TIE_EPS, out=keep[a:b])
            keep[a + 1 : b] &= values[a + 1 : b] > running[:-1]
    return pairs[keep]


def _grid_bob_pair(kernel: np.ndarray, grid_step: float) -> tuple[np.ndarray, np.ndarray]:
    """One kernel's ``_grid_bob_pairs``."""
    return tuple(_grid_bob_pairs(kernel[None], grid_step)[0])


# z, x, y: the order in which the canonical rule projects the axes.
_CANONICAL_AXES = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


def _exact_bob_pair(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bob's (b1, b0) attaining 2 sqrt(mu1 + mu2); see module docstring.

    Eigenvectors are fixed by one canonical rule, so degenerate spectra give reproducible
    settings: eigenvalues that agree within 1e-12 * max(1, mu1) form one group, and each
    group's eigenvectors are replaced by the Gram-Schmidt of the z, x and y axes, in that
    order, projected onto the group's eigenspace (a remainder shorter than 1e-9 counts as
    zero and is skipped).  That fixes every sign and gives the textbook
    b1, b0 = (z +/- x)/sqrt(2) for the singlet.

    The singular values sigma of K are the square roots of the eigenvalues mu of K^T K and
    its right singular vectors are their eigenvectors; working from the SVD keeps
    tan(t) = sigma2 / sigma1 accurate when mu2 is tiny or zero.
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


def _s_max(kernels: np.ndarray) -> np.ndarray:
    """The maximum of S, 2 sqrt(sigma1^2 + sigma2^2), of a K or of a stack in one SVD."""
    sigma = np.linalg.svd(kernels, compute_uv=False)
    return 2.0 * np.sqrt(sigma[..., 0] ** 2 + sigma[..., 1] ** 2)


def _tables(held: Sequence[State], spaces: tuple,
            grid_step: float | None = None) -> tuple[np.ndarray, tuple]:
    """Each held state's (K, M) on the wing ``spaces``, as an (h, 2, 3, 3) stack off one
    ``_reduced_stack``, and the angles M was taken at: the first K's ``_settings_angles`` at
    ``grid_step``, from the bare ``_bloch_operator`` stacks, bitwise the observables'."""
    reduced = _reduced_stack(held, *spaces)
    kernels = _stack_moments(reduced, *(_basis_triple(wing.nfactors) for wing in spaces))
    angles = _settings_angles(kernels[0], grid_step)
    ops = [_wing_stack(*(_bloch_operator(t, p, _basis_triple(space.nfactors)) for t, p in wing))
           for space, wing in zip(spaces, angles)]
    return np.stack([kernels, _stack_moments(reduced, *ops)], axis=1), angles


def _searched(
    state: State,
    alice_labels: Sequence[str] | None,
    bob_labels: Sequence[str] | None,
    grid_step: float | None,
    origin: str,
) -> tuple[MeasurementSettings, float]:
    """Shared body of both searches, exact or on a grid: the settings at the
    ``_settings_angles`` of the state's K on the wings, and S there, both off ``_tables``."""
    if alice_labels is None and bob_labels is None and state.space.nfactors == 2:
        alice_labels, bob_labels = state.space.labels[:1], state.space.labels[1:]
    if alice_labels is None or bob_labels is None:
        raise ShapeError(
            f"state has factors {state.space.labels}; pass both alice_labels and "
            "bob_labels to say which wing measures what"
        )
    spaces = (state.space.subspace(alice_labels), state.space.subspace(bob_labels))
    tables, angles = _tables([state], spaces, grid_step)
    s_value, correlators = _table_values(tables[0, 1])
    result = InequalityResult(float(s_value), tuple(correlators.tolist()))  # the ceiling's guard
    return _built_settings(spaces, angles, origin), result.s_value


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


def _grid_gaps(kernels: np.ndarray, s_max: Sequence[float], grid_step: float) -> list[float]:
    """Each K's ``s_max`` minus |K(b1 + b0)| + |K(b1 - b0)| at its ``_grid_bob_pairs`` pick,
    for the stack at once: a stacked matmul is a gemv per K v and a dot per |w|^2, bitwise
    ``np.linalg.norm(kernel @ v)``.  No grid point can beat the supremum, so a gap below
    -1e-9 raises InvariantViolation."""
    b1, b0 = _grid_bob_pairs(kernels, grid_step).transpose(1, 0, 2)
    w = np.matmul(kernels[:, None], np.stack([b1 + b0, b1 - b0], axis=1)[..., None])
    norms = np.sqrt(np.matmul(w.transpose(0, 1, 3, 2), w))[..., 0, 0]
    grid_values = (norms[:, 0] + norms[:, 1]).tolist()
    gaps = []
    for top, value in zip(s_max, grid_values):
        gaps.append(top - value)
        if gaps[-1] < -1e-9:
            raise InvariantViolation(f"grid search at step {grid_step!r} found S = "
                                     f"{value!r}, above the exact maximum {top!r}")
    return gaps


# Outcome signs (s_a, s_b) in the order ++, +-, -+, --.
_SIGNS_A, _SIGNS_B = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def sample_inequality(state: State, settings: MeasurementSettings, shots: int,
                      rng: np.random.Generator) -> InequalityResult:
    """Estimate S from finite per-setting counts.

    Each of the four setting pairs, in the fixed order (A1,B1), (A1,B0),
    (A0,B1), (A0,B0), owns an independent child stream spawned from
    ``rng`` (one spawn call, children in that order), and draws its
    outcome counts from a multinomial over the exact joint distribution
    p(s_a, s_b) = (1 + s_a <A> + s_b <B> + s_a s_b E) / 4 on
    (++, +-, -+, --), which holds for any two +/-1 observables on disjoint
    factors; <A>, <B> and E come from the settings' moment table.  An
    entry below -VALIDITY_TOL raises InvariantViolation; the rest are clipped
    and renormalized as in ``born_probabilities``.  The standard error is
    the plug-in estimate sqrt(sum (1 - E_k^2) / shots), which must be an
    integer in [1, 2**63), and ``rng`` a numpy Generator (else InvalidState).
    """
    _check_count("shots", shots, 1)
    _check_generator(rng, "sample_inequality")
    m = _wing_moments([state], *_settings_wings(settings))[0]
    return _sample_table(m, shots, rng)


def _sample_table(m: np.ndarray, shots: int, rng: np.random.Generator) -> InequalityResult:
    """``sample_inequality`` from a settings' table ``m``, in the same spawn and draw order."""
    counts = []
    for stream, (i, j) in zip(rng.spawn(len(_SETTING_ORDER)), _SETTING_ORDER):
        a, b, e = m[i + 1, 0], m[0, j + 1], m[i + 1, j + 1]
        probs = (1.0 + _SIGNS_A * a + _SIGNS_B * b + _SIGNS_A * _SIGNS_B * e) / 4.0
        if probs.min() < -VALIDITY_TOL:
            raise InvariantViolation(f"joint distribution {probs!r} has a negative entry")
        counts.append(stream.multinomial(shots, _clipped_distribution(probs)))

    estimates = [float(n[0] - n[1] - n[2] + n[3]) / shots for n in counts]
    variances = [max(0.0, 1.0 - e_hat * e_hat) / shots for e_hat in estimates]
    e11, e10, e01, e00 = estimates
    s_hat = e11 + e10 + e01 - e00
    return InequalityResult(
        s_value=s_hat,
        correlators=tuple(estimates),
        exact=False,
        shots=shots,
        std_error=math.sqrt(sum(variances)),
    )


def hypothesis_comparison(
    scenario,
    hypotheses: Sequence[Union[CollapseHypothesis, str]],
    shots: int = 0,
    rng: np.random.Generator | None = None,
    grid_step: float | None = None,
) -> list[InequalityResult]:
    """Evaluate each hypothesis against the unitary-model statistics.

    ``scenario`` is a :class:`~wfsim.scenarios.HeldScenario`: it names its
    wings as ``alice_labels`` and ``bob_labels``, and
    ``scenario.held_terms(hypothesis)`` gives a hypothesis's (weight, held
    state) terms, a state held for several being one object.  The
    unitary-only exact state stands in for "the data": the settings are
    its exact optimum, and every hypothesis is evaluated exactly at
    those shared settings.  A hypothesis is flagged inconsistent when its
    exact S at the shared settings differs from the unitary value by more
    than ``CONSISTENCY_TOL``.  Each result also carries the exact maximum
    ``s_max`` of the hypothesis's own state.  Both come from mixed tables
    (see module docstring), not from mixed densities; hypotheses whose
    tables are equal entry by entry share one entry.  With ``grid_step``
    set, the entries' mixed Ks are also scanned in one pass on that grid, and
    ``grid_gap`` is ``s_max`` minus S at each one's pick (``_grid_gaps``).
    ``shots`` must be an integer in [0, 2**63).  With ``shots > 0`` the
    returned results are sampling estimates (one child stream per
    hypothesis, spawned from ``rng`` in list order) with the exact
    companions attached, and an ``rng`` that is not a numpy Generator,
    None included, raises InvalidState.
    """
    _check_count("shots", shots, 0)
    if grid_step is not None:
        _scan_directions(grid_step)  # the scan's check of the step, before any table
    if shots > 0:
        _check_generator(rng, "sampling a comparison")
    parsed = [CollapseHypothesis.parse(h) for h in hypotheses]
    terms = {hyp: scenario.held_terms(hyp) for hyp in (UNITARY_ONLY, *parsed)}
    ((_, rho_unitary),) = terms[UNITARY_ONLY]
    held = list({id(rho): rho for mix in terms.values() for _, rho in mix}.values())
    slot = {id(rho): i for i, rho in enumerate(held)}  # first-use order, unitary_only's first
    spaces = tuple(map(rho_unitary.space.subspace, (scenario.alice_labels, scenario.bob_labels)))
    tables, _ = _tables(held, spaces)  # (K, M) per state, unitary_only's first
    mixes = list(terms.values())
    mixed = np.empty((len(mixes), *tables.shape[1:]))  # each hypothesis's sum of w (K, M)
    for k in range(max(map(len, mixes))):  # every mix's k-th term, added in term order
        rows = [r for r, mix in enumerate(mixes) if len(mix) > k]
        weights = np.array([mixes[r][k][0] for r in rows])[:, None, None, None]
        products = weights * tables[[slot[id(mixes[r][k][1])] for r in rows]]
        mixed[rows] = mixed[rows] + products if k else products
    _checked(mixed)
    # hypothesis -> its first row of equal (K, M) bytes; adding 0.0 turns -0.0 into 0.0, so
    # tables that compare equal entry by entry share a row
    first: dict[bytes, int] = {}
    which = {hyp: first.setdefault(table.tobytes(), r)
             for r, (hyp, table) in enumerate(zip(terms, mixed + 0.0))}
    entries = list(first.values())  # distinct tables, unitary_only's first
    s_max = dict(zip(entries, _s_max(mixed[entries, 0]).tolist()))
    used = list(dict.fromkeys(which[hyp] for hyp in parsed))  # entries the hypotheses use
    grid_gap: dict[int, float] = {}
    if grid_step is not None and used:
        grid_gap = dict(zip(used, _grid_gaps(mixed[used, 0], [s_max[r] for r in used], grid_step)))
    s_values, correlators = (values.tolist() for values in _table_values(mixed[:, 1]))
    streams = rng.spawn(len(parsed)) if shots > 0 else None
    results: list[InequalityResult] = []
    for k, hyp in enumerate(parsed):
        r = which[hyp]
        companions = dict(hypothesis=hyp, s_max=s_max[r], grid_gap=grid_gap.get(r),
                          exact_s=s_values[r], exact_correlators=tuple(correlators[r]),
                          consistent_with_data=abs(s_values[r] - s_values[0]) <= CONSISTENCY_TOL)
        results.append(
            replace(_sample_table(mixed[r, 1], shots, streams[k]), **companions) if shots > 0
            else InequalityResult(s_values[r], tuple(correlators[r]), **companions)
        )
    return results
