"""Reference implementations the library must agree with.

Everything here is deliberately written on a different computational
path from the package: stride arithmetic and gather instead of einsum,
plain matmul traces instead of vectorized inner products.  Slow and
obvious beats fast and clever for an oracle.
"""

from __future__ import annotations

import itertools

import numpy as np


def strides_for(dims: list[int]) -> list[int]:
    """Row-major strides: the last factor's index varies fastest."""
    out = []
    acc = 1
    for d in reversed(dims):
        out.append(acc)
        acc *= d
    return out[::-1]


def brute_partial_trace(matrix: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit flat-index summation.

    ``keep`` holds axis positions; the result orders them ascending, the
    same relative order the library preserves.
    """
    keep = sorted(keep)
    n = len(dims)
    drop = [a for a in range(n) if a not in keep]
    strides = strides_for(list(dims))

    def offsets(axes: list[int]) -> np.ndarray:
        combos = itertools.product(*[range(dims[a]) for a in axes])
        return np.array(
            [sum(v * strides[a] for a, v in zip(axes, combo)) for combo in combos],
            dtype=np.intp,
        )

    keep_flat = offsets(keep)
    drop_flat = offsets(drop)
    rows = keep_flat[:, None, None] + drop_flat[None, None, :]
    cols = keep_flat[None, :, None] + drop_flat[None, None, :]
    return matrix[rows, cols].sum(axis=2)


def brute_expectation(matrix: np.ndarray, observable: np.ndarray) -> float:
    """Tr(rho O) by an explicit double loop over entries."""
    total = 0.0 + 0.0j
    n = matrix.shape[0]
    for i in range(n):
        for j in range(n):
            total += matrix[i, j] * observable[j, i]
    return float(total.real)


_PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def brute_horodecki_value(matrix: np.ndarray) -> float:
    """Maximum S of a two-qubit density matrix by the Horodecki criterion.

    T[m, n] = Tr(rho sigma_m (x) sigma_n), each entry by the double loop
    of ``brute_expectation``; the maximum is ``horodecki_maximum`` of T.
    """
    t = np.array(
        [[brute_expectation(matrix, np.kron(sm, sn)) for sn in _PAULIS] for sm in _PAULIS]
    )
    return horodecki_maximum(t)


def gather_index(dims: list[int], order: list[int]) -> np.ndarray:
    """Flat-index map from ascending axis order to the given axis order.

    ``order`` lists axis positions.  Entry f is the flat index, with the
    factors taken in ``order``, of the basis state whose flat index over
    the same factors in ascending order is f; so an operator ``op`` written
    in ``order`` reads ``op[np.ix_(g, g)]`` in the ascending order that
    ``brute_partial_trace`` returns.
    """
    kept = sorted(order)
    order_strides = strides_for([dims[a] for a in order])
    kept_strides = strides_for([dims[a] for a in kept])
    gather = np.empty(int(np.prod([dims[a] for a in kept])), dtype=np.intp)
    for combo in itertools.product(*[range(dims[a]) for a in kept]):
        digit = dict(zip(kept, combo))
        flat = sum(digit[a] * s for a, s in zip(kept, kept_strides))
        gather[flat] = sum(digit[a] * s for a, s in zip(order, order_strides))
    return gather


# Blockwise Pauli triple of a two-qubit wing, basis (|00>, |01>, |10>, |11>):
# each Pauli acts on the block (|01>, |10>) and on the block (|00>, |11>).
_PAIR_PAULIS = (
    np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex),
    np.array(
        [[0, 0, 0, -1j], [0, 0, -1j, 0], [0, 1j, 0, 0], [1j, 0, 0, 0]], dtype=complex
    ),
    np.diag([1, 1, -1, -1]).astype(complex),
)


def brute_wing_moments(
    matrix: np.ndarray,
    dims: list[int],
    alice: list[int],
    bob: list[int],
    alice_ops,
    bob_ops,
) -> np.ndarray:
    """M[m, n] = Tr(rho A_m (x) B_n) for sequences of operators on two wings.

    ``alice`` and ``bob`` hold axis positions, in the order each wing
    lists its factors.  rho is reduced to the wing factors (ascending
    axis order), and each kron(A_m, B_n), built in wing order, is
    gathered into that ascending order by flat-index arithmetic.
    """
    wings = list(alice) + list(bob)
    reduced = brute_partial_trace(matrix, dims, wings)
    gather = gather_index(dims, wings)
    moments = np.empty((len(alice_ops), len(bob_ops)))
    for m, a_op in enumerate(alice_ops):
        for n, b_op in enumerate(bob_ops):
            joint = np.kron(a_op, b_op)[np.ix_(gather, gather)]
            moments[m, n] = brute_expectation(reduced, joint)
    return moments


def brute_correlation_kernel(
    matrix: np.ndarray, dims: list[int], alice: list[int], bob: list[int]
) -> np.ndarray:
    """K: the wing moments over each qubit wing's (blockwise) Pauli triple."""
    triples = {1: _PAULIS, 2: _PAIR_PAULIS}
    return brute_wing_moments(matrix, dims, alice, bob, triples[len(alice)], triples[len(bob)])


def brute_grid_table(kernel: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(directions, table): the ``_sphere_grid`` directions and S over every ordered pair of
    them, repeats included, as |K(b1 + b0)| + |K(b1 - b0)| with K applied to each sum and
    difference of two directions.  Nothing is screened, halved or blocked."""
    from wfsim.chsh import _sphere_grid

    _, _, vectors = _sphere_grid(step)
    plus = (vectors[:, None, :] + vectors[None, :, :]) @ kernel.T
    minus = (vectors[:, None, :] - vectors[None, :, :]) @ kernel.T
    return vectors, np.linalg.norm(plus, axis=-1) + np.linalg.norm(minus, axis=-1)


def brute_grid_pair(kernel: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Bob's (b1, b0) by the tie rule on the full table: the first ordered pair in
    row-major order whose S lies within ``_TIE_EPS`` of the table's maximum."""
    from wfsim.chsh import _TIE_EPS

    vectors, table = brute_grid_table(kernel, step)
    first, second = divmod(int(np.argmax(table >= table.max() - _TIE_EPS)), len(vectors))
    return vectors[first], vectors[second]


def full_table_maximum(kernel: np.ndarray, step: float) -> float:
    """The largest S over the full table of ordered ``_sphere_grid`` pairs."""
    return float(brute_grid_table(kernel, step)[1].max())


def brute_friend_interaction(
    amplitudes: np.ndarray,
    labels: list[str],
    dims: list[int],
    in_label: str,
    prime_label: str,
    friend_label: str,
) -> tuple[list[str], np.ndarray, float]:
    """The heralded map M = 1/2 sum_i |i>_in |1-i>_friend <i|_in <singlet|_(prime, friend).

    Every output amplitude is gathered from the flat input amplitudes by
    stride arithmetic: with <singlet| = (<0 1| - <1 0|)/sqrt2 on (prime,
    friend), out[.., in=i, friend=f, ..] is zero unless f = 1 - i, and
    otherwise (psi[prime=0, friend=1] - psi[prime=1, friend=0]) / (2 sqrt2)
    at the same digits of every other factor.  Returns the output labels
    (the input's without the prime), the raw branch and its squared norm.
    """
    strides = dict(zip(labels, strides_for(list(dims))))
    out_labels = [lbl for lbl in labels if lbl != prime_label]
    out_dims = [d for lbl, d in zip(labels, dims) if lbl != prime_label]
    out = np.zeros(int(np.prod(out_dims)), dtype=complex)
    for flat, digits in enumerate(itertools.product(*[range(d) for d in out_dims])):
        digit = dict(zip(out_labels, digits))
        if digit[friend_label] != 1 - digit[in_label]:
            continue
        base = sum(v * strides[lbl] for lbl, v in digit.items() if lbl != friend_label)
        h_v = amplitudes[base + strides[friend_label]]  # prime 0, friend 1
        v_h = amplitudes[base + strides[prime_label]]  # prime 1, friend 0
        out[flat] = (h_v - v_h) / (2.0 * np.sqrt(2.0))
    return out_labels, out, float(np.sum(np.abs(out) ** 2))


def random_pure(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unitary from the QR decomposition of a complex Ginibre matrix."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q


def random_dichotomic(rng: np.random.Generator, dim: int) -> np.ndarray:
    """U diag(+/-1) U^dag for a random unitary U and random signs."""
    unitary = random_unitary(rng, dim)
    return (unitary * rng.choice((-1.0, 1.0), size=dim)) @ unitary.conj().T


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Ginibre construction: always a valid density matrix."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_dims(rng: np.random.Generator, max_total: int = 64) -> list[int]:
    """A random factorization with product at most ``max_total``."""
    dims = []
    total = 1
    while True:
        d = int(rng.integers(2, 5))
        if total * d > max_total:
            break
        dims.append(d)
        total *= d
        if len(dims) >= 6 or rng.random() < 0.25:
            break
    if not dims:
        dims = [2]
    return dims


def _digits(dims: list[int]) -> list[tuple[int, ...]]:
    """Every flat index's per-factor digits, in flat order (the last factor fastest)."""
    return list(itertools.product(*[range(d) for d in dims]))


def brute_dephased(matrix: np.ndarray, dims: list[int], axes) -> np.ndarray:
    """rho with every entry between basis states that differ on any of ``axes`` zeroed."""
    digits = _digits(dims)
    keep = np.array([[all(row[a] == col[a] for a in axes) for col in digits] for row in digits])
    return np.where(keep, matrix, 0.0)


def brute_full_operator(dims: list[int], alice: list[int], bob: list[int],
                        a_op: np.ndarray, b_op: np.ndarray) -> np.ndarray:
    """A (x) B on the full space, identity elsewhere, entry by entry: <i|A (x) B|j> is
    A's entry at the two indices' digits on ``alice`` (in wing order) times B's on ``bob``,
    and zero unless i and j agree on every other factor."""
    digits = _digits(dims)
    rest = [a for a in range(len(dims)) if a not in alice and a not in bob]

    def flat(digit, axes):
        return sum(digit[a] * s for a, s in zip(axes, strides_for([dims[a] for a in axes])))

    full = np.zeros((len(digits), len(digits)), dtype=complex)
    for i, row in enumerate(digits):
        for j, col in enumerate(digits):
            if all(row[a] == col[a] for a in rest):
                full[i, j] = (a_op[flat(row, alice), flat(col, alice)]
                              * b_op[flat(row, bob), flat(col, bob)])
    return full


def horodecki_maximum(kernel: np.ndarray) -> float:
    """2 sqrt(mu1 + mu2) over the two largest eigenvalues of K^T K."""
    mu = np.sort(np.linalg.eigvalsh(kernel.T @ kernel))[::-1]
    return float(2.0 * np.sqrt(max(0.0, mu[0] + mu[1])))


def _hypothesis_terms(variant: str, p, sites, friends) -> list[tuple[float, tuple]]:
    """(weight, dephased axes) terms of one hypothesis: as the ``CollapseHypothesis``
    docstring states them, with stochastic weights the product over sites of p or 1 - p."""
    if variant == "unitary_only":
        return [(1.0, ())]
    if variant in ("friend_projective", "friend_dephasing"):
        return [(1.0, tuple(friends))]
    if variant == "subjective_collapse":
        return [(1.0, tuple(a for site in sites for a in site))]
    terms = []
    for fired in itertools.product((False, True), repeat=len(sites)):
        weight = float(np.prod([p if f else 1.0 - p for f in fired]))
        terms.append((weight, tuple(a for f, site in zip(fired, sites) if f for a in site)))
    return terms


def _bloch_matrix(theta: float, phi: float, nfactors: int) -> np.ndarray:
    triple = {1: _PAULIS, 2: _PAIR_PAULIS}[nfactors]
    n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    return sum(c * op for c, op in zip(n, triple))


# (Alice, Bob) setting indices in S order, E11, E10, E01, E00, and outcome signs ++, +-, -+, --.
_ORDER = ((1, 1), (1, 0), (0, 1), (0, 0))
_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def brute_comparison(unitary: np.ndarray, dims: list[int], alice: list[int], bob: list[int],
                     witness: tuple, hypotheses, sites=(), friends=(), shots: int = 0,
                     seed: int = 0, grid_step: float | None = None) -> list[dict]:
    """``hypothesis_comparison``'s fields for each (variant, p) in ``hypotheses``, rebuilt
    from the unitary density ``unitary``.  ``alice``, ``bob``, ``friends`` and each site
    hold axis positions; ``witness`` is the settings' ((Alice's angles), (Bob's angles)),
    each ((theta0, phi0), (theta1, phi1)), which must attain the unitary state's s_max.

    A hypothesis's density is its weighted dephasings, each by an index mask.  Correlators
    and the joint distributions are full-space traces of A (x) B; K is
    ``brute_correlation_kernel``'s and s_max ``horodecki_maximum``'s; a grid gap is s_max
    minus S at ``brute_grid_pair``.  With shots, hypothesis k's stream is child k of one
    spawn from ``default_rng(seed)``; it spawns one child per setting pair in S order, and
    each draws its counts from the clipped, renormalized joint distribution."""
    from wfsim.chsh import CONSISTENCY_TOL

    wing_ops = [[_bloch_matrix(t, p, len(wing)) for t, p in angles]
                for wing, angles in zip((alice, bob), witness)]
    eye_a, eye_b = (np.eye(int(np.prod([dims[a] for a in wing]))) for wing in (alice, bob))
    joint = {}
    for i, j in _ORDER:
        a, b = wing_ops[0][i], wing_ops[1][j]
        joint[i, j] = [brute_full_operator(dims, alice, bob, (eye_a + sa * a) / 2.0,
                                           (eye_b + sb * b) / 2.0) for sa, sb in _OUTCOMES]
    streams = np.random.default_rng(seed).spawn(len(hypotheses)) if shots else None

    def exact_values(matrix):
        probabilities = np.array([[brute_expectation(matrix, op) for op in joint[ij]]
                                  for ij in _ORDER])
        correlators = probabilities @ np.array([1.0, -1.0, -1.0, 1.0])
        return probabilities, correlators, correlators @ np.array([1.0, 1.0, 1.0, -1.0])

    _, _, s_data = exact_values(unitary)
    s_top = horodecki_maximum(brute_correlation_kernel(unitary, dims, alice, bob))
    assert abs(s_data - s_top) <= 1e-12, "the witness settings miss the unitary s_max"
    results = []
    for k, (variant, p) in enumerate(hypotheses):
        matrix = sum(w * brute_dephased(unitary, dims, axes)
                     for w, axes in _hypothesis_terms(variant, p, sites, friends))
        probabilities, correlators, s_exact = exact_values(matrix)
        kernel = brute_correlation_kernel(matrix, dims, alice, bob)
        s_max = horodecki_maximum(kernel)
        grid_gap = None
        if grid_step is not None:
            b1, b0 = brute_grid_pair(kernel, grid_step)
            grid_gap = s_max - float(np.linalg.norm(kernel @ (b1 + b0))
                                     + np.linalg.norm(kernel @ (b1 - b0)))
        result = dict(s_value=s_exact, correlators=correlators, exact=True, shots=None,
                      std_error=None, s_max=s_max, grid_gap=grid_gap, exact_s=s_exact,
                      exact_correlators=correlators,
                      consistent_with_data=abs(s_exact - s_data) <= CONSISTENCY_TOL)
        if shots:
            estimates = []
            for child, probs in zip(streams[k].spawn(len(_ORDER)), probabilities):
                clipped = np.maximum(probs, 0.0)
                n = child.multinomial(shots, clipped / clipped.sum())
                estimates.append(float(n[0] - n[1] - n[2] + n[3]) / shots)
            variance = sum(max(0.0, 1.0 - e * e) for e in estimates) / shots
            result.update(s_value=estimates[0] + estimates[1] + estimates[2] - estimates[3],
                          correlators=np.array(estimates), exact=False, shots=shots,
                          std_error=float(np.sqrt(variance)))
        results.append(result)
    return results
