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
    of ``brute_expectation``; the maximum is 2 sqrt(mu1 + mu2) over the
    two largest eigenvalues of T^T T.
    """
    t = np.array(
        [[brute_expectation(matrix, np.kron(sm, sn)) for sn in _PAULIS] for sm in _PAULIS]
    )
    mu = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return float(2.0 * np.sqrt(max(0.0, mu[0] + mu[1])))


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
