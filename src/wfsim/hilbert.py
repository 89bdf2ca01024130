"""Labeled composite Hilbert spaces and dense linear algebra on them.

Everything in this module is small and concrete: a state or operator is a
plain ``complex128`` numpy array tied to a :class:`CompositeSpace`, which
is just an ordered tuple of named tensor factors.  Every factor used by
the shipped scenarios is two-dimensional (photon polarization or a
spin-1/2 degree of freedom), but nothing below assumes that.

Conventions
-----------
* Factor order is significant and big-endian: the flat basis index runs
  fastest over the *last* factor.  For qubit factors (x, y) the basis
  order is ``|00>, |01>, |10>, |11>`` with the left digit belonging to
  ``x``, so a basis string reads left to right in factor order.
* Basis characters: ``h``, ``u`` and ``0`` mean index 0; ``v``, ``d`` and
  ``1`` mean index 1 (horizontal/vertical polarization, spin up/down).
* ``VALIDITY_TOL`` (1e-10) guards constructor invariants.
  ``ALGEBRA_TOL`` (1e-12) is the headroom claimed for algebraic
  identities at these dimensions.
* Subsystem operations act on the named factors moved to the front
  (``_factors_first``); no operator is lifted to the full space.
  :func:`embed`, which lifts one, stays here as a public reference route:
  the benchmark's tracer (``perfbench/tracing.py``) wraps
  ``wfsim.hilbert.embed`` by that name.

All values are immutable after construction (arrays are marked
read-only), so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidState, LabelCollision, ShapeError, UnknownSubsystem, _whole

VALIDITY_TOL = 1e-10
ALGEBRA_TOL = 1e-12

BASIS_CHARS = {"h": 0, "v": 1, "u": 0, "d": 1, "0": 0, "1": 1}

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_TRIPLE = (_PAULI["x"], _PAULI["y"], _PAULI["z"])


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _require_finite(a: np.ndarray, what: str) -> None:
    """InvalidState if any entry is NaN or infinite (NaN would slip past a ``> tol`` guard)."""
    if not np.isfinite(a).all():
        raise InvalidState(f"{what} has non-finite entries")


def _require_density(rho, user: str) -> None:
    """InvalidState naming the type when ``rho`` is no DensityOperator, before any use of it."""
    if not isinstance(rho, DensityOperator):
        raise InvalidState(f"{user} needs a DensityOperator, got {type(rho).__name__}")


def _square_matrix(matrix: np.ndarray, space: CompositeSpace) -> np.ndarray:
    """A complex copy of ``matrix``, checked to be (d, d) for ``space`` and finite."""
    mat = np.array(matrix, dtype=complex)
    d = space.dim
    if mat.shape != (d, d):
        raise ShapeError(f"matrix has shape {mat.shape}, space {space} needs ({d}, {d})")
    _require_finite(mat, "matrix")
    return mat


@dataclass(frozen=True)
class CompositeSpace:
    """An ordered collection of labeled tensor factors.

    Parameters
    ----------
    factors : tuple of (label, dim) pairs
        Subsystem labels must be unique and dimensions positive.

    ``labels``, ``dims`` and ``dim`` (the product of the dimensions) are
    plain attributes computed at construction.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        factors = tuple((str(lbl), _whole(dim, f"the dimension of factor {lbl!r}"))
                        for lbl, dim in self.factors)
        object.__setattr__(self, "factors", factors)
        if not factors:
            raise ShapeError("a composite space needs at least one factor")
        labels = tuple(lbl for lbl, _ in factors)
        if len(set(labels)) != len(labels):
            dupes = sorted({l for l in labels if labels.count(l) > 1})
            raise LabelCollision(f"duplicate factor labels: {dupes}")
        for lbl, dim in factors:
            if dim < 1:
                raise ShapeError(f"factor {lbl!r} has non-positive dimension {dim}")
        # Derived once; not fields, so equality and hashing see only ``factors``.
        dims = tuple(dim for _, dim in factors)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "dim", math.prod(dims))
        object.__setattr__(self, "_axis_of", {lbl: a for a, lbl in enumerate(labels)})

    @classmethod
    def qubits(cls, *labels: str) -> "CompositeSpace":
        """Space of two-dimensional factors with the given labels."""
        return cls(tuple((lbl, 2) for lbl in labels))

    @property
    def nfactors(self) -> int:
        return len(self.factors)

    def axis(self, label: str) -> int:
        """Position of the factor with this label, raising UnknownSubsystem."""
        try:
            return self._axis_of[label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise UnknownSubsystem(
                f"no factor labeled {label!r} in {self.labels}"
            ) from None

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]

    def axes(self, labels: Sequence[str]) -> tuple[int, ...]:
        """Positions of the labeled factors, the one label rule: a string is one label."""
        try:
            labels = (labels,) if isinstance(labels, str) else tuple(labels)
        except TypeError:
            raise UnknownSubsystem(f"{labels!r} names no factor of {self.labels}") from None
        found = tuple(self.axis(l) for l in labels)
        if len(set(found)) != len(found):
            raise ShapeError(f"repeated labels in {labels}")
        return found

    def subspace(self, labels: Sequence[str]) -> "CompositeSpace":
        """Sub-collection of factors in the *requested* order."""
        return CompositeSpace(tuple(self.factors[a] for a in self.axes(labels)))

    def basis_index(self, which: Union[str, Sequence[int]]) -> int:
        """Flat basis index for a per-factor assignment.

        ``which`` is either a string with one character per factor (see
        ``BASIS_CHARS``; plain digits also work) or a sequence of whole-number
        indices, ordered like the factors.
        """
        if isinstance(which, str):
            if len(which) != self.nfactors:
                raise ShapeError(
                    f"basis string {which!r} has {len(which)} characters, "
                    f"space has {self.nfactors} factors"
                )
            digits = []
            for ch in which:
                if ch in BASIS_CHARS:
                    digits.append(BASIS_CHARS[ch])
                elif ch.isdecimal():
                    digits.append(int(ch))
                else:
                    raise ShapeError(f"unknown basis character {ch!r}")
        else:
            digits = [_whole(i, "a basis index") for i in which]
            if len(digits) != self.nfactors:
                raise ShapeError(
                    f"assignment has {len(digits)} entries, space has "
                    f"{self.nfactors} factors"
                )
        index = 0
        for digit, dim in zip(digits, self.dims):
            if not 0 <= digit < dim:
                raise ShapeError(f"basis index {digit} out of range for dim {dim}")
            index = index * dim + digit
        return index

    def __str__(self) -> str:
        return "(" + ", ".join(self.labels) + ")"


@dataclass(frozen=True)
class PureState:
    """A state vector over a :class:`CompositeSpace`.

    States are normalized by default; a sub-normalized vector (for example
    the surviving branch of a heralding projection, before renormalizing)
    must be constructed with ``normalized=False`` and then carries its
    squared norm, taken once by the validation, as :attr:`squared_norm`.
    """

    space: CompositeSpace
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self) -> None:
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.shape != (self.space.dim,):
            raise ShapeError(
                f"amplitude vector has length {amps.size}, space {self.space} "
                f"has dimension {self.space.dim}"
            )
        nrm2 = float(np.vdot(amps, amps).real)
        if not math.isfinite(nrm2):  # a NaN or inf entry makes it so; finite entries may overflow
            _require_finite(amps, "amplitude vector")
        object.__setattr__(self, "amplitudes", _freeze(amps))
        object.__setattr__(self, "squared_norm", nrm2)  # not a field, as in CompositeSpace
        if self.normalized and abs(nrm2 - 1.0) > VALIDITY_TOL:
            raise InvalidState(
                f"squared norm {nrm2!r} differs from 1 beyond {VALIDITY_TOL}; "
                "pass normalized=False for a sub-normalized state"
            )

    @classmethod
    def basis(cls, space: CompositeSpace, which: Union[str, Sequence[int]]) -> "PureState":
        """Computational basis vector |which>."""
        amps = np.zeros(space.dim, dtype=complex)
        amps[space.basis_index(which)] = 1.0
        return cls(space, amps)

    @classmethod
    def from_mapping(cls, space: CompositeSpace, entries: dict,
                     normalized: bool = True) -> "PureState":
        """State with the given {basis string: amplitude} entries; two keys that name the
        same basis state ("h" and "0", say) raise ShapeError."""
        amps = np.zeros(space.dim, dtype=complex)
        keys: dict[int, str] = {}  # basis index -> the key that named it
        for which, value in entries.items():
            index = space.basis_index(which)
            if keys.setdefault(index, which) != which:
                raise ShapeError(f"keys {keys[index]!r} and {which!r} name the same basis state")
            amps[index] = value
        return cls(space, amps, normalized=normalized)

    def amplitude(self, which: Union[str, Sequence[int]]) -> complex:
        return complex(self.amplitudes[self.space.basis_index(which)])

    def normalize(self) -> "PureState":
        """Unit-norm copy. Raises InvalidState on a numerically null vector."""
        if self.squared_norm <= ALGEBRA_TOL:
            raise InvalidState("cannot normalize a numerically null vector")
        return PureState(self.space, self.amplitudes / math.sqrt(self.squared_norm))

    def density(self) -> "DensityOperator":
        """The projector |psi><psi| as a DensityOperator.

        Only defined for normalized states; call :meth:`normalize` first
        on a sub-normalized branch.
        """
        if not self.normalized:
            raise InvalidState(
                "density() requires a normalized state; call normalize() first"
            )
        return DensityOperator(
            self.space, np.outer(self.amplitudes, self.amplitudes.conj())
        )

    def reorder(self, labels: Sequence[str]) -> "PureState":
        """The same state with factors permuted into the given label order."""
        sub = self.space.subspace(labels)
        if sub.nfactors != self.space.nfactors:
            raise ShapeError(
                f"reorder needs a permutation of {self.space.labels}, got {sub.labels}"
            )
        return PureState(sub, _factors_first(self, sub.factors)[0].reshape(-1), self.normalized)


def _density_residuals(matrix: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity residual, trace residual, min eigenvalue) of a square matrix.

    The eigenvalue is taken from the hermitized part (M + M*)/2, so the
    diagnostic stays meaningful for slightly (or badly) non-hermitian input.
    """
    herm = float(np.max(np.abs(matrix - matrix.conj().T)))
    trace = float(abs(np.trace(matrix) - 1.0))
    hermitized = (matrix + matrix.conj().T) / 2.0
    mineig = float(np.linalg.eigvalsh(hermitized)[0])
    return herm, trace, mineig


@dataclass(frozen=True)
class DensityOperator:
    """A hermitian, unit-trace, positive-semidefinite matrix over a space.

    Construction validates all three invariants within ``VALIDITY_TOL``
    (positivity allows eigenvalues down to -VALIDITY_TOL for roundoff).
    """

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _square_matrix(self.matrix, self.space)
        herm, trace, mineig = _density_residuals(mat)
        if herm > VALIDITY_TOL:
            raise InvalidState(f"hermiticity residual {herm:.3e} exceeds {VALIDITY_TOL}")
        if trace > VALIDITY_TOL:
            raise InvalidState(f"trace residual {trace:.3e} exceeds {VALIDITY_TOL}")
        if mineig < -VALIDITY_TOL:
            raise InvalidState(f"minimum eigenvalue {mineig:.3e} below -{VALIDITY_TOL}")
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def mixture(cls, weighted: Iterable[tuple[float, "DensityOperator"]]) -> "DensityOperator":
        """Convex mixture sum(w_k rho_k); weights must be a distribution."""
        weighted = list(weighted)
        if not weighted:
            raise ShapeError("mixture of nothing")
        for _, rho in weighted:
            _require_density(rho, "a mixture")
        space = weighted[0][1].space
        total = 0.0
        mat = np.zeros((space.dim, space.dim), dtype=complex)
        for w, rho in weighted:
            if rho.space.labels != space.labels:
                raise ShapeError("mixture components live on different spaces")
            if w < -ALGEBRA_TOL:
                raise InvalidState(f"negative mixture weight {w}")
            mat += w * rho.matrix
            total += w
        if not abs(total - 1.0) <= VALIDITY_TOL:
            raise InvalidState(f"mixture weights sum to {total!r}, not 1")
        return cls(space, mat)

    def diagonal(self) -> np.ndarray:
        """Real diagonal (the computational-basis probabilities)."""
        return _freeze(self.matrix.diagonal().real.copy())


@dataclass(frozen=True)
class DichotomicObservable:
    """A hermitian observable with eigenvalues in {+1, -1}.

    Equivalently: the matrix squares to the identity (within
    ``VALIDITY_TOL``), so ``(I + O)/2`` and ``(I - O)/2`` are the
    projectors onto the +1 and -1 eigenspaces.  Outcome order throughout
    the package is (+1, -1).
    """

    space: CompositeSpace
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _square_matrix(self.matrix, self.space)
        herm = float(np.max(np.abs(mat - mat.conj().T)))
        if herm > VALIDITY_TOL:
            raise InvalidState(f"hermiticity residual {herm:.3e} exceeds {VALIDITY_TOL}")
        square = float(np.max(np.abs(mat @ mat - np.eye(self.space.dim))))
        if square > VALIDITY_TOL:
            raise InvalidState(
                f"observable does not square to identity (residual {square:.3e})"
            )
        object.__setattr__(self, "matrix", _freeze(mat))

    @classmethod
    def pauli(cls, axis: str, label: str) -> "DichotomicObservable":
        """Single-qubit Pauli observable on a factor with the given label."""
        if axis not in _PAULI:
            raise ShapeError(f"unknown Pauli axis {axis!r}")
        return cls(CompositeSpace.qubits(label), _PAULI[axis].copy())

    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Projectors onto the (+1, -1) eigenspaces, in that order."""
        eye = np.eye(self.space.dim)
        return (
            _freeze((eye + self.matrix) / 2.0),
            _freeze((eye - self.matrix) / 2.0),
        )

    @cached_property
    def measurement(self):
        """Its (+1, -1) ``ProjectiveMeasurement``, built and Gram-checked on first use."""
        from .measurement import ProjectiveMeasurement  # measurement imports this module
        return ProjectiveMeasurement.of_observable(self)


@dataclass(frozen=True)
class ValidityReport:
    """Diagnostics from :func:`validate`; residuals against VALIDITY_TOL."""

    hermiticity_residual: float
    trace_residual: float
    min_eigenvalue: float
    tolerance: float
    hermitian_ok: bool
    trace_ok: bool
    psd_ok: bool

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.psd_ok


def bloch_vector(theta: float, phi: float) -> np.ndarray:
    """Unit vector (sin t cos p, sin t sin p, cos t)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def _bloch_operator(theta: float, phi: float, triple: Sequence[np.ndarray]) -> np.ndarray:
    """n(theta, phi) . triple; for the Pauli triple that is n.sigma."""
    n = bloch_vector(theta, phi)
    return n[0] * triple[0] + n[1] * triple[1] + n[2] * triple[2]


def tensor(*states: PureState) -> PureState:
    """Kronecker product of pure states; factors concatenate in argument order.

    A factor label shared by two arguments raises the result space's LabelCollision.
    The result is flagged normalized only when every input is.
    """
    if len(states) == 1 and isinstance(states[0], (list, tuple)):
        states = tuple(states[0])
    if not states:
        raise ShapeError("tensor of nothing")
    space = CompositeSpace(tuple(f for st in states for f in st.space.factors))
    amps = reduce(np.kron, (st.amplitudes for st in states))
    return PureState(space, amps, normalized=all(st.normalized for st in states))


def _front_order(space: CompositeSpace, factors: Sequence[tuple[str, int]]) -> tuple[int, ...]:
    """Axis permutation putting the (label, dim) ``factors`` first, in their order.

    The remaining factors follow in their original order.  A factor whose
    dimension in ``factors`` differs from the one in ``space`` raises ShapeError.
    This is the one place that builds axis permutations and checks factor dimensions.
    """
    front = space.axes([lbl for lbl, _ in factors])
    for (lbl, dim), a in zip(factors, front):
        if space.dims[a] != dim:
            raise ShapeError(f"factor {lbl!r} has dim {dim} in the operator but "
                             f"{space.dims[a]} in the target space")
    return front + tuple(a for a in range(space.nfactors) if a not in front)


def _factors_first(
    state: Union[PureState, DensityOperator], factors: Sequence[tuple[str, int]]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The state with the (label, dim) ``factors`` moved to the front, and the permutation
    that did it (from ``_front_order``; ``_factors_back`` undoes it).  A PureState gives the
    (d_sub, d_rest) matrix M[i, r] = <i r|psi>; a DensityOperator gives the
    (d_sub, d_rest, d_sub, d_rest) tensor <i r|rho|j s>.  Every subsystem operation
    (reordering, partial trace, expectation, the Born rule and collapse in ``measurement``)
    goes through this one primitive and acts on what it yields; a collapse takes its
    branch back with the one permutation returned here."""
    space = state.space
    perm = _front_order(space, factors)
    d_sub = math.prod(dim for _, dim in factors)
    shape = (d_sub, space.dim // d_sub)
    if isinstance(state, PureState):
        return state.amplitudes.reshape(space.dims).transpose(perm).reshape(shape), perm
    both = perm + tuple(space.nfactors + a for a in perm)
    return state.matrix.reshape(space.dims * 2).transpose(both).reshape(shape * 2), perm


def _factors_back(front: np.ndarray, space: CompositeSpace, perm: tuple[int, ...]) -> np.ndarray:
    """Flat ``space`` amplitudes from ``front`` in ``perm`` order; undoes ``_factors_first``."""
    tens = front.reshape(tuple(space.dims[a] for a in perm))
    return tens.transpose(_inverse(perm)).reshape(-1)


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    """The axis permutation that undoes ``perm`` (argsort, without numpy for a few axes)."""
    return tuple(sorted(range(len(perm)), key=perm.__getitem__))


def _reduced_matrix(
    state: Union[PureState, DensityOperator], factors: Sequence[tuple[str, int]]
) -> np.ndarray:
    """The state reduced to the (label, dim) ``factors``, as a matrix in their order.

    M M^dag for a pure state, the trace over the rest index for a density.
    A sub-normalized PureState raises InvalidState.
    """
    front, _ = _factors_first(state, factors)
    if isinstance(state, DensityOperator):
        return np.trace(front, axis1=1, axis2=3)
    if not state.normalized:
        raise InvalidState("a sub-normalized state has no reduced state; normalize() it first")
    return front @ front.conj().T


def partial_trace(
    rho: Union[DensityOperator, PureState], keep: Sequence[str]
) -> DensityOperator:
    """Trace out every factor not listed in ``keep``.

    The state is reduced to the kept factors in their *original* relative
    order (regardless of the order they are listed in ``keep``), per the
    big-endian indexing convention, and the result is validated as a
    DensityOperator.  Accepts a normalized PureState too.
    """
    sub = CompositeSpace(tuple(rho.space.factors[a] for a in sorted(rho.space.axes(keep))))
    return DensityOperator(sub, _reduced_matrix(rho, sub.factors))


def purity(rho: DensityOperator) -> float:
    """Tr(rho^2). Equals 1 exactly when rho is a pure projector.

    Uses the hermitian identity Tr(rho^2) = sum |rho_ij|^2.
    """
    _require_density(rho, "purity")
    return float(np.vdot(rho.matrix, rho.matrix).real)


def _differs_on(space: CompositeSpace, labels: Sequence[str]) -> np.ndarray:
    """Mask of (row, column) basis pairs whose digits differ on any named factor."""
    grid = np.unravel_index(np.arange(space.dim), space.dims)
    differs = np.zeros((space.dim, space.dim), dtype=bool)
    for ax in space.axes(labels):
        differs |= grid[ax][:, None] != grid[ax][None, :]
    return differs


def coherence_norm(
    rho: DensityOperator, basis_labels: Sequence[str] | None = None
) -> float:
    """Sum of |entries| between basis states that differ on the given factors.

    With ``basis_labels=None`` every factor counts, so the value is the
    plain sum of absolute off-diagonal entries in the computational
    product basis, and it vanishes exactly when rho is diagonal there.
    Restricting to a subset measures only the coherences the subset's
    basis can see, which is the quantity a dephasing on those factors
    sends to zero.
    """
    if basis_labels is None:
        basis_labels = rho.space.labels
    return float(np.abs(rho.matrix[_differs_on(rho.space, basis_labels)]).sum())


def embed(
    matrix: np.ndarray, sub: CompositeSpace, space: CompositeSpace
) -> np.ndarray:
    """Extend an operator on ``sub`` to ``space`` with identity elsewhere.

    ``sub``'s labels must all exist in ``space`` with matching dimensions;
    the embedding respects ``space``'s factor order.
    """
    perm = _front_order(space, sub.factors)
    full = np.kron(matrix, np.eye(space.dim // sub.dim))
    back = _inverse(perm)
    front_dims = tuple(space.dims[a] for a in perm)
    tens = full.reshape(front_dims * 2).transpose(back + tuple(space.nfactors + a for a in back))
    return tens.reshape(space.dim, space.dim)


def expectation(state: Union[PureState, DensityOperator], obs: DichotomicObservable) -> float:
    """<O> for an observable on its own labeled factors (identity elsewhere).

    Pure or mixed, the value is Tr(O rho_sub) on the reduced state from
    ``_reduced_matrix``, so a sub-normalized PureState raises
    InvalidState.  For a dichotomic observable the result lies in
    [-1, 1] up to tolerance.
    """
    value = np.einsum("ij,ji->", _reduced_matrix(state, obs.space.factors), obs.matrix)
    return float(value.real)


def validate(rho: Union[DensityOperator, np.ndarray]) -> ValidityReport:
    """Validity diagnostics for a density operator or a raw square matrix.

    Never raises for bad numbers; that is the point: it reports the
    hermiticity residual, trace residual, and minimum eigenvalue, with
    per-check flags against ``VALIDITY_TOL``.
    """
    matrix = rho.matrix if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"validate needs a square matrix, got shape {matrix.shape}")
    herm, trace, mineig = _density_residuals(matrix)
    return ValidityReport(
        hermiticity_residual=herm,
        trace_residual=trace,
        min_eigenvalue=mineig,
        tolerance=VALIDITY_TOL,
        hermitian_ok=herm <= VALIDITY_TOL,
        trace_ok=trace <= VALIDITY_TOL,
        psd_ok=mineig >= -VALIDITY_TOL,
    )
