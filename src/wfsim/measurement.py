"""Measurement formalism: pointer coupling, mixtures, dephasing, Born rule.

The two ways this package renders "an outcome happened" are kept strictly
apart:

* :func:`dephase` produces the proper-mixture description (an outcome
  occurred but is unknown): coherences between the targeted factors'
  basis states are erased, diagonals untouched.
* :func:`projective_collapse` realizes one outcome: it samples from the
  Born distribution with a caller-owned seeded generator and returns the
  renormalized projected state.

:func:`born_probabilities` and :func:`projective_collapse` take the thing measured
as one argument, ``basis``, classified by one rule (:func:`_resolved`): measured
labels (one string, or a tuple or list of them), a DichotomicObservable or a
:class:`ProjectiveMeasurement`, the read-only unitary frame W = [V_1 ... V_k],
P_i = V_i V_i^dag, validated once by one Gram check W^dag W = I.  Born sums block
i of diag(W^dag rho W) and collapse keeps V_i V_i^dag M.  An observable builds and
checks its frame once and holds it.  Labels build neither a frame nor a space:
their basis is W = I, so Born reads the diagonal of the reduced state and collapse
keeps one row of M.  Each one-shot outcome or branch is one :func:`_draw` from a
Born distribution.

Randomness everywhere in the package comes from ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``).  A run owns its generator; when
work is split, child streams are derived with ``Generator.spawn`` in a
documented fixed order, so results are reproducible for a given master
seed.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import (InvalidState, InvariantViolation, PointerNotReady, ShapeError,
                     _check_generator, _whole)
from .hilbert import (
    ALGEBRA_TOL,
    VALIDITY_TOL,
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    PureState,
    _differs_on,
    _factors_back,
    _factors_first,
    _freeze,
    _reduced_matrix,
    _require_density,
    _require_finite,
    partial_trace,
    tensor,
)


@dataclass(frozen=True)
class PointerCoupling:
    """Unitary copy interaction between a system factor and a pointer factor.

    The coupling sends system basis state ``i`` (with the pointer in its
    ready state) to pointer basis state ``copy_basis[i]``.  The copy map
    must be injective so the restriction to the ready sector is an
    isometry.
    """

    system_label: str
    pointer_label: str
    copy_basis: tuple[int, ...] = (0, 1)
    pointer_ready_index: int = 0

    def __post_init__(self) -> None:
        ready = _whole(self.pointer_ready_index, "the pointer's ready index")
        vars(self).update(copy_basis=tuple(_whole(i, "a copy map index") for i in self.copy_basis),
                          pointer_ready_index=ready)
        if len(set(self.copy_basis)) != len(self.copy_basis):
            raise InvalidState(
                f"copy map {self.copy_basis} is not injective; distinct system "
                "states must drive the pointer to distinct states"
            )
        if any(i < 0 for i in self.copy_basis) or self.pointer_ready_index < 0:
            raise InvalidState("pointer basis indices must be non-negative")
        if self.system_label == self.pointer_label:
            raise ShapeError("system and pointer need distinct labels")


def couple_pointer(psi: PureState, coupling: PointerCoupling) -> PureState:
    """Correlate the pointer with the system basis: c_i |s_i, ready> -> c_i |s_i, p_i>.

    If the pointer factor is absent it is appended in its ready state as a
    new last factor of the same dimension as the system factor.  Every
    populated amplitude must have the pointer in its ready state,
    otherwise PointerNotReady is raised.  Norm is preserved exactly; the
    map is unitary on the coupled sector.
    """
    space = psi.space
    sdim = space.dim_of(coupling.system_label)
    present = coupling.pointer_label in space.labels
    pdim = space.dim_of(coupling.pointer_label) if present else sdim
    ready = coupling.pointer_ready_index
    if max(coupling.copy_basis) >= pdim or ready >= pdim:
        raise ShapeError(
            f"copy map {coupling.copy_basis} (ready {ready}) does not fit pointer dimension {pdim}"
        )
    if len(coupling.copy_basis) != sdim:
        n = len(coupling.copy_basis)
        raise ShapeError(f"copy map covers {n} system states, system factor has {sdim}")
    if not present:
        pointer = CompositeSpace(((coupling.pointer_label, sdim),))
        psi = tensor(psi, PureState.basis(pointer, (ready,)))

    pair = ((coupling.system_label, sdim), (coupling.pointer_label, pdim))
    front, perm = _factors_first(psi, pair)
    front = front.reshape(sdim, pdim, -1)  # (system, pointer, rest)
    stray = np.delete(front, ready, axis=1)
    if stray.size and float(np.max(np.abs(stray))) > ALGEBRA_TOL:
        raise PointerNotReady(
            f"pointer {coupling.pointer_label!r} is not in its ready state (index {ready})"
        )
    out = np.zeros_like(front)
    out[np.arange(sdim), coupling.copy_basis] = front[:, ready]
    return PureState(psi.space, _factors_back(out, psi.space, perm), normalized=psi.normalized)


def improper_mixture(psi: PureState, keep: Sequence[str]) -> DensityOperator:
    """Reduced density operator of a pure composite state.

    The name is the point: the result is diagnostically a mixture, but it
    arises from entanglement, not from ignorance of a definite outcome.
    """
    return partial_trace(psi, keep)


def dephase(rho: DensityOperator, on: Sequence[str]) -> DensityOperator:
    """Zero every matrix element between differing basis states of ``on``.

    Idempotent and trace-preserving; diagonal entries are untouched.  The
    result is the proper-mixture description in which the targeted
    factors have a definite but unknown basis value.
    """
    _require_density(rho, "dephase")
    if not on:
        raise ShapeError("dephase needs at least one target factor")
    return DensityOperator(rho.space, np.where(_differs_on(rho.space, on), 0.0, rho.matrix))


@dataclass(frozen=True, init=False)
class ProjectiveMeasurement:
    """A complete set of orthogonal projectors on ``space``, a sub-collection of factors.

    ``frame`` is the read-only unitary W = [V_1 ... V_k], P_i = V_i V_i^dag; row i of
    the read-only (k, d) boolean ``blocks`` marks the columns of V_i, so its row sums
    are the block sizes.  Outcome names are for reporting only.
    """

    space: CompositeSpace
    frame: np.ndarray
    blocks: np.ndarray
    outcomes: tuple[str, ...]

    def __init__(self, space: CompositeSpace, projectors: Sequence, outcomes: Sequence) -> None:
        """From any sequence of d x d projectors; V_i: the eigenvectors of P_i above 1/2."""
        projs = [np.asarray(p, dtype=complex) for p in projectors]
        d = space.dim
        if not projs:
            raise ShapeError("a measurement needs at least one projector")
        if len(outcomes) != len(projs):
            raise ShapeError("one outcome name per projector")
        for k, p in enumerate(projs):
            if p.shape != (d, d):
                raise ShapeError(f"projector {k} has shape {p.shape}, needs ({d}, {d})")
        stack = np.array(projs)
        _require_finite(stack, "projector stack")
        for what, residual in (
            ("hermitian", stack - stack.conj().swapaxes(1, 2)),
            ("idempotent", stack @ stack - stack),
        ):
            bad = np.flatnonzero(np.abs(residual).max(axis=(1, 2)) > VALIDITY_TOL)
            if bad.size:
                raise InvalidState(f"projector {bad[0]} is not {what}")
        if np.abs(stack.sum(axis=0) - np.eye(d)).max() > VALIDITY_TOL:
            raise InvalidState("projectors do not sum to identity")
        values, vectors = np.linalg.eigh(stack)
        kept = values > 0.5
        self._set_frame(space, vectors.transpose(1, 0, 2)[:, kept], kept.sum(axis=1), outcomes)

    def _set_frame(self, space, frame, sizes, outcomes) -> ProjectiveMeasurement:
        """Store the frame after the Gram check: each block of W^dag W - I has Frobenius
        norm at most VALIDITY_TOL, which bounds every entry of P_i P_j and P_i^2 - P_i."""
        blocks = np.repeat(np.eye(len(sizes), dtype=bool), sizes, axis=1)
        gram = np.abs(frame.conj().T @ frame - np.eye(space.dim)) ** 2
        bad = blocks @ gram @ blocks.T > VALIDITY_TOL**2
        if bad.any():
            i, j = sorted(np.argwhere(bad)[0])
            raise InvalidState(
                f"projectors {i} and {j} are not orthogonal" if i < j
                else f"projector {i} is not idempotent"
            )
        vars(self).update(space=space, frame=_freeze(frame), blocks=_freeze(blocks))
        vars(self)["outcomes"] = tuple(map(str, outcomes))
        return self

    @property
    def projectors(self) -> np.ndarray:
        """The read-only complex (k, d, d) stack of V_i V_i^dag, derived on each access."""
        return _freeze(np.einsum("kc,ic,jc->kij", self.blocks, self.frame, self.frame.conj()))

    @classmethod
    def computational(cls, space: CompositeSpace) -> "ProjectiveMeasurement":
        """Rank-1 projectors onto every computational basis state, named by their digits: W = I."""
        names = map("".join, itertools.product(*(map(str, range(d)) for d in space.dims)))
        frame = np.eye(space.dim, dtype=complex)
        return object.__new__(cls)._set_frame(space, frame, [1] * space.dim, names)

    @classmethod
    def of_observable(cls, obs: DichotomicObservable) -> "ProjectiveMeasurement":
        """Two-outcome measurement of an observable: W is its eigenbasis, +1 block first."""
        values, vectors = np.linalg.eigh(obs.matrix)
        sizes = (plus := int(np.count_nonzero(values > 0)), values.size - plus)
        return object.__new__(cls)._set_frame(obs.space, vectors[:, ::-1], sizes, ("+1", "-1"))

    @classmethod
    def binary(cls, space, projector, outcomes=("hit", "miss")) -> ProjectiveMeasurement:
        """{P, I - P} for a single projector P."""
        return cls(space, (projector, np.eye(space.dim) - projector), outcomes)


MeasurementLike = Union[ProjectiveMeasurement, DichotomicObservable, str, Sequence[str]]


def _resolved(space: CompositeSpace, basis: MeasurementLike) -> tuple:
    """The frame and measured (label, dim) pairs of a Born or collapse ``basis``: a measurement,
    or an observable holding one, gives its own; labels (one string, a tuple or a list) give
    None, their basis being W = I, and pairs off ``space``; anything else raises ShapeError."""
    meas = basis.measurement if isinstance(basis, DichotomicObservable) else basis
    if isinstance(meas, ProjectiveMeasurement):
        return meas, meas.space.factors
    if not isinstance(basis, (str, tuple, list)):
        raise ShapeError(f"give either measured labels or an explicit basis; a "
                         f"{type(basis).__name__} is no labels, measurement or observable")
    axes = space.axes(basis)
    if not axes:
        raise ShapeError("give either measured labels or an explicit basis")
    return None, tuple(space.factors[a] for a in axes)


def born_probabilities(state: Union[PureState, DensityOperator],
                       basis: MeasurementLike) -> np.ndarray:
    """Born-rule outcome distribution for a measurement on a state.

    ``basis`` is what ``projective_collapse`` takes: factor labels (the
    computational basis of those factors, indexed big-endian in the order
    given), a DichotomicObservable (outcomes ordered +1, -1), or an explicit
    ProjectiveMeasurement.  Entries are clipped at zero and renormalized;
    a total deviating from 1 beyond tolerance raises InvariantViolation.
    """
    meas, factors = _resolved(state.space, basis)
    return _born(meas, _reduced_matrix(state, factors))


def _born(meas: ProjectiveMeasurement | None, rho_sub: np.ndarray) -> np.ndarray:
    """The Born distribution of ``meas`` on the reduced matrix in ``meas.space``'s order;
    for labels (``meas`` None, W = I) it is the real diagonal of the reduced matrix."""
    if meas is None:
        return _clipped_distribution(np.diagonal(rho_sub).real)
    diagonal = np.sum(meas.frame.conj() * (rho_sub @ meas.frame), axis=0).real
    return _clipped_distribution(meas.blocks @ diagonal)


def _clipped_distribution(probs: np.ndarray) -> np.ndarray:
    """Clip at zero and renormalize; a total off 1 beyond VALIDITY_TOL (or NaN) raises."""
    probs = np.maximum(probs, 0.0)
    total = float(probs.sum())
    if not abs(total - 1.0) <= VALIDITY_TOL:
        raise InvariantViolation(f"Born probabilities sum to {total!r}, not 1")
    return _freeze(probs / total)


def _draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """The first outcome whose cumulative probability exceeds one uniform from ``rng``."""
    _check_generator(rng, "a Born draw")
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def projective_collapse(
    state: PureState, basis: MeasurementLike, rng: np.random.Generator | None = None
) -> tuple[int, PureState]:
    """Sample one outcome by the Born rule and project.

    ``basis`` is what ``born_probabilities`` takes: measured labels for a
    computational-basis collapse, a DichotomicObservable or an explicit
    ProjectiveMeasurement; anything else raises ShapeError before a draw.
    Returns the outcome index and the renormalized post-measurement state.
    ``rng`` must be a numpy Generator; one ``rng.random()`` against the
    cumulative Born distribution, divided by its last entry, picks the
    outcome.  That is ``Generator.choice``'s own algorithm, so a seed gives
    ``rng.choice(k, p=probs)``'s outcome and leaves the same state; a
    zero-probability outcome is never returned.  A DensityOperator raises
    InvalidState: its distribution is ``born_probabilities``.
    """
    if not isinstance(state, PureState):
        raise InvalidState(f"projective_collapse needs a PureState, got {type(state).__name__}; "
                           "use born_probabilities or dephase for a mixed state")
    _check_generator(rng, "projective_collapse")
    meas, factors = _resolved(state.space, basis)
    front, perm = _factors_first(state, factors)
    if not state.normalized:
        raise InvalidState("a sub-normalized state has no reduced state; normalize() it first")
    outcome = _draw(_born(meas, front @ front.conj().T), rng)
    if meas is None:  # V_k V_k^dag M keeps row k of M
        branch = np.zeros(front.shape, dtype=complex)
        branch[outcome] = front[outcome]
    else:
        block = meas.frame[:, meas.blocks[outcome]]
        branch = block @ (block.conj().T @ front)
    nrm2 = float(np.vdot(branch, branch).real)
    amplitudes = _factors_back(branch, state.space, perm) / math.sqrt(nrm2)
    return outcome, PureState(state.space, amplitudes)


_HYPOTHESIS_VARIANTS = (
    "unitary_only", "friend_projective", "friend_dephasing",
    "subjective_collapse", "stochastic_collapse",
)

_STOCHASTIC_RE = re.compile(r"^stochastic_collapse\(\s*(?:p\s*=\s*)?([0-9.eE+-]+)\s*\)$")


@dataclass(frozen=True)
class CollapseHypothesis:
    """Which story is told about the friend interactions.

    Each is a distribution over sets of dephased factors of the unitary state:
    :func:`_ensemble_terms` is the one rule for its terms, and the exact ensemble is the
    weighted mixture of those dephasings (held by :class:`~wfsim.scenarios.HeldScenario`):

    * ``unitary_only``, {none: 1}: nothing but unitary evolution ever happens.
    * ``friend_projective``, {friends: 1}: each friend's outcome is physically
      realized (projective collapse at the interaction); per run it differs from
      friend_dephasing, on average it does not.
    * ``friend_dephasing``, {friends: 1}: each friend's factor is dephased, the
      proper mixture with a definite-but-unknown outcome.
    * ``subjective_collapse``, {all sites: 1}: the friend has an outcome relative to
      itself; rendered as branch sampling whose ensemble is a dephasing.
    * ``stochastic_collapse``, the product over sites of {none: 1 - p, site: p}:
      collapse fires independently at each interaction event with probability p;
      p=0 is unitary_only and p=1 is subjective_collapse.  On the four-photon state
      p=1 also equals friend_projective, but only because each friend anti-copies
      its photon, so dephasing the friends dephases the photons too.
    """

    variant: str
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in _HYPOTHESIS_VARIANTS:
            known = ", ".join(_HYPOTHESIS_VARIANTS)
            raise InvalidState(f"unknown hypothesis {self.variant!r}; known: {known}")
        if self.variant == "stochastic_collapse":
            p = self.probability
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise InvalidState("stochastic_collapse needs a collapse probability in [0, 1]")
            object.__setattr__(self, "probability", float(p))
        elif self.probability is not None:
            raise InvalidState(f"{self.variant} does not take a probability")

    @classmethod
    def stochastic(cls, p: float) -> "CollapseHypothesis":
        return cls("stochastic_collapse", p)

    @classmethod
    def parse(cls, text: "CollapseHypothesis | str") -> "CollapseHypothesis":
        """Parse 'unitary_only', ..., or 'stochastic_collapse(0.3)'; a CollapseHypothesis passes,
        and anything else, a probability that is no number included, raises InvalidState."""
        if isinstance(text, CollapseHypothesis):
            return text
        if not isinstance(text, str):
            raise InvalidState(
                f"a hypothesis is a name or a CollapseHypothesis, not {type(text).__name__}")
        m = _STOCHASTIC_RE.match(text.strip())
        if not m:
            return cls(text.strip())
        try:
            p = float(m.group(1))
        except ValueError:
            raise InvalidState(f"no collapse probability in {text!r}") from None
        return cls.stochastic(p)

    @property
    def name(self) -> str:
        """The variant; p is printed with ``:g`` where that parses back to p, else with repr."""
        if self.variant != "stochastic_collapse":
            return self.variant
        p, short = self.probability, f"{self.probability:g}"
        return f"stochastic_collapse({short if float(short) == p else repr(p)})"

    def __str__(self) -> str:
        return self.name


UNITARY_ONLY = CollapseHypothesis("unitary_only")
FRIEND_PROJECTIVE = CollapseHypothesis("friend_projective")
FRIEND_DEPHASING = CollapseHypothesis("friend_dephasing")
SUBJECTIVE_COLLAPSE = CollapseHypothesis("subjective_collapse")


def _ensemble_terms(sites: Sequence[Sequence[str]], friends: Sequence[str]) -> dict:
    """Each variant's distribution as (fired sites, dephased labels) terms; the labels of no
    dephasing are ().  ``sites`` are the collapse sites, one label tuple each, and ``friends``
    the friend labels.  A stochastic_collapse(p) term weighs the product, in site order, of
    p for each site it fires and 1 - p for each it does not; the terms vary the first site
    fastest (none, A, B, AB for two sites).  Every other variant is one term of weight 1.0,
    which fires no site."""
    flat = itertools.chain.from_iterable
    fired = [bits[::-1] for bits in itertools.product((False, True), repeat=len(sites))]
    terms = {variant: [((), tuple(friends))] for variant in _HYPOTHESIS_VARIANTS}
    terms["unitary_only"] = [((), ())]
    terms["subjective_collapse"] = [((), tuple(flat(sites)))]
    terms["stochastic_collapse"] = [(fs, tuple(flat(s for f, s in zip(fs, sites) if f)))
                                    for fs in fired]
    return terms


def _mix(ensemble: list[tuple[float, DensityOperator]]) -> DensityOperator:
    """One term's density itself, otherwise the validated mixture of the terms."""
    return ensemble[0][1] if len(ensemble) == 1 else DensityOperator.mixture(ensemble)
