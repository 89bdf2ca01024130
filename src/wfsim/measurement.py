"""Measurement formalism: pointer coupling, mixtures, dephasing, Born rule.

The two ways this package renders "an outcome happened" are kept strictly
apart:

* :func:`dephase` produces the proper-mixture description (an outcome
  occurred but is unknown): coherences between the targeted factors'
  basis states are erased, diagonals untouched.
* :func:`projective_collapse` realizes one outcome: it samples from the
  Born distribution with a caller-owned seeded generator and returns the
  renormalized projected state.

Randomness everywhere in the package comes from ``numpy.random.Generator``
(PCG64 via ``numpy.random.default_rng``).  A run owns its generator; when
work is split, child streams are derived with ``Generator.spawn`` in a
documented fixed order, so results are reproducible for a given master
seed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import InvalidState, InvariantViolation, PointerNotReady, ShapeError
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
        object.__setattr__(self, "copy_basis", tuple(int(i) for i in self.copy_basis))
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
    if max(coupling.copy_basis) >= pdim or coupling.pointer_ready_index >= pdim:
        raise ShapeError(
            f"copy map {coupling.copy_basis} (ready {coupling.pointer_ready_index}) "
            f"does not fit pointer dimension {pdim}"
        )
    if len(coupling.copy_basis) != sdim:
        raise ShapeError(
            f"copy map covers {len(coupling.copy_basis)} system states, "
            f"system factor has {sdim}"
        )
    ready = coupling.pointer_ready_index
    if not present:
        pointer = CompositeSpace(((coupling.pointer_label, sdim),))
        psi = tensor(psi, PureState.basis(pointer, (ready,)))
        space = psi.space

    pair = space.subspace((coupling.system_label, coupling.pointer_label))
    front = _factors_first(psi, pair).reshape(sdim, pdim, -1)  # (system, pointer, rest)
    stray = np.delete(front, ready, axis=1)
    if stray.size and float(np.max(np.abs(stray))) > ALGEBRA_TOL:
        raise PointerNotReady(
            f"pointer {coupling.pointer_label!r} is not in its ready state "
            f"(index {ready})"
        )
    out = np.zeros_like(front)
    out[np.arange(sdim), coupling.copy_basis] = front[:, ready]
    return PureState(space, _factors_back(out, space, pair), normalized=psi.normalized)


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
    if not on:
        raise ShapeError("dephase needs at least one target factor")
    return DensityOperator(rho.space, np.where(_differs_on(rho.space, on), 0.0, rho.matrix))


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete set of orthogonal projectors on a labeled subspace.

    ``space`` names the measured factors (a sub-collection of the target
    state's space); projectors are matrices on that subspace.  Outcome
    names are for reporting only.
    """

    space: CompositeSpace
    projectors: tuple[np.ndarray, ...]
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        projs = tuple(np.array(p, dtype=complex) for p in self.projectors)
        d = self.space.dim
        if len(projs) < 1:
            raise ShapeError("a measurement needs at least one projector")
        if len(self.outcomes) != len(projs):
            raise ShapeError("one outcome name per projector")
        total = np.zeros((d, d), dtype=complex)
        for k, p in enumerate(projs):
            if p.shape != (d, d):
                raise ShapeError(f"projector {k} has shape {p.shape}, needs ({d}, {d})")
            if float(np.max(np.abs(p - p.conj().T))) > VALIDITY_TOL:
                raise InvalidState(f"projector {k} is not hermitian")
            if float(np.max(np.abs(p @ p - p))) > VALIDITY_TOL:
                raise InvalidState(f"projector {k} is not idempotent")
            total += p
        if float(np.max(np.abs(total - np.eye(d)))) > VALIDITY_TOL:
            raise InvalidState("projectors do not sum to identity")
        for i in range(len(projs)):
            for j in range(i + 1, len(projs)):
                if float(np.max(np.abs(projs[i] @ projs[j]))) > VALIDITY_TOL:
                    raise InvalidState(f"projectors {i} and {j} are not orthogonal")
        object.__setattr__(self, "projectors", tuple(_freeze(p) for p in projs))
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))

    @classmethod
    def computational(cls, space: CompositeSpace) -> "ProjectiveMeasurement":
        """Rank-1 projectors onto every computational basis state."""
        projs = []
        names = []
        for k in range(space.dim):
            p = np.zeros((space.dim, space.dim), dtype=complex)
            p[k, k] = 1.0
            projs.append(p)
            digits = np.unravel_index(k, space.dims)
            names.append("".join(str(int(dg)) for dg in digits))
        return cls(space, tuple(projs), tuple(names))

    @classmethod
    def of_observable(cls, obs: DichotomicObservable) -> "ProjectiveMeasurement":
        """Two-outcome measurement of a dichotomic observable, (+1, -1) order."""
        plus, minus = obs.projectors()
        return cls(obs.space, (plus, minus), ("+1", "-1"))

    @classmethod
    def binary(
        cls,
        space: CompositeSpace,
        projector: np.ndarray,
        outcomes: tuple[str, str] = ("hit", "miss"),
    ) -> "ProjectiveMeasurement":
        """{P, I - P} for a single projector P."""
        p = np.asarray(projector, dtype=complex)
        return cls(space, (p, np.eye(space.dim) - p), outcomes)


MeasurementLike = Union[ProjectiveMeasurement, DichotomicObservable, Sequence[str]]


def _as_measurement(space: CompositeSpace, what: MeasurementLike) -> ProjectiveMeasurement:
    if isinstance(what, ProjectiveMeasurement):
        return what
    if isinstance(what, DichotomicObservable):
        return ProjectiveMeasurement.of_observable(what)
    if isinstance(what, str):
        what = (what,)
    return ProjectiveMeasurement.computational(space.subspace(what))


def born_probabilities(
    state: Union[PureState, DensityOperator], basis_or_obs: MeasurementLike
) -> np.ndarray:
    """Born-rule outcome distribution for a measurement on a state.

    ``basis_or_obs`` may be a sequence of factor labels (computational
    basis of those factors, indexed big-endian in the order given), a
    DichotomicObservable (outcomes ordered +1, -1), or an explicit
    ProjectiveMeasurement.  Entries are clipped at zero and renormalized;
    a total deviating from 1 beyond tolerance raises InvariantViolation.
    """
    meas = _as_measurement(state.space, basis_or_obs)
    rho_sub = _reduced_matrix(state, meas.space)
    return _clipped_distribution(np.einsum("kij,ji->k", np.stack(meas.projectors), rho_sub).real)


def _clipped_distribution(probs: np.ndarray) -> np.ndarray:
    """Clip at zero and renormalize; a total off 1 beyond VALIDITY_TOL raises."""
    probs = np.clip(probs, 0.0, None)
    total = float(probs.sum())
    if abs(total - 1.0) > VALIDITY_TOL:
        raise InvariantViolation(f"Born probabilities sum to {total!r}, not 1")
    return _freeze(probs / total)


def projective_collapse(
    state: PureState,
    on: Sequence[str] | None = None,
    basis: Union[ProjectiveMeasurement, DichotomicObservable, None] = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, PureState]:
    """Sample one outcome by the Born rule and project.

    ``on`` names the measured factors for a computational-basis collapse;
    alternatively ``basis`` supplies a DichotomicObservable or an explicit
    ProjectiveMeasurement (then ``on`` is redundant and, if given, must
    match the measurement's labels).  Returns the outcome index and the
    renormalized post-measurement state.  Identical seeds give identical
    outcomes; a zero-probability outcome is never returned.
    """
    if rng is None:
        raise InvalidState("projective_collapse needs a seeded numpy Generator")
    if isinstance(on, str):
        on = (on,)
    if basis is None:
        if on is None:
            raise ShapeError("give either measured labels or an explicit basis")
        meas = ProjectiveMeasurement.computational(state.space.subspace(on))
    else:
        meas = _as_measurement(state.space, basis)
        if on is not None and tuple(on) != meas.space.labels:
            raise ShapeError(
                f"labels {tuple(on)} disagree with the measurement's "
                f"{meas.space.labels}"
            )
    probs = born_probabilities(state, meas)
    outcome = int(rng.choice(probs.size, p=probs))
    branch = meas.projectors[outcome] @ _factors_first(state, meas.space)
    nrm2 = float(np.vdot(branch, branch).real)
    amplitudes = _factors_back(branch, state.space, meas.space) / math.sqrt(nrm2)
    return outcome, PureState(state.space, amplitudes)


_HYPOTHESIS_VARIANTS = (
    "unitary_only",
    "friend_projective",
    "friend_dephasing",
    "subjective_collapse",
    "stochastic_collapse",
)

_STOCHASTIC_RE = re.compile(r"^stochastic_collapse\(\s*(?:p\s*=\s*)?([0-9.eE+-]+)\s*\)$")


@dataclass(frozen=True)
class CollapseHypothesis:
    """Which story is told about the friend interactions.

    * ``unitary_only``: nothing but unitary evolution ever happens.
    * ``friend_projective``: each friend's outcome is physically realized
      (projective collapse at the interaction).
    * ``friend_dephasing``: each friend's factor is dephased, the proper
      mixture with a definite-but-unknown outcome.
    * ``subjective_collapse``: the friend has an outcome relative to
      itself; rendered as branch sampling whose ensemble is a dephasing.
    * ``stochastic_collapse``: collapse fires independently at each
      interaction event with probability p; p=0 is unitary_only and p=1
      is subjective_collapse.  On the four-photon state p=1 also equals
      friend_projective, but only because each friend anti-copies its
      photon, so dephasing the friends dephases the photons too.
    """

    variant: str
    probability: float | None = None

    def __post_init__(self) -> None:
        if self.variant not in _HYPOTHESIS_VARIANTS:
            raise InvalidState(
                f"unknown hypothesis {self.variant!r}; "
                f"known: {', '.join(_HYPOTHESIS_VARIANTS)}"
            )
        if self.variant == "stochastic_collapse":
            p = self.probability
            if p is None or not 0.0 <= float(p) <= 1.0:
                raise InvalidState(
                    "stochastic_collapse needs a collapse probability in [0, 1]"
                )
            object.__setattr__(self, "probability", float(p))
        elif self.probability is not None:
            raise InvalidState(f"{self.variant} does not take a probability")

    @classmethod
    def stochastic(cls, p: float) -> "CollapseHypothesis":
        return cls("stochastic_collapse", p)

    @classmethod
    def parse(cls, text: "CollapseHypothesis | str") -> "CollapseHypothesis":
        """Parse 'unitary_only', ..., or 'stochastic_collapse(0.3)'.

        A CollapseHypothesis is returned unchanged.
        """
        if isinstance(text, CollapseHypothesis):
            return text
        text = text.strip()
        m = _STOCHASTIC_RE.match(text)
        if m:
            return cls.stochastic(float(m.group(1)))
        return cls(text)

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
