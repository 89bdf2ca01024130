"""The shipped scenarios: the four-photon friend experiment, a two-agent
counterexample protocol, a bare pointer coupling, and a Bell singlet.

Factor labels and order
-----------------------
The four-photon scenario uses the fixed factor order

    (a, alpha_prime, alpha, b, beta_prime, beta)

where ``a``/``b`` are the source photons, ``alpha``/``beta`` the friend
photons that record them, and ``alpha_prime``/``beta_prime`` the
heralding photons whose detection certifies the recording happened.  The
counterexample uses ``(A, B, C)`` (two spin-like memories plus a
communication mode) and the singlet uses ``(e1, e2)``.  Reports echo the
order so basis strings are unambiguous.

Normalization conventions
-------------------------
A heralded interaction is an isometry followed by post-selection, so two
state conventions coexist: the raw surviving branch (squared norm equal
to the herald probability, 1/4 per side here) and the renormalized
conditional state.  :class:`ScenarioState` carries both; nothing in the
package silently picks one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import HeraldImpossible, InvalidState, ShapeError, _check_count
from .hilbert import (
    ALGEBRA_TOL,
    CompositeSpace,
    DensityOperator,
    PureState,
    _factors_back,
    _factors_first,
    _freeze,
    _front_order,
    tensor,
)
from .measurement import (
    SUBJECTIVE_COLLAPSE,
    UNITARY_ONLY,
    CollapseHypothesis,
    ProjectiveMeasurement,
    _ensemble_terms,
    _mix,
    born_probabilities,
    dephase,
    exact_ensemble,
    projective_collapse,
)

PROIETTI_ORDER = ("a", "alpha_prime", "alpha", "b", "beta_prime", "beta")
COUNTEREXAMPLE_ORDER = ("A", "B", "C")
SINGLET_ORDER = ("e1", "e2")

# The two readings the counterexample protocol compares, in report order.
COUNTEREXAMPLE_HYPOTHESES = ("unitary_only", "subjective_collapse")

_SIDES = {
    "A": ("a", "alpha_prime", "alpha"),
    "B": ("b", "beta_prime", "beta"),
}

_COS = math.cos(math.pi / 8)
_SIN = math.sin(math.pi / 8)
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ScenarioState:
    """A stage of a scenario run.

    ``stage`` is one of ``prepared``, ``friends_interacted``,
    ``collapsed`` or ``final``.  ``herald_probability`` is the squared
    norm of the surviving branch whenever heralding post-selection
    occurred at this step (1.0 otherwise); ``raw_state`` is that
    sub-normalized branch itself.  ``branch`` records the sampled outcome
    index for collapse-style steps.
    """

    stage: str
    state: Union[PureState, DensityOperator]
    herald_probability: float = 1.0
    hypothesis: CollapseHypothesis | None = None
    raw_state: PureState | None = None
    branch: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.herald_probability <= 1.0 + ALGEBRA_TOL:
            raise InvalidState(
                f"herald probability {self.herald_probability!r} outside (0, 1]"
            )


def source_state() -> PureState:
    """The entangled photon pair feeding both wings.

    (1/sqrt2) [cos(pi/8) (|h_a v_b> + |v_a h_b>) + sin(pi/8) (|h_a h_b> - |v_a v_b>)]

    Both reduced single-photon states are maximally mixed.
    """
    space = CompositeSpace.qubits("a", "b")
    return PureState.from_mapping(
        space,
        {
            "hv": _COS / _SQRT2,
            "vh": _COS / _SQRT2,
            "hh": _SIN / _SQRT2,
            "vv": -_SIN / _SQRT2,
        },
    )


def friend_pair_state(side: str) -> PureState:
    """Singlet pair (herald, friend) for one wing:
    (1/sqrt2)(|h v> - |v h>) on (alpha_prime, alpha) or (beta_prime, beta)."""
    _, prime, friend = _side_labels(side)
    space = CompositeSpace.qubits(prime, friend)
    return PureState.from_mapping(space, {"hv": 1 / _SQRT2, "vh": -1 / _SQRT2})


def prepared_state() -> ScenarioState:
    """Source and both friend pairs, reordered to the canonical factor order."""
    joint = tensor(source_state(), friend_pair_state("A"), friend_pair_state("B"))
    return ScenarioState(stage="prepared", state=joint.reorder(PROIETTI_ORDER))


def _side_labels(side: str) -> tuple[str, str, str]:
    key = str(side).upper()
    if key not in _SIDES:
        raise ShapeError(f"side must be 'A' or 'B', got {side!r}")
    return _SIDES[key]


# The friend interaction on one wing is the heralded map
#
#     M = 1/2 sum_i |i>_in |1-i>_friend <i|_in <singlet|_(prime, friend),
#
# the anti-correlating copy (h -> v, v -> h) conditioned on detecting the
# heralding photon.  M^dag M = (1/4) P_in <= I, so the raw (sub-normalized)
# branch's squared norm is the herald probability.  _HERALDED_MAP is M as one
# read-only 4 x 8 matrix from (prime, friend, in) to (friend, in), with entries
# [f, i, p, q, j] = X[f, i] <singlet|p q> delta_ij / 2 (X the bit flip).
_HERALDED_MAP = _freeze(np.einsum(
    "fi,pq,ij->fipqj", np.eye(2)[::-1], np.array([[0, 1], [-1, 0]]) / (2 * _SQRT2), np.eye(2)
).reshape(4, 8).astype(complex))


def friend_interaction(joint: PureState, side: str) -> ScenarioState:
    """One wing's friend photon records the incoming photon, heralded.

    The input must contain that side's incoming photon and friend pair.
    The heralding photon is projected out, so the output space drops the
    prime factor while every other factor keeps its position.  Returns
    the renormalized state together with the herald probability and the
    raw branch.
    """
    in_label, prime_label, friend_label = _side_labels(side)
    space = joint.space
    # Every label is looked up before any is compared, so a missing one raises first.
    if [space.dim_of(lbl) for lbl in (in_label, prime_label, friend_label)] != [2, 2, 2]:
        raise ShapeError("friend interaction is defined for two-dimensional factors")
    if not joint.normalized:
        raise InvalidState("friend_interaction expects a normalized input")

    # The constant M takes (prime, friend, in, rest) to (friend, in, rest); the output space
    # is the only space built, and one permutation of it puts the friend back in place.
    front, _ = _factors_first(joint, ((prime_label, 2), (friend_label, 2), (in_label, 2)))
    out = CompositeSpace(tuple(f for f in space.factors if f[0] != prime_label))
    back = _front_order(out, ((friend_label, 2), (in_label, 2)))
    raw = PureState(out, _factors_back(_HERALDED_MAP @ front, out, back), normalized=False)
    herald = raw.squared_norm
    if herald <= ALGEBRA_TOL:
        raise HeraldImpossible(
            f"heralding on side {side!r} survives with probability {herald!r}"
        )
    return ScenarioState(
        stage="friends_interacted",
        state=raw.normalize(),
        herald_probability=herald,
        hypothesis=UNITARY_ONLY,
        raw_state=raw,
    )


@lru_cache(maxsize=1)
def _in_photon_bases() -> dict[str, ProjectiveMeasurement]:
    """Each incoming photon's computational basis, built and Gram-checked once, on first use."""
    photons = (CompositeSpace.qubits(a) for a, _, _ in _SIDES.values())
    return {q.labels[0]: ProjectiveMeasurement.computational(q) for q in photons}


def claimed_branch_collapse(
    joint: PureState, side: str, rng: np.random.Generator
) -> ScenarioState:
    """The reading under test: the incoming photon already HAS a value.

    Samples a definite h/v branch for the incoming photon by the Born
    rule, then runs the friend interaction on the collapsed input.  The
    single-run output is a product between (incoming, friend) and the
    rest; the ensemble over seeds equals dephasing the unitary output on
    those factors.
    """
    in_label, _, _ = _side_labels(side)
    if joint.space.dim_of(in_label) != 2:  # before the held two-dimensional basis meets it
        raise ShapeError("friend interaction is defined for two-dimensional factors")
    outcome, collapsed = projective_collapse(joint, basis=_in_photon_bases()[in_label], rng=rng)
    after = friend_interaction(collapsed, side)
    return replace(after, stage="collapsed", hypothesis=SUBJECTIVE_COLLAPSE, branch=outcome)


def expected_final_state() -> PureState:
    """The post-both-interactions state written out directly.

    (1/sqrt2) [cos(pi/8)(|h v v h> + |v h h v>) + sin(pi/8)(|h v h v> - |v h v h>)]

    over (a, alpha, b, beta).  This is constructed independently of the
    interaction machinery so the two routes can be checked against each
    other.
    """
    space = CompositeSpace.qubits("a", "alpha", "b", "beta")
    return PureState.from_mapping(
        space,
        {
            "hvvh": _COS / _SQRT2,
            "vhhv": _COS / _SQRT2,
            "hvhv": _SIN / _SQRT2,
            "vhvh": -_SIN / _SQRT2,
        },
    )


class ProiettiScenario:
    """Holds the full four-photon chain and its per-hypothesis endpoints.

    Alice's wing is the (a, alpha) pair and Bob's is (b, beta); inequality
    searches measure each wing jointly as a four-dimensional dichotomic
    observable.
    """

    alice_labels = ("a", "alpha")
    bob_labels = ("b", "beta")
    _sites = (alice_labels, bob_labels)
    _friend_labels = ("alpha", "beta")

    def __init__(self) -> None:
        self.prepared = prepared_state()
        self.after_side_a = friend_interaction(self.prepared.state, "A")
        after_b = friend_interaction(self.after_side_a.state, "B")
        self.final = replace(after_b, stage="final")

    @property
    def herald_probabilities(self) -> tuple[float, float]:
        """(side A, side B), each in the per-step normalized convention."""
        return (
            self.after_side_a.herald_probability,
            self.final.herald_probability,
        )

    @property
    def chained_herald_probability(self) -> float:
        """Probability that both heralds fire, raw printed convention."""
        a, b = self.herald_probabilities
        return a * b

    @cached_property
    def _held_densities(self) -> dict[tuple[str, ...], DensityOperator]:
        """The unitary final density, keyed (), and each dephasing of it built so far, keyed
        by its dephased labels; :meth:`held_terms` adds each on first use."""
        return {(): self.final.state.density()}

    def held_terms(self, hypothesis: CollapseHypothesis | str) -> list:
        """A hypothesis's (weight, held density) terms: the rule of
        :func:`~wfsim.measurement.exact_ensemble` with the wings (a, alpha) and (b, beta) as
        collapse sites and (alpha, beta) as friends, each dephasing built once."""
        terms = _ensemble_terms(hypothesis, self._sites, self._friend_labels)
        held = self._held_densities
        for _, on in terms:
            if on not in held:
                held[on] = dephase(held[()], on)
        return [(w, held[on]) for w, on in terms]

    def exact_state_under(self, hypothesis: CollapseHypothesis | str) -> DensityOperator:
        """Exact pre-measurement density operator for a hypothesis: its held terms mixed."""
        return _mix(self.held_terms(hypothesis))


@lru_cache(maxsize=1)
def proietti_scenario() -> ProiettiScenario:
    """Shared instance of the four-photon scenario, built on first use."""
    return ProiettiScenario()


def counterexample_measurement() -> ProjectiveMeasurement:
    """W's binary Bell measurement on (A, B): {P_phi_plus, complement}.

    Only the first outcome has a specified consequence (the photon is
    emitted to the communication mode); everything else is lumped into
    "no photon".
    """
    space = CompositeSpace.qubits("A", "B")
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[space.basis_index("uu")] = 1 / _SQRT2
    phi_plus[space.basis_index("dd")] = 1 / _SQRT2
    return ProjectiveMeasurement.binary(
        space, np.outer(phi_plus, phi_plus.conj()), ("photon", "no_photon")
    )


def _counterexample_unitary(amplitudes: Sequence[complex]) -> PureState:
    """The unitary state c_up |u u 0> + c_down |d d 0> on (A, B, C)."""
    c_up, c_down = complex(amplitudes[0]), complex(amplitudes[1])
    total = abs(c_up) ** 2 + abs(c_down) ** 2
    if abs(total - 1.0) > 1e-10:
        raise InvalidState(f"branch amplitudes have squared norm {total!r}, not 1")
    space = CompositeSpace.qubits(*COUNTEREXAMPLE_ORDER)
    return PureState.from_mapping(space, {"uu0": c_up, "dd0": c_down})


def _counterexample_hypothesis(hypothesis: CollapseHypothesis | str) -> CollapseHypothesis:
    hypothesis = CollapseHypothesis.parse(hypothesis)
    if hypothesis.variant not in COUNTEREXAMPLE_HYPOTHESES:
        raise ShapeError(
            f"the counterexample protocol compares "
            f"{' with '.join(COUNTEREXAMPLE_HYPOTHESES)}, not {hypothesis.name}"
        )
    return hypothesis


def counterexample_state_under(
    hypothesis: CollapseHypothesis | str,
    rng: np.random.Generator | None = None,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> ScenarioState:
    """Pre-measurement state of the two-agent protocol under a hypothesis.

    Under unitary_only the two memories stay in the coherent superposition
    c_up |u u> + c_down |d d> with the communication mode empty.  Under
    subjective_collapse one branch is sampled (|u u 0> or |d d 0>) with
    the Born weights.  The equal-amplitude case is the one the shipped
    protocol specifies; other amplitudes are supported but exercise the
    same machinery without an external reference.
    """
    hypothesis = _counterexample_hypothesis(hypothesis)
    unitary = _counterexample_unitary(amplitudes)
    if hypothesis.variant == "unitary_only":
        return ScenarioState(stage="final", state=unitary, hypothesis=hypothesis)
    if rng is None:
        raise InvalidState("subjective_collapse sampling needs a Generator")
    branch = 0 if rng.random() < abs(unitary.amplitude("uu0")) ** 2 else 1
    state = PureState.basis(unitary.space, "uu0" if branch == 0 else "dd0")
    return ScenarioState(stage="collapsed", state=state, hypothesis=hypothesis, branch=branch)


def counterexample_density(
    hypothesis: CollapseHypothesis | str,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> DensityOperator:
    """Exact ensemble density operator for either hypothesis: A is the collapse site."""
    hypothesis = _counterexample_hypothesis(hypothesis)
    return exact_ensemble(_counterexample_unitary(amplitudes).density(), hypothesis, (("A",),), ())


def counterexample_probability(
    hypothesis: CollapseHypothesis | str,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> float:
    """Exact P(photon received by F) under a hypothesis."""
    rho = counterexample_density(hypothesis, amplitudes)
    return float(born_probabilities(rho, counterexample_measurement())[0])


def counterexample_run(
    hypothesis: CollapseHypothesis | str,
    rng: np.random.Generator,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> bool:
    """One seeded run: prepare under the hypothesis, measure, emit or not."""
    scenario = counterexample_state_under(hypothesis, rng=rng, amplitudes=amplitudes)
    outcome, _ = projective_collapse(
        scenario.state, basis=counterexample_measurement(), rng=rng
    )
    return outcome == 0


def counterexample_frequencies(
    hypothesis: CollapseHypothesis | str,
    runs: int,
    rng: np.random.Generator,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> float:
    """Frequency of photon receipt over ``runs`` seeded runs: :func:`_binomial_frequency`
    at the exact :func:`counterexample_probability`, as each run emits independently with
    it, so the count is distributed exactly as looping :func:`counterexample_run`."""
    return _binomial_frequency(counterexample_probability(hypothesis, amplitudes), runs, rng)


def _binomial_frequency(p: float, runs: int, rng: np.random.Generator) -> float:
    """Hit frequency of ``runs`` independent runs that each hit with probability ``p``:
    one ``rng.binomial(runs, p)`` draw over ``runs``.  Time and memory do not depend on
    ``runs``, which must be an integer in [1, 2**63)."""
    _check_count("runs", runs, 1)
    return int(rng.binomial(runs, p)) / runs


def bell_singlet() -> PureState:
    """The spin singlet (1/sqrt2)(|u d> - |d u>) on (e1, e2).

    Its reduced states are maximally mixed and diagonal, yet no definite
    z value is attributable to either electron: the composite is pure and
    the anticorrelation <sigma_z sigma_z> = -1 lives in the entanglement,
    not in a statistical ensemble.
    """
    space = CompositeSpace.qubits(*SINGLET_ORDER)
    return PureState.from_mapping(space, {"ud": 1 / _SQRT2, "du": -1 / _SQRT2})


class _SingletScenario:
    """The singlet as a one-term scenario of :func:`~wfsim.chsh.hypothesis_comparison`:
    the wings e1 | e2 and one :func:`bell_singlet` state, held under unitary_only only."""

    alice_labels, bob_labels = SINGLET_ORDER[:1], SINGLET_ORDER[1:]

    def __init__(self) -> None:
        self.state = bell_singlet()

    def held_terms(self, hypothesis: CollapseHypothesis | str) -> list:
        hypothesis = CollapseHypothesis.parse(hypothesis)
        if hypothesis != UNITARY_ONLY:
            raise ShapeError(f"the singlet holds unitary_only only, not {hypothesis.name}")
        return [(1.0, self.state)]
