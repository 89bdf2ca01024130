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
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import HeraldImpossible, InvalidState, ShapeError, _check_count, _check_generator
from .hilbert import (
    ALGEBRA_TOL,
    CompositeSpace,
    DensityOperator,
    PureState,
    VALIDITY_TOL,
    _factors_back,
    _factors_first,
    _freeze,
    _front_order,
    tensor,
)
from .measurement import (
    _HYPOTHESIS_VARIANTS,
    SUBJECTIVE_COLLAPSE,
    UNITARY_ONLY,
    CollapseHypothesis,
    ProjectiveMeasurement,
    _draw,
    _ensemble_terms,
    _mix,
    born_probabilities,
    dephase,
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
    if joint.space.dim_of(in_label) != 2:  # before any draw from rng
        raise ShapeError("friend interaction is defined for two-dimensional factors")
    outcome, collapsed = projective_collapse(joint, (in_label,), rng)
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


class HeldScenario:
    """A unitary state and the hypotheses a scenario tells about it.

    ``alice_labels`` and ``bob_labels`` name the wings an inequality search measures;
    ``sites`` are the collapse sites, one label tuple each, and ``friends`` the friend
    labels, from which :func:`~wfsim.measurement._ensemble_terms` derives each variant's
    dephased label sets once.  ``variants`` are the variants the scenario holds.  The
    unitary state is held as given, a density wherever there is a site to dephase.
    """

    def __init__(self, unitary: Union[PureState, DensityOperator], alice_labels: Sequence[str],
                 bob_labels: Sequence[str], sites: Sequence[Sequence[str]] = (),
                 friends: Sequence[str] = (), variants: Sequence[str] = _HYPOTHESIS_VARIANTS):
        self.alice_labels, self.bob_labels = tuple(alice_labels), tuple(bob_labels)
        self._variants, self._terms = tuple(variants), _ensemble_terms(sites, friends)
        self._held = {(): unitary}  # dephased labels -> held state; () is the unitary state

    def parsed(self, hypothesis: CollapseHypothesis | str) -> CollapseHypothesis:
        """The parsed hypothesis; a variant the scenario does not hold raises ShapeError."""
        hypothesis = CollapseHypothesis.parse(hypothesis)
        if hypothesis.variant not in self._variants:
            raise ShapeError(
                f"this scenario holds {' and '.join(self._variants)} only, not {hypothesis.name}"
            )
        return hypothesis

    def held_terms(self, hypothesis: CollapseHypothesis | str) -> list:
        """A hypothesis's (weight, held state) terms, each dephasing built on first use and
        then held, so every hypothesis that uses a state gets the same object.  A stochastic
        weight is ``math.prod``, in site order, of p per fired site and 1 - p per other."""
        hypothesis = self.parsed(hypothesis)
        p, held, terms = hypothesis.probability, self._held, []
        for fired, on in self._terms[hypothesis.variant]:  # (fired sites, dephased labels)
            if on not in held:
                held[on] = dephase(held[()], on)
            terms.append((1.0 if p is None else math.prod(p if f else 1 - p for f in fired),
                          held[on]))
        return terms


class ProiettiScenario(HeldScenario):
    """Holds the full four-photon chain and its per-hypothesis endpoints.

    Alice's wing is the (a, alpha) pair and Bob's is (b, beta); inequality
    searches measure each wing jointly as a four-dimensional dichotomic
    observable.  The wings are the collapse sites and (alpha, beta) the friends.
    """

    def __init__(self) -> None:
        self.prepared = prepared_state()
        self.after_side_a = friend_interaction(self.prepared.state, "A")
        after_b = friend_interaction(self.after_side_a.state, "B")
        self.final = replace(after_b, stage="final")
        wings = (("a", "alpha"), ("b", "beta"))
        super().__init__(self.final.state.density(), *wings, sites=wings, friends=("alpha", "beta"))

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

    def exact_state_under(self, hypothesis: CollapseHypothesis | str) -> DensityOperator:
        """Exact pre-measurement density operator for a hypothesis: its held terms mixed."""
        return _mix(self.held_terms(hypothesis))


@lru_cache(maxsize=1)
def proietti_scenario() -> ProiettiScenario:
    """Shared instance of the four-photon scenario, built on first use."""
    return ProiettiScenario()


_COUNTEREXAMPLE_SPACE = CompositeSpace.qubits(*COUNTEREXAMPLE_ORDER)


@lru_cache(maxsize=1)
def counterexample_measurement() -> ProjectiveMeasurement:
    """W's binary Bell measurement on (A, B): {P_phi_plus, complement}.

    Only the first outcome has a specified consequence (the photon is
    emitted to the communication mode); everything else is lumped into
    "no photon".  Built and Gram-checked on first use, then shared: it is
    frozen and its arrays are read-only.
    """
    space = CompositeSpace.qubits("A", "B")
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[space.basis_index("uu")] = 1 / _SQRT2
    phi_plus[space.basis_index("dd")] = 1 / _SQRT2
    return ProjectiveMeasurement.binary(
        space, np.outer(phi_plus, phi_plus.conj()), ("photon", "no_photon")
    )


def _counterexample(amplitudes: Sequence[complex], density: bool) -> HeldScenario:
    """The counterexample's holder of c_up |u u 0> + c_down |d d 0> on (A, B, C), as a
    density or not: the agents A | B, collapse site A, no friend.  ``amplitudes`` must be
    two entries of squared norm 1 within VALIDITY_TOL, checked before any state is built."""
    if len(amplitudes) != 2:
        raise ShapeError(f"give two branch amplitudes (c_up, c_down), got {len(amplitudes)}")
    c_up, c_down = complex(amplitudes[0]), complex(amplitudes[1])
    total = abs(c_up) ** 2 + abs(c_down) ** 2
    if abs(total - 1.0) > VALIDITY_TOL:
        raise InvalidState(f"branch amplitudes have squared norm {total!r}, not 1")
    unitary = PureState.from_mapping(_COUNTEREXAMPLE_SPACE, {"uu0": c_up, "dd0": c_down})
    return HeldScenario(unitary.density() if density else unitary, ("A",), ("B",),
                        sites=(("A",),), variants=COUNTEREXAMPLE_HYPOTHESES)


def counterexample_state_under(
    hypothesis: CollapseHypothesis | str,
    rng: np.random.Generator | None = None,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> ScenarioState:
    """Pre-measurement state of the two-agent protocol under a hypothesis.

    Under unitary_only the two memories stay in the coherent superposition
    c_up |u u> + c_down |d d> with the communication mode empty.  Under
    subjective_collapse one branch (|u u 0> or |d d 0>) is sampled from A's
    Born distribution by ``measurement._draw``, the one draw every collapse
    uses.  The equal-amplitude case is the one the shipped protocol
    specifies; other amplitudes are supported but exercise the same
    machinery without an external reference.  No density is built.
    """
    scenario = _counterexample(amplitudes, density=False)
    hypothesis = scenario.parsed(hypothesis)
    ((_, unitary),) = scenario.held_terms(UNITARY_ONLY)
    if hypothesis.variant == "unitary_only":
        return ScenarioState(stage="final", state=unitary, hypothesis=hypothesis)
    _check_generator(rng, "subjective_collapse sampling")
    branch = _draw(born_probabilities(unitary, ("A",)), rng)
    state = PureState.basis(unitary.space, "uu0" if branch == 0 else "dd0")
    return ScenarioState(stage="collapsed", state=state, hypothesis=hypothesis, branch=branch)


def counterexample_probability(
    hypothesis: CollapseHypothesis | str,
    amplitudes: Sequence[complex] = (1 / _SQRT2, 1 / _SQRT2),
) -> float:
    """Exact P(photon received by F) under a hypothesis: the sum over its held terms of
    weight times the Born probability of the photon outcome."""
    meas = counterexample_measurement()
    terms = _counterexample(amplitudes, density=True).held_terms(hypothesis)
    return float(sum(w * born_probabilities(rho, meas)[0] for w, rho in terms))


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
    _check_generator(rng, "a binomial draw")
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
