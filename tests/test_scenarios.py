"""Tests for the shipped scenarios and their per-hypothesis endpoints.

Hand-derived reference values are frozen as literals: the source
amplitudes cos(pi/8)/sqrt2 = 0.6532814824381883 and sin(pi/8)/sqrt2 =
0.2705980500730985, the per-wing herald probability 1/4, and the
counterexample photon probabilities 1 and 1/2.
"""

import hashlib
import itertools
import math
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import wfsim.measurement
import wfsim.scenarios
from wfsim import (
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    FRIEND_DEPHASING,
    FRIEND_PROJECTIVE,
    HeraldImpossible,
    InvalidState,
    PointerCoupling,
    ProjectiveMeasurement,
    PureState,
    SUBJECTIVE_COLLAPSE,
    ShapeError,
    UNITARY_ONLY,
    UnknownSubsystem,
    bell_singlet,
    claimed_branch_collapse,
    coherence_norm,
    correlator,
    counterexample_frequencies,
    counterexample_measurement,
    counterexample_probability,
    counterexample_run,
    counterexample_state_under,
    couple_pointer,
    dephase,
    expected_final_state,
    friend_interaction,
    friend_pair_state,
    hypothesis_comparison,
    partial_trace,
    prepared_state,
    proietti_scenario,
    purity,
    source_state,
    validate,
)
from wfsim.chsh import MeasurementSettings, _basis_triple, _wing_moments
from wfsim.measurement import CollapseHypothesis
from wfsim.scenarios import SINGLET_ORDER, HeldScenario, ProiettiScenario, _counterexample

from _oracles import random_pure

COS_AMP = 0.6532814824381883
SIN_AMP = 0.2705980500730985

# Seeds 0-15 of the A -> B claimed-branch chain: the (A, B) branches, and the
# sha256 of both stages' amplitude bytes, which the branches determine.
CHAIN_BRANCHES = [
    (1, 0), (1, 1), (0, 1), (0, 1), (1, 0), (1, 0), (1, 0), (1, 1),
    (0, 1), (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 0), (1, 0),
]
CHAIN_DIGESTS = {
    (1, 0): "6e8496f7626c5f0fa5315f89d444104a903d580fa8a4e14c6416010b4ffd46e5",
    (1, 1): "9f87941028f4ad50d626ca4c562385e69f52129894a6ee762589fcc3d992d561",
    (0, 1): "cdc89c7cf8425fad12ca6fced23b25e1dc623222768985a370f051047265e133",
}

# sha256 of friend_interaction's raw and renormalized output amplitude bytes over
# seeds 0-7 (see TestFriendInteraction.test_heralded_bytes_are_pinned).
HERALD_DIGEST = "778d2674731c48681dde45e6d55d428da7af224afca919c52e20008ed1f11d87"


class TestSourceState:
    """The entangled pair feeding both wings."""

    def test_amplitudes_match_reference(self):
        psi = source_state()
        assert psi.amplitude("hv").real == pytest.approx(COS_AMP, abs=1e-12)
        assert psi.amplitude("vh").real == pytest.approx(COS_AMP, abs=1e-12)
        assert psi.amplitude("hh").real == pytest.approx(SIN_AMP, abs=1e-12)
        assert psi.amplitude("vv").real == pytest.approx(-SIN_AMP, abs=1e-12)

    def test_normalized(self):
        assert source_state().squared_norm == pytest.approx(1.0, abs=1e-14)

    def test_single_photon_states_maximally_mixed(self):
        rho = source_state().density()
        for label in ("a", "b"):
            reduced = partial_trace(rho, (label,))
            np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_friend_pair_is_singlet(self):
        psi = friend_pair_state("A")
        assert psi.space.labels == ("alpha_prime", "alpha")
        assert psi.amplitude("hv").real == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitude("vh").real == pytest.approx(-1 / math.sqrt(2))

    def test_prepared_state_factor_order(self):
        state = prepared_state().state
        assert state.space.labels == (
            "a",
            "alpha_prime",
            "alpha",
            "b",
            "beta_prime",
            "beta",
        )
        assert state.squared_norm == pytest.approx(1.0, abs=1e-13)


class TestFriendInteraction:
    """Heralded recording on one wing."""

    def test_herald_probability_is_quarter(self):
        after = friend_interaction(prepared_state().state, "A")
        assert after.herald_probability == pytest.approx(0.25, abs=1e-12)

    def test_raw_state_carries_the_herald_norm(self):
        after = friend_interaction(prepared_state().state, "A")
        assert after.raw_state is not None
        assert after.raw_state.squared_norm == pytest.approx(0.25, abs=1e-12)

    def test_prime_factor_is_dropped(self):
        after = friend_interaction(prepared_state().state, "A")
        assert after.state.space.labels == ("a", "alpha", "b", "beta_prime", "beta")

    def test_friend_records_anticorrelated_copy(self):
        """Surviving amplitudes have the friend opposite to its photon."""
        after = friend_interaction(prepared_state().state, "A")
        tens = after.state.amplitudes.reshape(after.state.space.dims)
        ax_a = after.state.space.axis("a")
        ax_f = after.state.space.axis("alpha")
        for i in (0, 1):
            same = np.take(np.take(tens, i, axis=ax_a), i, axis=ax_f - 1)
            assert float(np.max(np.abs(same))) < 1e-14

    def test_chain_matches_direct_construction(self):
        scenario = proietti_scenario()
        final = scenario.final.state
        reference = expected_final_state()
        assert final.space.labels == reference.space.labels
        assert float(np.max(np.abs(final.amplitudes - reference.amplitudes))) < 1e-12

    @pytest.mark.one_blas_thread
    def test_heralded_bytes_are_pinned(self):
        """The sha256 of the raw and renormalized output amplitudes over eight seeded
        states per side: the states of the brute-force property, each side's photons
        plus up to two extra factors in a random order, frozen bytes where that
        property compares at 1e-12.  Side B's states are side A's with the labels
        renamed, so both sides hash alike."""
        for side in "AB":
            wing = {"A": ["a", "alpha_prime", "alpha"], "B": ["b", "beta_prime", "beta"]}[side]
            data = hashlib.sha256()
            for seed in range(8):
                rng = np.random.default_rng(seed)
                extra = int(rng.integers(0, 3))
                labels = wing + [f"x{k}" for k in range(extra)]
                dims = [2, 2, 2] + [int(d) for d in rng.integers(2, 4, size=extra)]
                order = rng.permutation(len(labels))
                space = CompositeSpace(tuple((labels[k], dims[k]) for k in order))
                after = friend_interaction(PureState(space, random_pure(rng, space.dim)), side)
                data.update(after.raw_state.amplitudes.tobytes())
                data.update(after.state.amplitudes.tobytes())
            assert data.hexdigest() == HERALD_DIGEST, side

    def test_missing_factor_raises(self):
        """The ``CompositeSpace.axis`` message, as from ``claimed_branch_collapse``, and
        ahead of the normalization check."""
        with pytest.raises(UnknownSubsystem, match=r"^no factor labeled 'alpha_prime' in"):
            friend_interaction(source_state(), "A")
        pair = friend_pair_state("A")
        with pytest.raises(UnknownSubsystem, match=r"^no factor labeled 'a' in") as collapse:
            claimed_branch_collapse(pair, "A", np.random.default_rng(0))
        unnormalized = PureState(pair.space, 2.0 * pair.amplitudes, normalized=False)
        for state in (pair, unnormalized):
            with pytest.raises(UnknownSubsystem, match=f"^{re.escape(str(collapse.value))}$"):
                friend_interaction(state, "A")

    def test_impossible_herald_raises(self):
        """An input orthogonal to every surviving branch cannot herald."""
        space = CompositeSpace.qubits("a", "alpha_prime", "alpha")
        dead = PureState.from_mapping(space, {"000": 1.0})
        with pytest.raises(HeraldImpossible):
            friend_interaction(dead, "A")


class TestProiettiScenario:
    def test_herald_probabilities(self):
        scenario = proietti_scenario()
        pa, pb = scenario.herald_probabilities
        assert pa == pytest.approx(0.25, abs=1e-12)
        assert pb == pytest.approx(0.25, abs=1e-12)
        assert scenario.chained_herald_probability == pytest.approx(0.0625, abs=1e-12)

    def test_unitary_state_is_pure(self):
        rho = proietti_scenario().exact_state_under(UNITARY_ONLY)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_dephasing_kills_friend_coherence(self):
        rho = proietti_scenario().exact_state_under(FRIEND_DEPHASING)
        assert coherence_norm(rho, ("alpha", "beta")) == pytest.approx(0.0, abs=1e-14)
        assert purity(rho) < 1.0

    def test_projective_ensemble_equals_dephasing(self):
        scenario = proietti_scenario()
        np.testing.assert_allclose(
            scenario.exact_state_under(FRIEND_PROJECTIVE).matrix,
            scenario.exact_state_under(FRIEND_DEPHASING).matrix,
            atol=1e-15,
        )

    def test_stochastic_endpoints(self):
        """p=0 reduces to unitary evolution, p=1 to realized outcomes."""
        scenario = proietti_scenario()
        p0 = scenario.exact_state_under(CollapseHypothesis.stochastic(0.0))
        np.testing.assert_allclose(
            p0.matrix, scenario.exact_state_under(UNITARY_ONLY).matrix, atol=1e-14
        )
        p1 = scenario.exact_state_under(CollapseHypothesis.stochastic(1.0))
        np.testing.assert_allclose(
            p1.matrix,
            scenario.exact_state_under("subjective_collapse").matrix,
            atol=1e-14,
        )

    def test_stochastic_one_is_subjective_collapse(self):
        """p=1 is built as subjective_collapse; on this state it also equals
        friend_projective, because each friend anti-copies its photon."""
        scenario = proietti_scenario()
        p1 = scenario.exact_state_under(CollapseHypothesis.stochastic(1.0)).matrix
        for other in (SUBJECTIVE_COLLAPSE, FRIEND_PROJECTIVE):
            assert np.max(np.abs(p1 - scenario.exact_state_under(other).matrix)) == 0.0

    @pytest.mark.parametrize("p", [k / 10 for k in range(11)] + [0.35])
    def test_stochastic_is_the_four_term_mixture_of_dephasings(self, p):
        """Bitwise the mixture of the unitary density's dephasings on none, (a, alpha),
        (b, beta) and all four, weighted (1-p)(1-p), p(1-p), (1-p)p, pp."""
        scenario = proietti_scenario()
        rho = scenario.exact_state_under(UNITARY_ONLY)
        expected = DensityOperator.mixture([
            ((1 - p) * (1 - p), rho),
            (p * (1 - p), dephase(rho, ("a", "alpha"))),
            ((1 - p) * p, dephase(rho, ("b", "beta"))),
            (p * p, dephase(rho, ("a", "alpha", "b", "beta"))),
        ])
        got = scenario.exact_state_under(CollapseHypothesis.stochastic(p))
        assert np.array_equal(got.matrix, expected.matrix)

    def test_one_term_hypotheses_return_the_held_density(self):
        """unitary_only, friend_dephasing and subjective_collapse mix nothing: each call
        returns the one density the scenario holds, read-only."""
        scenario = proietti_scenario()
        for hypothesis in (UNITARY_ONLY, FRIEND_DEPHASING, SUBJECTIVE_COLLAPSE):
            rho = scenario.exact_state_under(hypothesis)
            assert scenario.exact_state_under(hypothesis) is rho
            assert scenario.exact_state_under(hypothesis.name) is rho
            assert not rho.matrix.flags.writeable
        assert scenario.exact_state_under(FRIEND_PROJECTIVE) is scenario.exact_state_under(
            FRIEND_DEPHASING
        )

    def test_sweep_dephases_nothing_on_an_existing_scenario(self, monkeypatch):
        """Once the scenario has built the dephasings a sweep mixes, the 11-point comparison
        only mixes them: no dephase call, and one DensityOperator (the mixture) per point."""
        scenario = proietti_scenario()
        sweep = [CollapseHypothesis.stochastic(k / 10) for k in range(11)]
        for hypothesis in sweep:
            scenario.exact_state_under(hypothesis)  # each dephasing is built on first use
        calls = {"dephase": 0, "density": 0}

        def counted_dephase(*args, **kwargs):
            calls["dephase"] += 1
            return dephase(*args, **kwargs)

        validate_density = DensityOperator.__post_init__

        def counted_density(self):
            calls["density"] += 1
            validate_density(self)

        for module in (wfsim.measurement, wfsim.scenarios):
            monkeypatch.setattr(module, "dephase", counted_dephase)
        monkeypatch.setattr(DensityOperator, "__post_init__", counted_density)
        results = hypothesis_comparison(scenario, sweep, grid_step=math.pi / 16)
        assert len(results) == 11
        assert calls["dephase"] == 0
        assert calls["density"] <= 11

    def test_sweep_without_a_grid_builds_no_mixture(self, monkeypatch):
        """Without a grid the 11-point comparison on a warm scenario mixes tables only: no
        DensityOperator is built, and neither a DichotomicObservable nor a MeasurementSettings:
        the default settings' operators are taken bare, not as four validated observables."""
        scenario = proietti_scenario()
        sweep = [CollapseHypothesis.stochastic(k / 10) for k in range(11)]
        hypothesis_comparison(scenario, sweep)  # holds every dephasing the sweep needs
        calls = {DensityOperator: 0, DichotomicObservable: 0, MeasurementSettings: 0}
        for cls in calls:
            validate = cls.__post_init__

            def counted(self, validate=validate):
                calls[type(self)] += 1
                validate(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        results = hypothesis_comparison(scenario, sweep)
        assert len(results) == 11
        assert calls == {DensityOperator: 0, DichotomicObservable: 0, MeasurementSettings: 0}

    def test_stochastic_intermediate_is_valid(self):
        rho = proietti_scenario().exact_state_under("stochastic_collapse(0.35)")
        assert validate(rho).ok

    def test_accepts_string_hypotheses(self):
        scenario = proietti_scenario()
        np.testing.assert_allclose(
            scenario.exact_state_under("friend_dephasing").matrix,
            scenario.exact_state_under(FRIEND_DEPHASING).matrix,
            atol=1e-15,
        )

    def test_hypotheses_agree_on_every_local_marginal(self):
        """The hypotheses differ only in joint correlations, never locally.

        Over each wing's (I, basis triple), the moment table's row 0 and
        column 0 hold the marginals: both are (1, 0, 0, 0) on the
        hypothesis states and on the expected final state dephased on any
        non-empty subset of its factors.
        """
        scenario = proietti_scenario()
        stochastic = CollapseHypothesis.stochastic(0.3)
        hypotheses = (UNITARY_ONLY, FRIEND_DEPHASING, SUBJECTIVE_COLLAPSE, stochastic)
        states = [scenario.exact_state_under(h) for h in hypotheses]
        rho = expected_final_state().density()
        labels = rho.space.labels
        for size in range(1, len(labels) + 1):
            states += [dephase(rho, subset) for subset in itertools.combinations(labels, size)]
        assert len(states) == 4 + 15
        ops = np.concatenate([np.eye(4)[None], _basis_triple(2)])
        wings = [states[0].space.subspace(w) for w in (scenario.alice_labels, scenario.bob_labels)]
        unit = np.array([1.0, 0.0, 0.0, 0.0])
        for state in states:
            (moments,) = _wing_moments([state], *wings, ops, ops)
            assert np.max(np.abs(moments[0] - unit)) < 1e-12
            assert np.max(np.abs(moments[:, 0] - unit)) < 1e-12


class TestClaimedBranchCollapse:
    """Branch sampling whose ensemble must be a dephasing."""

    def test_branch_recorded_and_herald_unchanged(self):
        rng = np.random.default_rng(99)
        after = claimed_branch_collapse(prepared_state().state, "A", rng)
        assert after.branch in (0, 1)
        assert after.herald_probability == pytest.approx(0.25, abs=1e-12)
        assert after.stage == "collapsed"

    def test_exact_ensemble_is_dephasing(self):
        """Weighting each realized branch by its Born probability (1/2 each)
        reproduces the dephased unitary output exactly."""
        joint = prepared_state().state
        branches = {}
        for seed in range(16):
            after = claimed_branch_collapse(joint, "A", np.random.default_rng(seed))
            branches[after.branch] = after.state.density()
            if len(branches) == 2:
                break
        assert set(branches) == {0, 1}
        ensemble = DensityOperator.mixture(
            [(0.5, branches[0]), (0.5, branches[1])]
        )
        unitary = friend_interaction(joint, "A").state.density()
        np.testing.assert_allclose(
            ensemble.matrix, dephase(unitary, ("a", "alpha")).matrix, atol=1e-12
        )

    @pytest.mark.one_blas_thread
    def test_seeded_chains_are_pinned(self):
        """16 seeded A -> B chains: their branches and the sha256 of both
        stages' amplitude bytes, frozen from the pointer-coupling route."""
        joint = prepared_state().state
        for seed, branches in enumerate(CHAIN_BRANCHES):
            rng = np.random.default_rng(seed)
            first = claimed_branch_collapse(joint, "A", rng)
            second = claimed_branch_collapse(first.state, "B", rng)
            assert (first.branch, second.branch) == branches, seed
            data = first.state.amplitudes.tobytes() + second.state.amplitudes.tobytes()
            assert hashlib.sha256(data).hexdigest() == CHAIN_DIGESTS[branches], seed

    def test_chain_builds_no_computational_measurement(self, monkeypatch):
        """After a first collapse on each side, 200 seeded collapses build no
        computational measurement: the incoming photon is collapsed by its label."""
        joint = prepared_state().state
        first = claimed_branch_collapse(joint, "A", np.random.default_rng(0))
        claimed_branch_collapse(first.state, "B", np.random.default_rng(0))
        built = []
        counting = classmethod(lambda cls, space: built.append(space))
        monkeypatch.setattr(ProjectiveMeasurement, "computational", counting)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            first = claimed_branch_collapse(joint, "A", rng)
            claimed_branch_collapse(first.state, "b", rng)
        assert built == []

    def test_collapse_builds_only_the_output_space(self, monkeypatch):
        """A claimed-branch collapse constructs one CompositeSpace, the friend
        interaction's output space: the label collapse before it builds none."""
        joint = prepared_state().state
        claimed_branch_collapse(joint, "A", np.random.default_rng(0))
        built = []
        validate_space = CompositeSpace.__post_init__
        monkeypatch.setattr(CompositeSpace, "__post_init__",
                            lambda self: built.append(self.factors) or validate_space(self))
        for seed in range(4):
            built.clear()
            after = claimed_branch_collapse(joint, "A", np.random.default_rng(seed))
            assert built == [after.state.space.factors]

    def test_fresh_chain_builds_no_frame(self):
        """In a fresh interpreter, where no earlier call can have built and cached a basis,
        one seeded A -> B chain builds and Gram-checks no measurement frame."""
        code = textwrap.dedent("""
            import numpy as np
            from wfsim import ProjectiveMeasurement, claimed_branch_collapse, prepared_state
            frames = []
            set_frame = ProjectiveMeasurement._set_frame
            ProjectiveMeasurement._set_frame = (
                lambda self, *args: frames.append(args) or set_frame(self, *args))
            rng = np.random.default_rng(5)
            first = claimed_branch_collapse(prepared_state().state, "A", rng)
            claimed_branch_collapse(first.state, "B", rng)
            print(len(frames))
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_error_paths_keep_type_and_message(self):
        """A missing incoming photon, a bad side and a 3-dim photon fail before any collapse."""
        rng = np.random.default_rng(0)
        pair = friend_pair_state("A")
        with pytest.raises(UnknownSubsystem) as missing:
            pair.space.subspace(("a",))
        with pytest.raises(UnknownSubsystem, match=re.escape(str(missing.value))):
            claimed_branch_collapse(pair, "A", rng)
        with pytest.raises(ShapeError, match="side must be 'A' or 'B', got 'C'"):
            claimed_branch_collapse(prepared_state().state, "C", rng)
        space = CompositeSpace((("a", 3), ("alpha_prime", 2), ("alpha", 2)))
        qutrit = PureState(space, np.full(12, 1 / math.sqrt(12)))
        with pytest.raises(ShapeError, match="^friend interaction is defined for two-dimensional"):
            claimed_branch_collapse(qutrit, "A", rng)


class TestCounterexample:
    """The two-agent protocol with the definite discriminating signal."""

    def test_exact_probabilities(self):
        assert counterexample_probability(UNITARY_ONLY) == pytest.approx(1.0, abs=1e-12)
        assert counterexample_probability(SUBJECTIVE_COLLAPSE) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_unitary_state_is_coherent_superposition(self):
        state = counterexample_state_under(UNITARY_ONLY)
        assert state.stage == "final"
        amp = 1 / math.sqrt(2)
        assert state.state.amplitude("uu0").real == pytest.approx(amp)
        assert state.state.amplitude("dd0").real == pytest.approx(amp)

    def test_collapse_samples_one_branch(self):
        rng = np.random.default_rng(3)
        state = counterexample_state_under(SUBJECTIVE_COLLAPSE, rng=rng)
        assert state.stage == "collapsed"
        assert state.branch in (0, 1)
        which = "uu0" if state.branch == 0 else "dd0"
        assert abs(state.state.amplitude(which)) == pytest.approx(1.0)

    def test_collapse_needs_generator(self):
        with pytest.raises(InvalidState):
            counterexample_state_under(SUBJECTIVE_COLLAPSE)

    @pytest.mark.parametrize("rng", [np.random.RandomState(0), random.Random(0), None])
    def test_draws_reject_other_random_sources(self, rng):
        """The branch and the frequencies draw only from a numpy Generator, as a collapse
        does; unitary_only draws nothing and needs none."""
        kind = type(rng).__name__
        with pytest.raises(InvalidState, match=f"Generator, got {kind}$"):
            counterexample_state_under(SUBJECTIVE_COLLAPSE, rng)
        with pytest.raises(InvalidState, match=f"Generator, got {kind}$"):
            counterexample_frequencies(SUBJECTIVE_COLLAPSE, 10, rng)
        assert counterexample_state_under(UNITARY_ONLY).stage == "final"

    def test_reductions_build_no_space(self, monkeypatch):
        """Each reduction takes its measured (label, dim) pairs as they are: a correlator, a
        pointer coupling whose pointer is present, 10 sampled branches and, after a warm
        call, 10 runs construct no CompositeSpace, and the runs no measurement frame."""
        psi = proietti_scenario().final.state
        alice, bob = DichotomicObservable.pauli("z", "a"), DichotomicObservable.pauli("x", "b")
        ready = PureState.from_mapping(CompositeSpace.qubits("s", "p"), {"00": 0.6, "10": 0.8})
        coupling = PointerCoupling("s", "p")
        rng = np.random.default_rng(12)
        counterexample_run(SUBJECTIVE_COLLAPSE, rng)
        built, frames = [], []
        validate_space = CompositeSpace.__post_init__
        monkeypatch.setattr(CompositeSpace, "__post_init__",
                            lambda self: built.append(self.factors) or validate_space(self))
        set_frame = ProjectiveMeasurement._set_frame
        monkeypatch.setattr(ProjectiveMeasurement, "_set_frame",
                            lambda self, *args: frames.append(args) or set_frame(self, *args))
        correlator(psi, alice, bob)
        couple_pointer(ready, coupling)
        for _ in range(10):
            counterexample_state_under(SUBJECTIVE_COLLAPSE, rng)
        assert built == []
        for _ in range(10):
            counterexample_run(SUBJECTIVE_COLLAPSE, rng)
        assert (built, frames) == ([], [])

    @pytest.mark.parametrize("amps", [
        (1 / math.sqrt(2), 1 / math.sqrt(2)),
        (math.sqrt(0.3), math.sqrt(0.7)),
        (math.sqrt(0.3) * np.exp(0.4j), -math.sqrt(0.7) * np.exp(-1.1j)),
    ])
    def test_branch_draw_equals_the_born_threshold(self, amps):
        """The sampled branch is the collapse draw on A's Born distribution, which is
        the threshold rule branch = 0 iff one uniform < |c_up|^2: over 3000 seeds the
        branches and the generator states afterwards agree."""
        for seed in range(3000):
            ours, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            branch = counterexample_state_under(SUBJECTIVE_COLLAPSE, ours, amps).branch
            assert branch == (0 if twin.random() < abs(amps[0]) ** 2 else 1), seed
            assert ours.bit_generator.state == twin.bit_generator.state, seed

    def test_other_hypotheses_rejected(self):
        with pytest.raises(ShapeError, match="^this scenario holds unitary_only and "
                                             "subjective_collapse only, not friend_dephasing$"):
            counterexample_state_under(FRIEND_DEPHASING)

    def test_measurement_is_complete_binary(self):
        meas = counterexample_measurement()
        assert meas.outcomes == ("photon", "no_photon")
        total = meas.projectors[0] + meas.projectors[1]
        np.testing.assert_allclose(total, np.eye(4), atol=1e-15)

    def test_unitary_runs_always_emit(self):
        rng = np.random.default_rng(8)
        assert all(counterexample_run(UNITARY_ONLY, rng) for _ in range(500))

    def test_collapse_runs_emit_half_the_time(self):
        rng = np.random.default_rng(9)
        n = 4000
        hits = sum(counterexample_run(SUBJECTIVE_COLLAPSE, rng) for _ in range(n))
        # 4 sigma around p = 1/2
        assert abs(hits / n - 0.5) < 4 * math.sqrt(0.25 / n)

    def test_batch_frequencies_match_loop_statistics(self):
        rng = np.random.default_rng(10)
        freq = counterexample_frequencies(SUBJECTIVE_COLLAPSE, 100_000, rng)
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / 100_000)
        freq_u = counterexample_frequencies(UNITARY_ONLY, 100_000, rng)
        assert freq_u == 1.0

    def test_frequencies_deterministic_per_seed(self):
        f1 = counterexample_frequencies(
            SUBJECTIVE_COLLAPSE, 1000, np.random.default_rng(77)
        )
        f2 = counterexample_frequencies(
            SUBJECTIVE_COLLAPSE, 1000, np.random.default_rng(77)
        )
        assert f1 == f2

    @pytest.mark.parametrize("amps", [(1 / math.sqrt(2),) * 2, (math.sqrt(0.8), math.sqrt(0.2))])
    def test_collapse_density_is_the_dephased_unitary_state(self, amps):
        unitary = counterexample_state_under(UNITARY_ONLY, amplitudes=amps).state.density()
        ((weight, rho),) = _counterexample(amps, density=True).held_terms(SUBJECTIVE_COLLAPSE)
        assert weight == 1.0
        assert np.array_equal(rho.matrix, dephase(unitary, ("A",)).matrix)

    @pytest.mark.parametrize("amps", [(1, 0, 5), (1,), ()])
    def test_amplitudes_other_than_two_are_rejected(self, amps):
        """Only amplitudes[0] and [1] were read: (1, 0, 5) dropped the 5 and gave
        P = 0.5 under unitary_only, and (1,) raised a bare IndexError."""
        for hypothesis in ("unitary_only", "subjective_collapse"):
            with pytest.raises(ShapeError, match=f"two branch amplitudes .*got {len(amps)}$"):
                counterexample_probability(hypothesis, amplitudes=amps)
            with pytest.raises(ShapeError, match=f"two branch amplitudes .*got {len(amps)}$"):
                counterexample_state_under(hypothesis, np.random.default_rng(0), amps)

    @pytest.mark.parametrize("runs", [0, -1, 2**63, 1.5, True])
    def test_frequencies_reject_runs_outside_the_int64_range(self, runs):
        """A bare binomial would raise OverflowError at 2**63 and truncate 1.5."""
        with pytest.raises(ShapeError, match="runs must be an integer"):
            counterexample_frequencies(SUBJECTIVE_COLLAPSE, runs, np.random.default_rng(0))

    def test_unequal_amplitudes(self):
        """Hand-derived: under collapse P = w |<phi+|uu>|^2 + (1-w) |<phi+|dd>|^2
        = 1/2 for any branch weight w, while the unitary interference term
        gives |c_up + c_down|^2 / 2 = 0.9 for weights (0.8, 0.2); complex phases
        enter the unitary term only."""
        for amps in ((math.sqrt(0.8), math.sqrt(0.2)),
                     (math.sqrt(0.8), math.sqrt(0.2) * np.exp(1j * math.pi / 3)),
                     (math.sqrt(0.3) * np.exp(0.4j), -math.sqrt(0.7) * np.exp(-1.1j))):
            p_col = counterexample_probability(SUBJECTIVE_COLLAPSE, amplitudes=amps)
            assert p_col == pytest.approx(0.5, abs=1e-12)
            p_uni = counterexample_probability(UNITARY_ONLY, amplitudes=amps)
            assert p_uni == pytest.approx(abs(amps[0] + amps[1]) ** 2 / 2, abs=1e-12)

    @pytest.mark.parametrize("hypothesis", ["unitary_only", "subjective_collapse"])
    @pytest.mark.parametrize("amps", [(1 / math.sqrt(2),) * 2, (math.sqrt(0.8), math.sqrt(0.2))])
    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.SFC64, np.random.Philox],
    )
    def test_frequencies_are_one_binomial_draw(self, hypothesis, amps, bit_generator):
        """The frequency and the final generator state equal those of one
        binomial draw at the exact probability, for every bit generator."""
        runs = 123_457
        reference, drawn = (np.random.Generator(bit_generator(41)) for _ in range(2))
        p = counterexample_probability(hypothesis, amplitudes=amps)
        expected = reference.binomial(runs, p) / runs
        assert counterexample_frequencies(hypothesis, runs, drawn, amplitudes=amps) == expected
        np.testing.assert_equal(drawn.bit_generator.state, reference.bit_generator.state)


class TestHeldScenario:
    """One holder of the ensemble rule for every scenario that mixes dephasings."""

    @staticmethod
    def _instances():
        singlet = HeldScenario(bell_singlet(), SINGLET_ORDER[:1], SINGLET_ORDER[1:],
                               variants=("unitary_only",))
        every = [UNITARY_ONLY, FRIEND_PROJECTIVE, FRIEND_DEPHASING, SUBJECTIVE_COLLAPSE,
                 CollapseHypothesis.stochastic(0.3)]
        return [
            (ProiettiScenario(), every, 4),
            (singlet, [UNITARY_ONLY], 0),
            (_counterexample((1 / math.sqrt(2),) * 2, density=True),
             [UNITARY_ONLY, SUBJECTIVE_COLLAPSE], 1),
        ]

    def test_each_dephasing_is_built_once_per_instance(self, monkeypatch):
        """Every allowed hypothesis asked twice: one dephase call per distinct dephased set
        (4 for the four-photon scenario, 0 for the singlet, 1 for the counterexample),
        the same held object on each ask, and one held unitary state throughout."""
        calls = []
        monkeypatch.setattr(wfsim.scenarios, "dephase",
                            lambda rho, on: calls.append(on) or dephase(rho, on))
        for scenario, hypotheses, distinct in self._instances():
            calls.clear()
            ((_, unitary),) = scenario.held_terms(UNITARY_ONLY)
            first = [[id(rho) for _, rho in scenario.held_terms(h)] for h in hypotheses]
            second = [[id(rho) for _, rho in scenario.held_terms(h)] for h in hypotheses]
            assert len(calls) == len(set(calls)) == distinct
            assert first == second
            assert scenario.held_terms(UNITARY_ONLY)[0][1] is unitary
            for h, ids in zip(hypotheses, first):
                if h.variant in ("unitary_only", "stochastic_collapse"):
                    assert ids[0] == id(unitary)  # the term with no site fired

    def test_counterexample_checks_build_no_density(self, monkeypatch):
        """Checking a hypothesis per state or per run builds no density; only
        counterexample_probability holds one."""
        built = []
        validate_density = DensityOperator.__post_init__
        monkeypatch.setattr(DensityOperator, "__post_init__",
                            lambda self: built.append(self) or validate_density(self))
        rng = np.random.default_rng(4)
        for hypothesis in (UNITARY_ONLY, SUBJECTIVE_COLLAPSE):
            counterexample_state_under(hypothesis, rng)
            counterexample_run(hypothesis, rng)
        with pytest.raises(ShapeError, match="holds unitary_only and subjective_collapse only"):
            counterexample_run(FRIEND_DEPHASING, rng)  # the variant rule builds no density
        assert built == []


class TestBellSinglet:
    def test_amplitudes(self):
        psi = bell_singlet()
        assert psi.space.labels == ("e1", "e2")
        assert psi.amplitude("ud").real == pytest.approx(1 / math.sqrt(2))
        assert psi.amplitude("du").real == pytest.approx(-1 / math.sqrt(2))

    def test_perfect_anticorrelation(self):
        from wfsim import DichotomicObservable, correlator

        value = correlator(
            bell_singlet(),
            DichotomicObservable.pauli("z", "e1"),
            DichotomicObservable.pauli("z", "e2"),
        )
        assert value == pytest.approx(-1.0, abs=1e-12)
