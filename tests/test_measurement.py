"""Tests for pointer coupling, mixtures, dephasing, and Born sampling."""

import math

import numpy as np
import pytest
from scipy import stats

from wfsim import (
    InvariantViolation,
    CollapseHypothesis,
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    InvalidState,
    PointerCoupling,
    PointerNotReady,
    ProjectiveMeasurement,
    PureState,
    ShapeError,
    UNITARY_ONLY,
    born_probabilities,
    coherence_norm,
    couple_pointer,
    dephase,
    improper_mixture,
    partial_trace,
    projective_collapse,
    purity,
)

from wfsim.measurement import _clipped_distribution

from _oracles import random_pure

SQRT2 = math.sqrt(2.0)


class TestPointerCoupling:
    """The unitary copy interaction."""

    def test_appends_missing_pointer_factor(self):
        psi = PureState(
            CompositeSpace.qubits("s"), np.array([1.0, 1.0]) / SQRT2
        )
        coupled = couple_pointer(psi, PointerCoupling("s", "p"))
        assert coupled.space.labels == ("s", "p")
        assert coupled.amplitude("00") == pytest.approx(1 / SQRT2)
        assert coupled.amplitude("11") == pytest.approx(1 / SQRT2)
        assert coupled.amplitude("01") == 0.0

    def test_copies_onto_present_ready_pointer(self):
        space = CompositeSpace.qubits("s", "p")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "10": 1 / SQRT2})
        coupled = couple_pointer(psi, PointerCoupling("s", "p"))
        assert coupled.amplitude("00") == pytest.approx(1 / SQRT2)
        assert coupled.amplitude("11") == pytest.approx(1 / SQRT2)

    def test_rejects_pointer_not_ready(self):
        space = CompositeSpace.qubits("s", "p")
        psi = PureState.from_mapping(space, {"01": 1.0})
        with pytest.raises(PointerNotReady):
            couple_pointer(psi, PointerCoupling("s", "p"))

    def test_norm_preserved_on_random_states(self):
        """The coupling restricted to the ready sector is an isometry."""
        rng = np.random.default_rng(7)
        for _ in range(20):
            psi = PureState(CompositeSpace.qubits("s", "e"), random_pure(rng, 4))
            coupled = couple_pointer(psi, PointerCoupling("s", "m"))
            assert coupled.squared_norm == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelated_copy_basis(self):
        psi = PureState(CompositeSpace.qubits("s"), np.array([1.0, 0.0]))
        coupled = couple_pointer(
            psi, PointerCoupling("s", "p", copy_basis=(1, 0))
        )
        assert coupled.amplitude("01") == pytest.approx(1.0)

    def test_present_pointer_dimension_bounds_the_copy_map(self):
        """The copy map is checked against the pointer factor's own dimension."""
        narrow = PureState.basis(CompositeSpace((("s", 3), ("p", 2))), (1, 0))
        with pytest.raises(ShapeError, match="pointer dimension 2"):
            couple_pointer(narrow, PointerCoupling("s", "p", copy_basis=(0, 1, 2)))
        wide = PureState.basis(CompositeSpace((("s", 2), ("p", 3))), (1, 2))
        coupled = couple_pointer(wide, PointerCoupling("s", "p", (0, 1), pointer_ready_index=2))
        assert coupled.amplitude((1, 1)) == 1.0

    def test_copy_map_must_be_injective(self):
        with pytest.raises(InvalidState):
            PointerCoupling("s", "p", copy_basis=(0, 0))

    def test_same_label_rejected(self):
        with pytest.raises(ShapeError):
            PointerCoupling("s", "s")


class TestMixtures:
    """Improper versus proper descriptions of the same diagonal."""

    def test_improper_mixture_is_partial_trace(self):
        rng = np.random.default_rng(13)
        psi = PureState(CompositeSpace.qubits("s", "p"), random_pure(rng, 4))
        np.testing.assert_allclose(
            improper_mixture(psi, ("s",)).matrix,
            partial_trace(psi.density(), ("s",)).matrix,
            atol=1e-15,
        )

    def test_dephase_erases_targeted_coherence(self):
        space = CompositeSpace.qubits("s", "p")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "11": 1 / SQRT2})
        rho = dephase(psi.density(), ("s", "p"))
        assert coherence_norm(rho) == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(rho.diagonal(), [0.5, 0, 0, 0.5], atol=1e-14)

    def test_dephase_preserves_diagonal_and_trace(self):
        rng = np.random.default_rng(14)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        rho = psi.density()
        deph = dephase(rho, ("a",))
        np.testing.assert_allclose(deph.diagonal(), rho.diagonal(), atol=1e-15)

    def test_dephase_is_idempotent(self):
        rng = np.random.default_rng(15)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        once = dephase(psi.density(), ("a",))
        twice = dephase(once, ("a",))
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-15)

    def test_dephase_subset_keeps_untargeted_coherence(self):
        """Dephasing one factor spares coherences it cannot see."""
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "01": 1 / SQRT2})
        deph = dephase(psi.density(), ("a",))
        assert coherence_norm(deph, ("b",)) == pytest.approx(1.0, abs=1e-12)
        deph_b = dephase(psi.density(), ("b",))
        assert coherence_norm(deph_b) == pytest.approx(0.0, abs=1e-15)

    def test_reduced_state_equals_dephased_reduced_state_diagonal(self):
        """The diagnosis the package exists for: same diagonal, different origin."""
        space = CompositeSpace.qubits("s")
        psi = PureState(space, np.array([1.0, 1.0]) / SQRT2)
        coupled = couple_pointer(psi, PointerCoupling("s", "p"))
        improper = improper_mixture(coupled, ("s",))
        proper = partial_trace(dephase(coupled.density(), ("s", "p")), ("s",))
        np.testing.assert_allclose(improper.matrix, proper.matrix, atol=1e-14)
        assert purity(coupled.density()) == pytest.approx(1.0, abs=1e-12)
        assert purity(improper) == pytest.approx(0.5, abs=1e-12)


class TestProjectiveMeasurement:
    def test_computational_projectors(self):
        meas = ProjectiveMeasurement.computational(CompositeSpace.qubits("a", "b"))
        assert len(meas.projectors) == 4
        assert meas.outcomes == ("00", "01", "10", "11")

    def test_of_observable_outcome_order(self):
        meas = ProjectiveMeasurement.of_observable(
            DichotomicObservable.pauli("z", "q")
        )
        assert meas.outcomes == ("+1", "-1")
        np.testing.assert_allclose(meas.projectors[0], np.diag([1.0, 0.0]), atol=1e-15)

    def test_rejects_incomplete_projectors(self):
        space = CompositeSpace.qubits("q")
        p0 = np.diag([1.0, 0.0])
        with pytest.raises(InvalidState):
            ProjectiveMeasurement(space, (p0,), ("only",))

    def test_rejects_non_idempotent(self):
        space = CompositeSpace.qubits("q")
        p = np.diag([0.6, 0.0])
        with pytest.raises(InvalidState):
            ProjectiveMeasurement(space, (p, np.eye(2) - p), ("a", "b"))

    def test_binary_complement(self):
        space = CompositeSpace.qubits("q")
        meas = ProjectiveMeasurement.binary(space, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(
            meas.projectors[0] + meas.projectors[1], np.eye(2), atol=1e-15
        )

    def test_rejects_non_hermitian(self):
        """[[1, 1], [0, 0]] is idempotent and completes to I, but is not hermitian."""
        space = CompositeSpace.qubits("q")
        p = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InvalidState, match="projector 0 is not hermitian"):
            ProjectiveMeasurement(space, (p, np.eye(2) - p), ("a", "b"))

    def test_rejects_overlap_below_the_entrywise_tolerance(self):
        """Rank-1 projectors on spread vectors u, w with <u|w> = 2e-9: every entry
        of P_0 P_1 and of the third projector's idempotence residual stays below
        1e-10, but the Gram block V_0^dag V_1 has norm 2e-9."""
        space = CompositeSpace.qubits(*"abcdef")
        u = np.ones(64) / 8
        w = np.resize([1.0, -1.0], 64) / 8 + 2e-9 * u
        w /= np.linalg.norm(w)
        p0, p1 = np.outer(u, u), np.outer(w, w)
        assert np.abs(p0 @ p1).max() < 1e-10
        with pytest.raises(InvalidState, match="projectors 0 and 1 are not orthogonal"):
            ProjectiveMeasurement(space, (p0, p1, np.eye(64) - p0 - p1), ("u", "w", "rest"))

    def test_rejects_wrong_shape(self):
        space = CompositeSpace.qubits("q")
        with pytest.raises(ShapeError, match=r"projector 1 has shape \(3, 3\)"):
            ProjectiveMeasurement(space, (np.diag([1.0, 0.0]), np.eye(3)), ("a", "b"))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError, match="at least one projector"):
            ProjectiveMeasurement(CompositeSpace.qubits("q"), (), ())

    def test_rejects_outcome_count_mismatch(self):
        space = CompositeSpace.qubits("q")
        with pytest.raises(ShapeError, match="one outcome name per projector"):
            ProjectiveMeasurement(space, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), ("a",))

    def test_rejects_non_finite(self):
        space = CompositeSpace.qubits("q")
        projectors = (np.diag([math.nan, 0.0]), np.diag([0.0, 1.0]))
        with pytest.raises(InvalidState, match="non-finite"):
            ProjectiveMeasurement(space, projectors, ("a", "b"))

    def test_projectors_are_one_read_only_stack(self):
        space = CompositeSpace.qubits("q")
        given = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        meas = ProjectiveMeasurement(space, given, ("a", "b"))
        given[0][0, 0] = 0.5
        assert isinstance(meas.projectors, np.ndarray)
        assert meas.projectors.shape == (2, 2, 2) and meas.projectors.dtype == complex
        assert meas.projectors[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            meas.projectors[0, 0, 0] = 0.0

    def test_computational_on_mixed_dimensions(self):
        """Qutrit (x) qubit: outcomes named in C order; Born gives the |psi|^2 marginals."""
        space = CompositeSpace((("t", 3), ("q", 2), ("e", 2)))
        meas = ProjectiveMeasurement.computational(space.subspace(("t", "q")))
        assert meas.outcomes == ("00", "01", "10", "11", "20", "21")
        assert meas.projectors.shape == (6, 6, 6)
        psi = PureState(space, random_pure(np.random.default_rng(41), space.dim))
        marginals = (np.abs(psi.amplitudes) ** 2).reshape(6, 2).sum(axis=1)
        np.testing.assert_allclose(born_probabilities(psi, meas), marginals, atol=1e-13)
        np.testing.assert_allclose(born_probabilities(psi, ("t", "q")), marginals, atol=1e-13)


class TestBornProbabilities:
    def test_computational_basis_matches_amplitudes(self):
        rng = np.random.default_rng(23)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        probs = born_probabilities(psi, ("a", "b"))
        np.testing.assert_allclose(probs, np.abs(psi.amplitudes) ** 2, atol=1e-13)

    def test_single_label_string_accepted(self):
        space = CompositeSpace.qubits("alpha", "beta")
        psi = PureState.from_mapping(space, {"01": 1.0})
        probs = born_probabilities(psi, "alpha")
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-14)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            psi = PureState(CompositeSpace.qubits("a", "b", "c"), random_pure(rng, 8))
            probs = born_probabilities(psi, ("b",))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= 0).all()

    def test_nan_total_raises(self):
        """A NaN total fails the sum-to-1 guard instead of passing it."""
        with pytest.raises(InvariantViolation):
            _clipped_distribution(np.array([math.nan, math.nan]))

    def test_observable_argument(self):
        psi = PureState.basis(CompositeSpace.qubits("q"), "0")
        probs = born_probabilities(psi, DichotomicObservable.pauli("x", "q"))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-13)


class TestProjectiveCollapse:
    """Seeded sampling and post-measurement states."""

    def test_requires_generator(self):
        psi = PureState.basis(CompositeSpace.qubits("q"), "0")
        with pytest.raises(InvalidState):
            projective_collapse(psi, on=("q",))

    def test_certain_outcome(self):
        psi = PureState.basis(CompositeSpace.qubits("q"), "1")
        outcome, post = projective_collapse(
            psi, on=("q",), rng=np.random.default_rng(0)
        )
        assert outcome == 1
        assert post.amplitude("1") == pytest.approx(1.0)

    def test_post_state_is_normalized_eigenstate(self):
        rng = np.random.default_rng(31)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        outcome, post = projective_collapse(psi, on=("a",), rng=rng)
        assert post.squared_norm == pytest.approx(1.0, abs=1e-12)
        probs = born_probabilities(post, ("a",))
        assert probs[outcome] == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_same_outcome(self):
        space = CompositeSpace.qubits("q")
        psi = PureState(space, np.array([1.0, 1.0]) / SQRT2)
        runs_a = [
            projective_collapse(psi, on=("q",), rng=np.random.default_rng(s))[0]
            for s in range(20)
        ]
        runs_b = [
            projective_collapse(psi, on=("q",), rng=np.random.default_rng(s))[0]
            for s in range(20)
        ]
        assert runs_a == runs_b

    def test_outcome_frequencies_match_born_rule(self):
        """Chi-square goodness of fit on an uneven three-way split."""
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(
            space, {"00": math.sqrt(0.5), "01": math.sqrt(0.3), "10": math.sqrt(0.2)}
        )
        rng = np.random.default_rng(2024)
        n = 100_000
        counts = np.zeros(4)
        for _ in range(n):
            outcome, _ = projective_collapse(psi, on=("a", "b"), rng=rng)
            counts[outcome] += 1
        expected = born_probabilities(psi, ("a", "b")) * n
        kept = expected > 0
        result = stats.chisquare(counts[kept], expected[kept])
        assert result.pvalue > 0.001

    def test_zero_probability_outcome_never_sampled(self):
        space = CompositeSpace.qubits("a")
        psi = PureState.basis(space, "0")
        rng = np.random.default_rng(5)
        for _ in range(200):
            outcome, _ = projective_collapse(psi, on=("a",), rng=rng)
            assert outcome == 0

    def test_label_mismatch_with_explicit_basis(self):
        psi = PureState.basis(CompositeSpace.qubits("a", "b"), "00")
        meas = ProjectiveMeasurement.computational(psi.space.subspace(("a",)))
        with pytest.raises(ShapeError):
            projective_collapse(psi, on=("b",), basis=meas, rng=np.random.default_rng(0))


class TestCollapseHypothesis:
    def test_parse_plain_names(self):
        assert CollapseHypothesis.parse("unitary_only") == UNITARY_ONLY
        assert CollapseHypothesis.parse("friend_dephasing").variant == "friend_dephasing"

    def test_parse_stochastic(self):
        hyp = CollapseHypothesis.parse("stochastic_collapse(0.3)")
        assert hyp.variant == "stochastic_collapse"
        assert hyp.probability == pytest.approx(0.3)
        assert hyp.name == "stochastic_collapse(0.3)"

    def test_names_round_trip(self):
        """:g where it parses back to p, so today's names keep their bytes; repr otherwise."""
        for p, name in ((0.0, "0"), (0.1, "0.1"), (0.3, "0.3"), (1.0, "1"), (1e-07, "1e-07")):
            assert CollapseHypothesis.stochastic(p).name == f"stochastic_collapse({name})"
        for p in (0.1234567, 0.1234568, 1.0 / 3.0, 0.7000000000000001):
            hyp = CollapseHypothesis.stochastic(p)
            assert CollapseHypothesis.parse(hyp.name) == hyp

    def test_parse_stochastic_keyword_form(self):
        hyp = CollapseHypothesis.parse("stochastic_collapse(p=0.5)")
        assert hyp.probability == pytest.approx(0.5)

    def test_unknown_variant_rejected(self):
        with pytest.raises(InvalidState):
            CollapseHypothesis.parse("spontaneous_collapse")

    def test_probability_bounds(self):
        with pytest.raises(InvalidState):
            CollapseHypothesis.stochastic(1.5)
        with pytest.raises(InvalidState):
            CollapseHypothesis.stochastic(-0.1)

    def test_probability_only_for_stochastic(self):
        with pytest.raises(InvalidState):
            CollapseHypothesis("unitary_only", probability=0.5)
