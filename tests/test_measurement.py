"""Tests for pointer coupling, mixtures, dephasing, and Born sampling."""

import fractions
import math
import random
import re

import numpy as np
import pytest
from scipy import stats

import wfsim.chsh
import wfsim.hilbert
import wfsim.scenarios
from wfsim import (
    InvariantViolation,
    CollapseHypothesis,
    ConfigError,
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    InvalidState,
    PointerCoupling,
    PointerNotReady,
    ProjectiveMeasurement,
    PureState,
    ScenarioConfig,
    ShapeError,
    UNITARY_ONLY,
    born_probabilities,
    coherence_norm,
    couple_pointer,
    dephase,
    improper_mixture,
    observable_from_bloch,
    partial_trace,
    projective_collapse,
    purity,
)

from wfsim.measurement import _clipped_distribution, _draw
from wfsim.scenarios import HeldScenario

from _oracles import random_density, random_pure

SQRT2 = math.sqrt(2.0)


def labelled_cases(seed: int, count: int):
    """``count`` (space, measured labels in random order, rng) triples on 1-4 factors of dim 2-3."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dims = rng.integers(2, 4, size=int(rng.integers(1, 5)))
        space = CompositeSpace(tuple((f"f{k}", int(d)) for k, d in enumerate(dims)))
        measured = rng.permutation(space.labels)[: int(rng.integers(1, dims.size + 1))]
        yield space, tuple(map(str, measured)), rng


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

    def test_pointer_indices_are_whole_numbers(self):
        """A copy map index of 1.7 was truncated to 1 and True read as 1; a ready index of
        "0" raised a bare TypeError and 1.0 an IndexError on coupling.  Numpy integers and
        integral floats are still indices."""
        for bad in ((0, 1.7), (0, True), (0, "1")):
            with pytest.raises(ShapeError, match="a copy map index must be a whole number"):
                PointerCoupling("s", "p", copy_basis=bad)
        for bad in (0.5, True, "0"):
            with pytest.raises(ShapeError, match="the pointer's ready index must be a whole"):
                PointerCoupling("s", "p", pointer_ready_index=bad)
        coupling = PointerCoupling("s", "p", copy_basis=(np.int64(1), 0.0), pointer_ready_index=1.0)
        assert coupling.copy_basis == (1, 0) and type(coupling.pointer_ready_index) is int
        system = PureState(CompositeSpace.qubits("s"), np.array([0.6, 0.8]))
        assert couple_pointer(system, coupling).amplitude("01") == pytest.approx(0.6)


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

    def test_dephase_of_anything_but_a_density_is_invalid(self):
        """A PureState died on ``.matrix`` with an AttributeError, also inside a holder's held
        terms and a comparison; dephase raises InvalidState naming the type up front."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        for state, kind in ((psi, "PureState"), (psi.density().matrix, "ndarray")):
            with pytest.raises(InvalidState, match=f"dephase needs a DensityOperator, got {kind}$"):
                dephase(state, ("a",))
        holder = HeldScenario(psi, ("a",), ("b",), sites=(("a",),), friends=("a",))
        for hypothesis in ("friend_dephasing", "subjective_collapse", "stochastic_collapse(0.5)"):
            with pytest.raises(InvalidState, match="got PureState$"):
                holder.held_terms(hypothesis)
            with pytest.raises(InvalidState, match="got PureState$"):
                wfsim.chsh.hypothesis_comparison(holder, [hypothesis])

    def test_purity_and_mixture_of_anything_but_a_density_are_invalid(self):
        """``purity(psi)`` and a mixture of PureStates died on ``.matrix`` with an
        AttributeError; both raise InvalidState naming the type up front, as dephase does."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        with pytest.raises(InvalidState, match="purity needs a DensityOperator, got PureState$"):
            purity(psi)
        for weighted in ([(0.5, psi), (0.5, psi)], [(0.5, psi.density()), (0.5, psi)]):
            with pytest.raises(InvalidState, match="mixture needs a DensityOperator, got PureState$"):
                DensityOperator.mixture(weighted)

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

    def test_computational_names_are_the_index_digits(self):
        """Each outcome name joins the decimal digits of its C-order index, so a
        factor of dimension >= 10 contributes two characters: (3, 2, 11) gives "0010"."""
        for dims in ((3, 2, 11), (2, 12), (11,), (2, 3, 2)):
            space = CompositeSpace(tuple((f"f{k}", d) for k, d in enumerate(dims)))
            names = ProjectiveMeasurement.computational(space).outcomes
            assert names == tuple("".join(map(str, ix)) for ix in np.ndindex(dims))
            if dims == (3, 2, 11):
                assert names[10] == "0010"


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

    @pytest.mark.one_blas_thread
    def test_labels_born_equals_computational_frame(self):
        """Labels give bitwise the distribution of the explicit computational measurement."""
        for space, measured, rng in labelled_cases(61, 200):
            frame = ProjectiveMeasurement.computational(space.subspace(measured))
            for state in (PureState(space, random_pure(rng, space.dim)),
                          DensityOperator(space, random_density(rng, space.dim))):
                assert np.array_equal(born_probabilities(state, measured),
                                      born_probabilities(state, frame))


class TestProjectiveCollapse:
    """Seeded sampling and post-measurement states."""

    def test_requires_generator(self):
        psi = PureState.basis(CompositeSpace.qubits("q"), "0")
        with pytest.raises(InvalidState):
            projective_collapse(psi, ("q",))

    def test_rejects_other_random_sources(self):
        """A legacy RandomState or a stdlib Random raises InvalidState, not a silent draw."""
        psi = PureState(CompositeSpace.qubits("q"), np.array([1.0, 1.0]) / SQRT2)
        for rng in (np.random.RandomState(0), random.Random(0)):
            with pytest.raises(InvalidState, match=f"Generator, got {type(rng).__name__}$"):
                projective_collapse(psi, ("q",), rng=rng)

    @pytest.mark.one_blas_thread
    def test_draw_equals_choice(self):
        """One uniform against the cumulative distribution gives rng.choice's outcome and
        leaves the generator where choice leaves it, zero entries at either end included."""
        rng = np.random.default_rng(62)
        for case in range(2000):
            weights = rng.random(int(rng.integers(1, 9)))
            weights[rng.random(weights.size) < 0.3] = 0.0
            weights[: int(rng.integers(0, 3))] = 0.0  # leading zeros
            weights[weights.size - int(rng.integers(0, 3)):] = 0.0  # trailing zeros
            if not weights.any():
                weights[int(rng.integers(weights.size))] = 1.0
            probs = _clipped_distribution(weights / weights.sum())
            ours, twin = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(3):
                assert _draw(probs, ours) == twin.choice(probs.size, p=probs)
            assert ours.bit_generator.state == twin.bit_generator.state

    @pytest.mark.one_blas_thread
    def test_labels_collapse_equals_computational_frame(self):
        """On twin generators, labels and the explicit computational measurement give the
        same outcome and equal amplitudes."""
        for case, (space, measured, rng) in enumerate(labelled_cases(63, 200)):
            psi = PureState(space, random_pure(rng, space.dim))
            frame = ProjectiveMeasurement.computational(space.subspace(measured))
            by_labels = projective_collapse(psi, measured, rng=np.random.default_rng(case))
            by_frame = projective_collapse(psi, basis=frame, rng=np.random.default_rng(case))
            assert by_labels[0] == by_frame[0]
            assert np.array_equal(by_labels[1].amplitudes, by_frame[1].amplitudes)

    def test_labels_build_no_measurement(self, monkeypatch):
        """200 labelled collapses and Born calls never build or Gram-check a frame."""
        checked = []
        monkeypatch.setattr(ProjectiveMeasurement, "_set_frame",
                            lambda self, *args: checked.append(args))
        for space, measured, rng in labelled_cases(64, 100):
            psi = PureState(space, random_pure(rng, space.dim))
            projective_collapse(psi, measured, rng=rng)
            born_probabilities(psi, measured)
        assert checked == []

    def test_labels_collapse_builds_no_space(self, monkeypatch):
        """A collapse or a Born call by labels reads the measured (label, dim) pairs off the
        state's space: 100 collapses and Born calls on each pure state and its density
        construct no CompositeSpace, the post-measurement state reusing its own."""
        cases = [(PureState(space, random_pure(rng, space.dim)), measured, rng)
                 for space, measured, rng in labelled_cases(66, 100)]
        densities = [psi.density() for psi, _, _ in cases]
        built = []
        validate_space = CompositeSpace.__post_init__
        monkeypatch.setattr(CompositeSpace, "__post_init__",
                            lambda self: built.append(self.factors) or validate_space(self))
        for (psi, measured, rng), rho in zip(cases, densities):
            _, post = projective_collapse(psi, measured, rng=rng)
            assert post.space is psi.space
            born_probabilities(psi, measured)
            born_probabilities(rho, measured)
        assert built == []

    def test_collapse_on_no_labels_is_rejected(self):
        """An empty label tuple or list, or None, names no measurement: Born and collapse
        raise ShapeError before any draw."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for basis in ((), [], None):
            with pytest.raises(ShapeError, match="give either measured labels or an explicit"):
                projective_collapse(psi, basis, rng=rng)
            with pytest.raises(ShapeError, match="give either measured labels or an explicit"):
                born_probabilities(psi, basis)
        assert rng.bit_generator.state == before

    def test_one_permutation_per_collapse(self, monkeypatch):
        """A collapse by labels or by a held frame computes one ``_front_order``
        permutation and takes the branch back with that same one."""
        calls = []
        front_order = wfsim.hilbert._front_order
        monkeypatch.setattr(wfsim.hilbert, "_front_order",
                            lambda *args: calls.append(args) or front_order(*args))
        for space, measured, rng in labelled_cases(65, 20):
            psi = PureState(space, random_pure(rng, space.dim))
            frame = ProjectiveMeasurement.computational(space.subspace(measured))
            for basis in (measured, frame):
                calls.clear()
                projective_collapse(psi, basis, rng=rng)
                assert len(calls) == 1, (space, measured, basis)

    def test_certain_outcome(self):
        psi = PureState.basis(CompositeSpace.qubits("q"), "1")
        outcome, post = projective_collapse(psi, ("q",), rng=np.random.default_rng(0))
        assert outcome == 1
        assert post.amplitude("1") == pytest.approx(1.0)

    def test_post_state_is_normalized_eigenstate(self):
        rng = np.random.default_rng(31)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        outcome, post = projective_collapse(psi, ("a",), rng=rng)
        assert post.squared_norm == pytest.approx(1.0, abs=1e-12)
        probs = born_probabilities(post, ("a",))
        assert probs[outcome] == pytest.approx(1.0, abs=1e-12)

    def test_same_seed_same_outcome(self):
        space = CompositeSpace.qubits("q")
        psi = PureState(space, np.array([1.0, 1.0]) / SQRT2)
        runs_a = [
            projective_collapse(psi, ("q",), rng=np.random.default_rng(s))[0]
            for s in range(20)
        ]
        runs_b = [
            projective_collapse(psi, ("q",), rng=np.random.default_rng(s))[0]
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
            outcome, _ = projective_collapse(psi, ("a", "b"), rng=rng)
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
            outcome, _ = projective_collapse(psi, ("a",), rng=rng)
            assert outcome == 0

    def test_rejects_mixed_and_sub_normalized_states(self):
        """A density operator fails up front by type, and a raw heralded branch by its norm."""
        space = CompositeSpace.qubits("e1", "e2")
        rho = PureState.from_mapping(space, {"01": 1 / SQRT2, "10": -1 / SQRT2}).density()
        with pytest.raises(InvalidState, match="got DensityOperator.*born_probabilities or dephase"):
            projective_collapse(rho, ("e1",), rng=np.random.default_rng(0))
        branch = PureState.from_mapping(space, {"01": 0.5}, normalized=False)
        with pytest.raises(InvalidState, match="sub-normalized"):
            projective_collapse(branch, ("e1",), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("basis", [("a",), "a", np.eye(2), np.eye(4)])
    def test_basis_that_is_no_measurement_is_rejected_before_a_draw(self, basis):
        """A matrix given as ``basis`` is no measurement: it raises ShapeError and leaves the
        generator untouched.  Labels or a string given as ``basis`` are the measured labels
        and collapse exactly as ``("a",)`` does on a twin generator."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        before = rng.bit_generator.state
        if isinstance(basis, np.ndarray):
            with pytest.raises(ShapeError, match="a ndarray is no labels"):
                projective_collapse(psi, basis=basis, rng=rng)
            assert rng.bit_generator.state == before
            return
        outcome, post = projective_collapse(psi, basis=basis, rng=rng)
        want_outcome, want = projective_collapse(psi, ("a",), twin)
        assert outcome == want_outcome
        assert post.amplitudes.tobytes() == want.amplitudes.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_observable_frame_is_built_once(self, monkeypatch):
        """100 collapses and a Born call with one observable build its frame once."""
        built = []
        of_observable = ProjectiveMeasurement.of_observable

        def counting(cls, obs):
            built.append(obs)
            return of_observable(obs)

        monkeypatch.setattr(ProjectiveMeasurement, "of_observable", classmethod(counting))
        rng = np.random.default_rng(13)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        obs = observable_from_bloch(0.7, 0.3, CompositeSpace.qubits("b"))
        for _ in range(100):
            projective_collapse(psi, basis=obs, rng=rng)
        born_probabilities(psi, obs)
        assert built == [obs]
        assert obs.measurement is obs.measurement

    def test_held_frame_collapses_like_a_fresh_one(self):
        """Outcomes and amplitude bytes with the held frame equal those of a new of_observable."""
        rng = np.random.default_rng(17)
        space = CompositeSpace.qubits("a", "b", "c")
        obs = DichotomicObservable(
            CompositeSpace.qubits("c", "a"),
            np.kron(observable_from_bloch(1.1, -0.4, CompositeSpace.qubits("x")).matrix,
                    np.diag([1.0, -1.0])),
        )
        obs.measurement  # built once, before the seeded collapses
        for seed in range(50):
            psi = PureState(space, random_pure(rng, 8))
            held = projective_collapse(psi, basis=obs, rng=np.random.default_rng(seed))
            fresh = projective_collapse(
                psi, basis=ProjectiveMeasurement.of_observable(obs), rng=np.random.default_rng(seed)
            )
            assert held[0] == fresh[0]
            assert held[1].amplitudes.tobytes() == fresh[1].amplitudes.tobytes()


def measured_kinds():
    """Every kind of measurement argument, on qubits (a, b, c): labels as a string, a tuple
    and a list, an observable, an explicit measurement and the computational one."""
    space = CompositeSpace.qubits("a", "b", "c")
    plus = ProjectiveMeasurement.binary(space.subspace("c"), np.full((2, 2), 0.5))
    return {
        "string": "b",
        "tuple": ("b", "a"),
        "list": ["c", "a"],
        "observable": observable_from_bloch(0.7, 0.3, CompositeSpace.qubits("b")),
        "measurement": plus,
        "computational": ProjectiveMeasurement.computational(space.subspace(("c", "b"))),
    }


class TestOneMeasurementArgument:
    """Born and collapse take one measurement argument, ``basis``, classified by one rule."""

    @pytest.mark.parametrize("kind", list(measured_kinds()))
    def test_born_and_collapse_take_the_same_basis(self, kind):
        """Each kind gives one Born distribution: a collapse draws its outcome from exactly
        ``born_probabilities`` (a twin generator's ``_draw`` on it), and the branch has
        that outcome with certainty."""
        basis = measured_kinds()[kind]
        psi = PureState(CompositeSpace.qubits("a", "b", "c"),
                        random_pure(np.random.default_rng(71), 8))
        probs = born_probabilities(psi, basis)
        np.testing.assert_allclose(born_probabilities(psi.density(), basis), probs, atol=1e-13)
        for seed in range(20):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            outcome, post = projective_collapse(psi, basis, rng)
            assert outcome == _draw(probs, twin)
            assert rng.bit_generator.state == twin.bit_generator.state
            assert born_probabilities(post, basis)[outcome] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("basis", [42, None, (), np.eye(2)],
                             ids=["int", "None", "empty", "matrix"])
    def test_born_and_collapse_reject_the_same_non_measurements(self, basis):
        """An int or a matrix raised a bare TypeError or UnknownSubsystem in Born; both
        functions raise ShapeError, before any draw."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ShapeError, match="give either measured labels or an explicit basis"):
            born_probabilities(psi, basis)
        with pytest.raises(ShapeError, match="give either measured labels or an explicit basis"):
            projective_collapse(psi, basis, rng)
        assert rng.bit_generator.state == before


class TestExactEnsemble:
    """Every hypothesis: a distribution over dephased factor sets of the unitary density,
    held by a HeldScenario with three collapse sites and friend w."""

    SITES = (("x",), ("y", "w"), ("z",))

    def _held(self):
        rng = np.random.default_rng(16)
        space = CompositeSpace.qubits("x", "y", "w", "z")
        rho = PureState(space, random_pure(rng, 16)).density()
        return rho, HeldScenario(rho, ("x",), ("z",), sites=self.SITES, friends=("w",))

    def test_one_term_distributions_build_no_mixture(self):
        rho, scenario = self._held()
        ((weight, held),) = scenario.held_terms(UNITARY_ONLY)
        assert weight == 1.0 and held is rho
        for variant, on in (("friend_dephasing", ("w",)), ("friend_projective", ("w",)),
                            ("subjective_collapse", ("x", "y", "w", "z"))):
            ((weight, got),) = scenario.held_terms(variant)
            assert weight == 1.0
            assert np.array_equal(got.matrix, dephase(rho, on).matrix)

    def test_stochastic_terms_vary_the_first_site_fastest(self):
        """Three sites: eight terms none, x, yw, x+yw, z, x+z, yw+z, all; each weight is
        the product over sites, in site order, of p where the site fired and 1 - p not."""
        (rho, scenario), p = self._held(), 0.3
        terms = []
        for fired in ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0),
                      (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)):
            on = tuple(lbl for f, site in zip(fired, self.SITES) if f for lbl in site)
            weight = 1.0
            for f in fired:
                weight *= p if f else 1 - p
            terms.append((weight, dephase(rho, on) if on else rho))
        got = scenario.held_terms(CollapseHypothesis.stochastic(p))
        assert [w for w, _ in got] == [w for w, _ in terms]
        assert np.array_equal(DensityOperator.mixture(got).matrix,
                              DensityOperator.mixture(terms).matrix)


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

    @pytest.mark.parametrize("call, kind", [
        (lambda: wfsim.scenarios.counterexample_probability(None), "NoneType"),
        (lambda: wfsim.scenarios.counterexample_probability(3), "int"),
        (lambda: wfsim.scenarios.proietti_scenario().held_terms(None), "NoneType"),
        (lambda: wfsim.chsh.hypothesis_comparison(wfsim.scenarios.proietti_scenario(), [None]),
         "NoneType"),
    ], ids=["probability_none", "probability_int", "held_terms_none", "comparison_none"])
    def test_hypothesis_of_another_type_is_invalid(self, call, kind, monkeypatch):
        """Neither a name nor a CollapseHypothesis raised a bare AttributeError on strip();
        it raises InvalidState naming the type, before any Born rule or table."""
        monkeypatch.setattr(wfsim.scenarios, "born_probabilities", None)
        monkeypatch.setattr(wfsim.chsh, "_wing_moments", None)
        with pytest.raises(InvalidState, match=f"name or a CollapseHypothesis, not {kind}$"):
            call()

    @pytest.mark.parametrize("text", ["stochastic_collapse(.)", "stochastic_collapse(1e)",
                                      "stochastic_collapse(--1)"])
    def test_probability_that_is_no_number_is_invalid(self, text):
        """A probability the pattern admits but ``float`` rejects raised a bare ValueError; it
        raises InvalidState naming the text, through every caller, and a config entry's
        ConfigError keeps its message."""
        scenario, quoted = wfsim.scenarios.proietti_scenario(), re.escape(repr(text))
        for call in (CollapseHypothesis.parse, wfsim.scenarios.counterexample_probability,
                     scenario.held_terms,
                     lambda h: wfsim.chsh.hypothesis_comparison(scenario, [h])):
            with pytest.raises(InvalidState, match=f"no collapse probability in {quoted}$"):
                call(text)
        with pytest.raises(ConfigError, match=f"^bad hypotheses entry {quoted}: no"):
            ScenarioConfig(hypotheses=(text,))

    def test_probability_bounds(self):
        with pytest.raises(InvalidState):
            CollapseHypothesis.stochastic(1.5)
        with pytest.raises(InvalidState):
            CollapseHypothesis.stochastic(-0.1)

    @pytest.mark.parametrize("p", ["abc", "0.5", 1j, [0.5], True, False, None])
    def test_probability_that_is_no_real_number_is_invalid(self, p):
        """Only a real number that is not a bool is a collapse probability: "abc" raised a
        bare ValueError, 1j and [0.5] a bare TypeError, and "0.5" and True were taken as 0.5
        and 1.  Integers, numpy scalars and fractions are real numbers and stay accepted."""
        with pytest.raises(InvalidState, match=r"needs a collapse probability in \[0, 1\]$"):
            CollapseHypothesis.stochastic(p)
        for real in (1, np.float64(0.25), fractions.Fraction(1, 4)):
            assert CollapseHypothesis.stochastic(real).probability == float(real)

    def test_probability_only_for_stochastic(self):
        with pytest.raises(InvalidState):
            CollapseHypothesis("unitary_only", probability=0.5)
