"""Tests for the inequality engine: observables, search, sampling."""

import math
import random

import numpy as np
import pytest

import wfsim.chsh as chsh
import wfsim.report as report
from wfsim import (
    CLASSICAL_BOUND,
    CollapseHypothesis,
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    InequalityResult,
    InvalidState,
    InvariantViolation,
    MeasurementSettings,
    PureState,
    ShapeError,
    TSIRELSON_BOUND,
    bell_singlet,
    chsh_value,
    correlator,
    exact_optimum,
    hypothesis_comparison,
    local_deterministic_bound,
    observable_from_bloch,
    optimize_settings,
    proietti_scenario,
    run,
    sample_inequality,
    ScenarioConfig,
    source_state,
)
from wfsim.hilbert import VALIDITY_TOL
from wfsim.scenarios import HeldScenario, ProiettiScenario

from wfsim.measurement import _HYPOTHESIS_VARIANTS

from _oracles import random_pure

PI = math.pi
_Z = np.diag([1.0, -1.0]).astype(complex)


def _random_settings(rng, alice_space, bob_space):
    def pick(space):
        t = float(rng.uniform(0, PI))
        p = float(rng.uniform(0, 2 * PI))
        return observable_from_bloch(t, p, space)

    return MeasurementSettings(
        alice=(pick(alice_space), pick(alice_space)),
        bob=(pick(bob_space), pick(bob_space)),
    )


class TestObservableFamily:
    """The single-factor and pair-factor Bloch families."""

    def test_single_factor_reduces_to_pauli(self):
        space = CompositeSpace.qubits("q")
        obs = observable_from_bloch(0.0, 0.0, space)
        np.testing.assert_allclose(obs.matrix, _Z, atol=1e-14)

    def test_pair_theta_zero_is_first_factor_z(self):
        """At theta=0 the pair observable just asks the first factor's basis value."""
        space = CompositeSpace.qubits("x", "y")
        obs = observable_from_bloch(0.0, 0.0, space)
        np.testing.assert_allclose(obs.matrix, np.kron(_Z, np.eye(2)), atol=1e-14)

    def test_family_satisfies_pauli_algebra(self):
        """Anticommutators vanish and squares are the identity, which is
        exactly what the quantum ceiling argument needs."""
        space = CompositeSpace.qubits("x", "y")
        axes = [(PI / 2, 0.0), (PI / 2, PI / 2), (0.0, 0.0)]
        mats = [observable_from_bloch(t, p, space).matrix for t, p in axes]
        eye = np.eye(space.dim)
        for i, mi in enumerate(mats):
            np.testing.assert_allclose(mi @ mi, eye, atol=1e-13)
            for mj in mats[i + 1 :]:
                np.testing.assert_allclose(
                    mi @ mj + mj @ mi, np.zeros_like(eye), atol=1e-13
                )

    def test_random_directions_square_to_identity(self):
        rng = np.random.default_rng(61)
        for space in (CompositeSpace.qubits("q"), CompositeSpace.qubits("x", "y")):
            for _ in range(10):
                t = float(rng.uniform(0, PI))
                p = float(rng.uniform(0, 2 * PI))
                obs = observable_from_bloch(t, p, space)
                np.testing.assert_allclose(
                    obs.matrix @ obs.matrix, np.eye(space.dim), atol=1e-13
                )


class TestCorrelator:
    def test_singlet_anticorrelation(self):
        value = correlator(
            bell_singlet(),
            DichotomicObservable.pauli("z", "e1"),
            DichotomicObservable.pauli("z", "e2"),
        )
        assert value == pytest.approx(-1.0, abs=1e-13)

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(62)
        from wfsim import expectation, tensor

        a = PureState(CompositeSpace.qubits("a"), random_pure(rng, 2))
        b = PureState(CompositeSpace.qubits("b"), random_pure(rng, 2))
        obs_a = observable_from_bloch(0.8, 0.3, CompositeSpace.qubits("a"))
        obs_b = observable_from_bloch(1.9, 4.0, CompositeSpace.qubits("b"))
        joint = tensor(a, b)
        assert correlator(joint, obs_a, obs_b) == pytest.approx(
            expectation(a, obs_a) * expectation(b, obs_b), abs=1e-12
        )

    def test_overlapping_wings_rejected(self):
        z = DichotomicObservable.pauli("z", "e1")
        with pytest.raises(ShapeError):
            correlator(bell_singlet(), z, z)

    def test_nan_moment_rejected(self):
        """A NaN entry fails the |M| <= 1 guard of the moment table."""
        psi = bell_singlet()
        e1, e2 = psi.space.subspace(("e1",)), psi.space.subspace(("e2",))
        nan_ops = np.full((1, 2, 2), math.nan, dtype=complex)
        with pytest.raises(InvariantViolation):
            chsh._wing_moments([psi], e1, e2, nan_ops, np.eye(2)[None])

    def test_moment_guards_sit_at_the_validity_tolerance(self):
        """A table entry may exceed 1 in magnitude by VALIDITY_TOL: half of it over passes and
        twice it raises.  The sampler's negative-entry guard sits at -VALIDITY_TOL likewise."""
        for sign in (1.0, -1.0):
            chsh._checked(np.array([sign * (1.0 + VALIDITY_TOL / 2)]))
            with pytest.raises(InvariantViolation, match="outside"):
                chsh._checked(np.array([sign * (1.0 + 2 * VALIDITY_TOL)]))
        table = np.zeros((3, 3))
        table[1:, 1:] = 1.0 + VALIDITY_TOL  # the +- and -+ entries are -VALIDITY_TOL / 4
        assert chsh._sample_table(table, 10, np.random.default_rng(0)).correlators == (1.0,) * 4
        table[1:, 1:] = 1.0 + 8 * VALIDITY_TOL
        with pytest.raises(InvariantViolation, match="negative entry"):
            chsh._sample_table(table, 10, np.random.default_rng(0))

    def test_magnitude_bounded(self):
        rng = np.random.default_rng(63)
        psi = PureState(CompositeSpace.qubits("e1", "e2"), random_pure(rng, 4))
        for _ in range(20):
            settings = _random_settings(
                rng, psi.space.subspace(("e1",)), psi.space.subspace(("e2",))
            )
            value = correlator(psi, settings.alice[0], settings.bob[0])
            assert abs(value) <= 1.0 + 1e-10


class TestChshValue:
    def test_default_settings_hit_ceiling_on_source(self):
        """The labeled defaults already maximize S on the source pair."""
        settings = MeasurementSettings.defaults(
            CompositeSpace.qubits("a"), CompositeSpace.qubits("b")
        )
        result = chsh_value(source_state(), settings)
        assert result.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_default_settings_on_final_pair_wings(self):
        """The same holds for the four-photon final state measured in wing pairs."""
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("unitary_only")
        settings = MeasurementSettings.defaults(
            rho.space.subspace(scenario.alice_labels),
            rho.space.subspace(scenario.bob_labels),
        )
        result = chsh_value(rho, settings)
        assert result.s_value == pytest.approx(TSIRELSON_BOUND, abs=1e-12)

    def test_correlator_order_matches_combination(self):
        rng = np.random.default_rng(64)
        psi = PureState(CompositeSpace.qubits("e1", "e2"), random_pure(rng, 4))
        settings = _random_settings(
            rng, psi.space.subspace(("e1",)), psi.space.subspace(("e2",))
        )
        result = chsh_value(psi, settings)
        e11, e10, e01, e00 = result.correlators
        assert result.s_value == pytest.approx(e11 + e10 + e01 - e00, abs=1e-13)

    def test_wing_on_two_spaces_rejected(self):
        """A wing's two observables are stacked into one table, so they share one space."""
        e1, e2 = CompositeSpace.qubits("e1"), CompositeSpace.qubits("e2")
        other = CompositeSpace.qubits("e3")
        z = {space: observable_from_bloch(0.0, 0.0, space) for space in (e1, e2, other)}
        with pytest.raises(ShapeError, match="one space"):
            MeasurementSettings(alice=(z[e1], z[other]), bob=(z[e2], z[e2]))
        with pytest.raises(ShapeError, match="one space"):
            MeasurementSettings(alice=(z[e1], z[e1]), bob=(z[e2], z[other]))

    def test_exact_ceiling_enforced_at_construction(self):
        with pytest.raises(InvariantViolation):
            InequalityResult(s_value=2.9, correlators=(1.0, 1.0, 1.0, -1.0))

    def test_nan_exact_value_rejected(self):
        with pytest.raises(InvariantViolation):
            InequalityResult(s_value=math.nan, correlators=(0.0, 0.0, 0.0, 0.0))

    def test_sampled_results_may_exceed_ceiling(self):
        result = InequalityResult(
            s_value=2.9, correlators=(1.0, 1.0, 1.0, -1.0), exact=False, shots=3
        )
        assert result.s_value == pytest.approx(2.9)


class TestLocalBound:
    def test_enumeration_gives_two(self):
        assert local_deterministic_bound() == 2.0

    def test_bound_constant_matches(self):
        assert CLASSICAL_BOUND == 2.0


class TestOptimizeSettings:
    def test_singlet_reaches_ceiling_even_on_coarse_grid(self):
        settings, s_max = optimize_settings(bell_singlet(), grid_step=PI / 16)
        assert s_max == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert settings.origin.startswith("optimized")

    def test_refinement_never_decreases(self):
        """Halving the step keeps the coarse candidates available."""
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("unitary_only")
        values = [
            optimize_settings(
                rho,
                grid_step=step,
                alice_labels=scenario.alice_labels,
                bob_labels=scenario.bob_labels,
            )[1]
            for step in (PI / 16, PI / 32, PI / 64)
        ]
        assert values[1] >= values[0] - 1e-12
        assert values[2] >= values[1] - 1e-12

    def test_refinement_monotone_on_random_states(self):
        rng = np.random.default_rng(65)
        for _ in range(6):
            psi = PureState(CompositeSpace.qubits("e1", "e2"), random_pure(rng, 4))
            coarse = optimize_settings(psi, grid_step=PI / 16)[1]
            fine = optimize_settings(psi, grid_step=PI / 32)[1]
            assert fine >= coarse - 1e-12

    def test_result_is_attained_by_returned_settings(self):
        rng = np.random.default_rng(66)
        psi = PureState(CompositeSpace.qubits("e1", "e2"), random_pure(rng, 4))
        settings, s_max = optimize_settings(psi, grid_step=PI / 16)
        again = chsh_value(psi, settings)
        assert again.s_value == pytest.approx(s_max, abs=1e-13)

    def test_dephased_state_stays_classical(self):
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("friend_dephasing")
        _, s_max = optimize_settings(
            rho,
            grid_step=PI / 16,
            alice_labels=scenario.alice_labels,
            bob_labels=scenario.bob_labels,
        )
        assert s_max <= CLASSICAL_BOUND + 1e-6
        assert s_max == pytest.approx(math.sqrt(2.0), abs=1e-9)

    # Row-major _sphere_grid indices of the (b1, b0) the scan picks: the first pair within
    # _TIE_EPS of the grid maximum.  The singlet, unitary_only and the rank-one
    # friend_dephasing tie exactly between many pairs, so these pin the tie rule, and the
    # first pair of each tie is z with x, or z twice.  At pi/64 the scan runs 8-row
    # blocks, which pi/16 and pi/32 do not reach.
    PINNED_PICKS = {
        "singlet": {16: (0, 256), 32: (0, 1024), 64: (0, 4096)},
        "unitary_only": {16: (0, 256), 32: (0, 1024), 64: (0, 4096)},
        "friend_dephasing": {16: (0, 0), 32: (0, 0), 64: (0, 0)},
        "stochastic_collapse(0.3)": {16: (80, 192), 32: (96, 864), 64: (320, 3392)},
    }

    def _pinned_kernels(self):
        scenario = proietti_scenario()
        kernels = {"singlet": -np.eye(3)}
        for name in list(self.PINNED_PICKS)[1:]:
            rho = scenario.exact_state_under(name)
            wings = (rho.space.subspace(scenario.alice_labels),
                     rho.space.subspace(scenario.bob_labels))
            kernels[name] = chsh._tables([rho], wings)[0][0, 0]
        return kernels

    @pytest.mark.one_blas_thread
    def test_grid_picks_are_pinned(self):
        kernels = self._pinned_kernels()
        for name, picks in self.PINNED_PICKS.items():
            for div, (i1, i0) in picks.items():
                _, _, vectors = chsh._sphere_grid(PI / div)
                b1, b0 = chsh._grid_bob_pair(kernels[name], PI / div)
                assert np.array_equal(b1, vectors[i1]), (name, div)
                assert np.array_equal(b0, vectors[i0]), (name, div)

    @pytest.mark.one_blas_thread
    def test_grid_picks_do_not_depend_on_the_seed(self, monkeypatch):
        """The seed only sets how much the scan's screen prunes: seeded from the row of the
        least |K b| instead of the largest, the scan still makes the pinned picks."""
        kernels = self._pinned_kernels()
        seeded = []

        def poor_seed(w, norms2):
            seeded.append(w)
            rows = (np.arange(len(w))[:, None], np.argmin(norms2, axis=1)[:, None])
            return chsh._row_values(w, rows, slice(None)).max(axis=1)

        monkeypatch.setattr(chsh, "_row_seed", poor_seed)
        for name, picks in self.PINNED_PICKS.items():
            for div, (i1, i0) in picks.items():
                _, _, vectors = chsh._sphere_grid(PI / div)
                b1, b0 = chsh._grid_bob_pair(kernels[name], PI / div)
                assert np.array_equal(b1, vectors[i1]), (name, div)
                assert np.array_equal(b0, vectors[i0]), (name, div)
        assert len(seeded) == sum(map(len, self.PINNED_PICKS.values()))

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("block_pairs", [1 << 15, 1 << 10, 1])
    def test_grid_picks_do_not_depend_on_the_block_size(self, monkeypatch, block_pairs):
        """The blocks bound the screen's memory only: with 2^15 (the default), 2^10 or one
        pair per block, which gives one-row blocks, the scan makes the pinned picks bitwise."""
        kernels = self._pinned_kernels()
        monkeypatch.setattr(chsh, "_BLOCK_PAIRS", block_pairs)
        for name, picks in self.PINNED_PICKS.items():
            for div, (i1, i0) in picks.items():
                _, _, vectors = chsh._sphere_grid(PI / div)
                b1, b0 = chsh._grid_bob_pair(kernels[name], PI / div)
                assert np.array_equal(b1, vectors[i1]), (name, div, block_pairs)
                assert np.array_equal(b0, vectors[i0]), (name, div, block_pairs)

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("block_pairs", [1 << 15, 1 << 10, 1])
    def test_stacked_picks_do_not_depend_on_the_block_size(self, monkeypatch, block_pairs):
        """One scan over the pinned kernels and the zero kernel, whose every pair survives,
        reversed and repeated in one stack, makes each kernel's pinned pick at every block
        size, so whatever the flushes that split a kernel's survivors."""
        kernels = self._pinned_kernels()
        names = [*self.PINNED_PICKS, "zero"]
        kernels["zero"] = np.zeros((3, 3))
        order = names[::-1] + names
        monkeypatch.setattr(chsh, "_BLOCK_PAIRS", block_pairs)
        for div in (16, 32):
            _, _, vectors = chsh._sphere_grid(PI / div)
            picks = {name: pinned[div] for name, pinned in self.PINNED_PICKS.items()}
            picks["zero"] = (0, 0)
            pairs = chsh._grid_bob_pairs(np.stack([kernels[name] for name in order]), PI / div)
            for name, (b1, b0) in zip(order, pairs):
                assert np.array_equal(b1, vectors[picks[name][0]]), (name, div, block_pairs)
                assert np.array_equal(b0, vectors[picks[name][1]]), (name, div, block_pairs)

    @pytest.mark.one_blas_thread
    def test_grid_picks_do_not_depend_on_the_antipodal_halving(self, monkeypatch):
        """Scanning every direction instead of one of each antipodal pair makes the pinned
        picks too: a pair and its sign variants tie up to rounding, and the tie rule takes
        the first of them, whose directions both lie in the kept half."""
        kernels = self._pinned_kernels()

        def every_direction(step):
            _, phis, vectors = chsh._sphere_grid(step)
            return vectors[np.r_[0, len(phis) : len(vectors)]]

        monkeypatch.setattr(chsh, "_scan_directions", every_direction)
        for name, picks in self.PINNED_PICKS.items():
            for div, (i1, i0) in picks.items():
                if div == 64:
                    continue  # 32.5M pairs unhalved; pi/16 and pi/32 check every kernel
                _, _, vectors = chsh._sphere_grid(PI / div)
                b1, b0 = chsh._grid_bob_pair(kernels[name], PI / div)
                assert np.array_equal(b1, vectors[i1]), (name, div)
                assert np.array_equal(b0, vectors[i0]), (name, div)

    def test_scan_takes_no_canonical_pair(self, monkeypatch):
        """The scan's seed is a row of its own table: a grid comparison runs the canonical
        rule of _exact_bob_pair once, for the shared settings, and a scan never runs it."""
        calls = []
        exact_pair = chsh._exact_bob_pair

        def counted(kernel):
            calls.append(kernel)
            return exact_pair(kernel)

        monkeypatch.setattr(chsh, "_exact_bob_pair", counted)
        hypotheses = ["unitary_only", "friend_dephasing", "stochastic_collapse(0.3)"]
        results = hypothesis_comparison(proietti_scenario(), hypotheses, grid_step=PI / 16)
        assert all(result.grid_gap is not None for result in results)
        assert len(calls) == 1
        calls.clear()
        chsh._grid_bob_pair(-np.eye(3), PI / 16)
        assert calls == []

    @pytest.mark.one_blas_thread
    def test_scan_takes_no_svd(self, monkeypatch):
        """A scan takes no SVD, and the pi/16 sweep comparison takes 2: one stacked _s_max
        over its 11 distinct tables (p = 0 shares unitary_only's) and one canonical pair for
        the shared settings.  With one _s_max per table it took 12, and seeded from K's SVD
        23.  The scan still makes the pinned picks."""
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0])
            return svd(*args, **kwargs)

        kernels = self._pinned_kernels()
        monkeypatch.setattr(np.linalg, "svd", counted)
        for name, picks in self.PINNED_PICKS.items():
            for div, (i1, i0) in picks.items():
                _, _, vectors = chsh._sphere_grid(PI / div)
                b1, b0 = chsh._grid_bob_pair(kernels[name], PI / div)
                assert np.array_equal(b1, vectors[i1]), (name, div)
                assert np.array_equal(b0, vectors[i0]), (name, div)
        assert calls == []
        sweep = [CollapseHypothesis.stochastic(k / 10) for k in range(11)]
        results = hypothesis_comparison(proietti_scenario(), sweep, grid_step=PI / 16)
        assert all(result.grid_gap is not None for result in results)
        assert len(calls) == 2

    def test_grid_step_validation(self):
        with pytest.raises(ShapeError):
            optimize_settings(bell_singlet(), grid_step=0.0)
        with pytest.raises(ShapeError):
            optimize_settings(bell_singlet(), grid_step=1.0)
        with pytest.raises(ShapeError):
            optimize_settings(bell_singlet(), grid_step=PI / 256)
        with pytest.raises(ShapeError):
            optimize_settings(bell_singlet(), grid_step=1e-3)

    def test_four_factor_state_needs_wing_labels(self):
        rho = proietti_scenario().exact_state_under("unitary_only")
        with pytest.raises(ShapeError):
            optimize_settings(rho)


class TestExactOptimum:
    """The closed-form optimum and its canonical rule for degenerate spectra."""

    # b1, b0 = (z + x)/sqrt(2), (z - x)/sqrt(2), as (theta, phi); angles
    # are stored (obs0, obs1), i.e. (b0, b1).
    TEXTBOOK_BOB = ((PI / 4, PI), (PI / 4, 0.0))

    @staticmethod
    def _unitary_and_labels():
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("unitary_only")
        return scenario, rho, (scenario.alice_labels, scenario.bob_labels)

    def test_singlet_takes_textbook_settings(self):
        settings, value = exact_optimum(bell_singlet())
        np.testing.assert_allclose(settings.bob_angles, self.TEXTBOOK_BOB, atol=1e-15)
        np.testing.assert_allclose(
            settings.alice_angles, ((PI / 2, PI), (PI, 0.0)), atol=1e-15
        )
        assert settings.origin == "exact"
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-15)

    def test_unitary_four_photon_takes_textbook_settings(self):
        _, rho, labels = self._unitary_and_labels()
        settings, value = exact_optimum(rho, *labels)
        np.testing.assert_allclose(settings.bob_angles, self.TEXTBOOK_BOB, atol=1e-15)
        np.testing.assert_allclose(
            settings.alice_angles, ((PI / 4, 0.0), (3 * PI / 4, 0.0)), atol=1e-15
        )
        assert value == pytest.approx(TSIRELSON_BOUND, abs=1e-15)

    def test_rank_one_kernel_measures_z_twice(self):
        scenario, _, labels = self._unitary_and_labels()
        rho = scenario.exact_state_under("friend_dephasing")
        settings, value = exact_optimum(rho, *labels)
        assert settings.bob_angles == ((0.0, 0.0), (0.0, 0.0))
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_degenerate_choice_is_stable_under_tiny_perturbations(self):
        _, rho, labels = self._unitary_and_labels()
        unitary_kernel = chsh._tables(
            [rho], (rho.space.subspace(labels[0]), rho.space.subspace(labels[1]))
        )[0][0, 0]
        rng = np.random.default_rng(67)
        for kernel in (-np.eye(3), unitary_kernel):
            b1, b0 = chsh._exact_bob_pair(kernel)
            for _ in range(20):
                noise = 1e-15 * rng.uniform(-1.0, 1.0, size=(3, 3))
                p1, p0 = chsh._exact_bob_pair(kernel + noise)
                assert np.max(np.abs(p1 - b1)) < 2e-15
                assert np.max(np.abs(p0 - b0)) < 2e-15

    def test_attains_the_limit_of_grid_refinement(self):
        scenario, _, labels = self._unitary_and_labels()
        rho = scenario.exact_state_under("stochastic_collapse(0.3)")
        _, exact = exact_optimum(rho, *labels)
        gaps = [
            exact - optimize_settings(rho, step, *labels)[1]
            for step in (PI / 16, PI / 32, PI / 64)
        ]
        assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-12
        assert gaps[0] > 1e-6

    def test_four_factor_state_needs_wing_labels(self):
        _, rho, _ = self._unitary_and_labels()
        with pytest.raises(ShapeError):
            exact_optimum(rho)

    def test_stochastic_optimum_has_its_closed_form(self):
        """s_max(p) = sqrt2 (p^2 - 2p + 2) over the eleven-point sweep: 2 sqrt2 at p = 0,
        sqrt2 at p = 1, and 2 at p* = 1 - sqrt(sqrt2 - 1)."""
        scenario, _, labels = self._unitary_and_labels()
        for p in (k / 10 for k in range(11)):
            rho = scenario.exact_state_under(CollapseHypothesis.stochastic(p))
            _, s_max = exact_optimum(rho, *labels)
            assert abs(s_max - math.sqrt(2.0) * (p * p - 2 * p + 2)) <= 1e-12, p


class TestSampleInequality:
    def test_same_seed_same_estimate(self):
        settings, _ = optimize_settings(bell_singlet(), grid_step=PI / 16)
        r1 = sample_inequality(bell_singlet(), settings, 2000, np.random.default_rng(5))
        r2 = sample_inequality(bell_singlet(), settings, 2000, np.random.default_rng(5))
        assert r1.s_value == r2.s_value
        assert r1.correlators == r2.correlators

    def test_single_shot_correlators_are_plus_minus_one(self):
        settings, _ = optimize_settings(bell_singlet(), grid_step=PI / 16)
        result = sample_inequality(bell_singlet(), settings, 1, np.random.default_rng(7))
        for e in result.correlators:
            assert e in (-1.0, 1.0)

    def test_estimate_close_to_exact(self):
        shots = 100_000
        settings, s_max = optimize_settings(bell_singlet(), grid_step=PI / 16)
        result = sample_inequality(
            bell_singlet(), settings, shots, np.random.default_rng(8)
        )
        assert not result.exact
        assert abs(result.s_value - s_max) < 5 * result.std_error

    def test_std_error_is_plug_in_formula(self):
        settings, _ = optimize_settings(bell_singlet(), grid_step=PI / 16)
        shots = 5000
        result = sample_inequality(
            bell_singlet(), settings, shots, np.random.default_rng(9)
        )
        expected = math.sqrt(
            sum((1.0 - e * e) / shots for e in result.correlators)
        )
        assert result.std_error == pytest.approx(expected, abs=1e-15)

    def test_shots_validation(self):
        settings = MeasurementSettings.defaults(
            CompositeSpace.qubits("e1"), CompositeSpace.qubits("e2")
        )
        with pytest.raises(ShapeError):
            sample_inequality(bell_singlet(), settings, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("shots", [0, -1, 2**63, 10**19, 1.5, 2.5, True])
    def test_shots_outside_the_int64_range_are_rejected(self, shots, monkeypatch):
        """A bare multinomial would truncate 2.5 to 2 yet divide by 2.5, count True as one
        shot and overflow from 2**63 on; the check runs before any table is taken."""
        settings = MeasurementSettings.defaults(
            CompositeSpace.qubits("e1"), CompositeSpace.qubits("e2")
        )
        monkeypatch.setattr(chsh, "_wing_moments", None)
        with pytest.raises(ShapeError, match="shots must be an integer"):
            sample_inequality(bell_singlet(), settings, shots, np.random.default_rng(0))


class TestHypothesisComparison:
    def test_unitary_consistent_dephasing_not(self):
        scenario = proietti_scenario()
        results = hypothesis_comparison(
            scenario, ["unitary_only", "friend_dephasing"], grid_step=PI / 16
        )
        by_name = {r.hypothesis.name: r for r in results}
        assert by_name["unitary_only"].consistent_with_data is True
        assert by_name["friend_dephasing"].consistent_with_data is False
        assert by_name["unitary_only"].s_max == pytest.approx(
            TSIRELSON_BOUND, abs=1e-9
        )
        assert by_name["friend_dephasing"].s_max == pytest.approx(
            math.sqrt(2.0), abs=1e-9
        )

    def test_nearby_stochastic_probabilities_stay_apart(self):
        """p values that agree to six digits get distinct names and their own states."""
        names = ["stochastic_collapse(0.1234567)", "stochastic_collapse(0.1234568)"]
        results = hypothesis_comparison(proietti_scenario(), names)
        assert [r.hypothesis.name for r in results] == names
        for result in results:
            p = result.hypothesis.probability
            assert abs(result.s_max - math.sqrt(2.0) * (1.0 + (1.0 - p) ** 2)) < 1e-12
            assert CollapseHypothesis.parse(result.hypothesis.name) == result.hypothesis
        config = ScenarioConfig(scenario="proietti", hypotheses=tuple(names))
        assert config.hypotheses == tuple(names)

    def test_exact_results_carry_their_own_companions(self):
        scenario = proietti_scenario()
        (result,) = hypothesis_comparison(
            scenario, ["friend_projective"], grid_step=PI / 16
        )
        assert result.exact
        assert result.exact_s == result.s_value
        assert result.exact_correlators == result.correlators

    def test_sampled_comparison_attaches_exact_values(self):
        scenario = proietti_scenario()
        results = hypothesis_comparison(
            scenario,
            ["unitary_only", "friend_dephasing"],
            shots=2000,
            rng=np.random.default_rng(12),
            grid_step=PI / 16,
        )
        for result in results:
            assert not result.exact
            assert result.shots == 2000
            assert result.exact_s is not None
            assert abs(result.s_value - result.exact_s) < 6 * result.std_error

    def test_sampling_requires_generator(self):
        """None raises InvalidState, like every other draw without a numpy Generator."""
        scenario = proietti_scenario()
        with pytest.raises(InvalidState, match="numpy Generator, got NoneType"):
            hypothesis_comparison(
                scenario, ["unitary_only"], shots=10, grid_step=PI / 16
            )

    @pytest.mark.parametrize("rng", [np.random.RandomState(0), random.Random(0)])
    def test_legacy_generators_are_invalid(self, rng, monkeypatch):
        """A legacy RandomState or a stdlib Random failed with a bare AttributeError on
        spawn; the comparison and the sampler raise InvalidState before any table."""
        monkeypatch.setattr(ProiettiScenario, "held_terms", None)
        monkeypatch.setattr(chsh, "_wing_moments", None)
        with pytest.raises(InvalidState, match="numpy Generator"):
            hypothesis_comparison(proietti_scenario(), ["unitary_only"], shots=10, rng=rng)
        settings = MeasurementSettings.defaults(
            CompositeSpace.qubits("e1"), CompositeSpace.qubits("e2")
        )
        with pytest.raises(InvalidState, match="numpy Generator"):
            sample_inequality(bell_singlet(), settings, 10, rng)

    @pytest.mark.parametrize("shots", [-1, -5, 2**63, 10**19, 2.5, 1.0, True, False])
    def test_shots_outside_the_int64_range_are_rejected(self, shots, monkeypatch):
        """A float was truncated by the multinomial yet divided by as given, True sampled
        one shot, a negative count returned exact results and 10**19 overflowed; the
        check runs before any held term is asked for."""
        monkeypatch.setattr(ProiettiScenario, "held_terms", None)
        with pytest.raises(ShapeError, match="shots must be an integer"):
            hypothesis_comparison(
                proietti_scenario(), ["unitary_only"], shots=shots, rng=np.random.default_rng(0)
            )

    @pytest.mark.parametrize("hypotheses", [[], ["unitary_only"]])
    def test_grid_step_is_checked_before_any_held_term(self, hypotheses, monkeypatch):
        """An out-of-range grid_step raises the scan's ShapeError before any table is built;
        with no hypotheses it returned [] unchecked."""
        monkeypatch.setattr(ProiettiScenario, "held_terms", None)
        with pytest.raises(ShapeError, match="grid_step 5.0 outside"):
            hypothesis_comparison(proietti_scenario(), hypotheses, grid_step=5.0)

    def test_a_bare_string_or_hypothesis_is_one_hypothesis(self):
        """A string was iterated character by character ("unknown hypothesis 'u'"); a
        string or a lone CollapseHypothesis is one hypothesis, as in a one-entry list."""
        scenario = proietti_scenario()
        for one in ("friend_dephasing", CollapseHypothesis("friend_dephasing"),
                    "stochastic_collapse(0.25)"):
            assert hypothesis_comparison(scenario, one) == hypothesis_comparison(scenario, [one])
        (result,) = hypothesis_comparison(scenario, "unitary_only")
        assert result.hypothesis.name == "unitary_only" and result.consistent_with_data

    def test_no_hypotheses_scan_nothing(self, monkeypatch):
        """An empty hypothesis list never asks the scan for an empty stack."""
        monkeypatch.setattr(chsh, "_grid_bob_pairs", None)
        assert hypothesis_comparison(proietti_scenario(), [], grid_step=PI / 16) == []

    def test_each_state_is_searched_once(self, monkeypatch):
        """One grid scan per comparison, over the mixed K of each distinct entry its
        hypotheses use: no density is mixed for it."""
        scenario = proietti_scenario()
        calls = []

        def counted(name, method):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return wrapper

        scan = chsh._grid_bob_pairs

        def counted_scan(kernels, grid_step):
            calls.append(("scan", len(kernels)))
            return scan(kernels, grid_step)

        monkeypatch.setattr(chsh, "_grid_bob_pairs", counted_scan)
        monkeypatch.setattr(
            ProiettiScenario,
            "exact_state_under",
            counted("exact_state_under", ProiettiScenario.exact_state_under),
        )
        monkeypatch.setattr(
            DensityOperator, "mixture", classmethod(counted("mixture", DensityOperator.mixture))
        )
        for hypotheses, grid_step, scans in (
            (["unitary_only", "friend_dephasing"], None, []),
            (["unitary_only", "friend_dephasing"], PI / 16, [("scan", 2)]),
            (["friend_dephasing"], PI / 16, [("scan", 1)]),
            (["unitary_only", "stochastic_collapse(0)"], PI / 16, [("scan", 1)]),
        ):
            calls.clear()
            hypothesis_comparison(scenario, hypotheses, grid_step=grid_step)
            assert calls == scans, (hypotheses, grid_step)
        calls.clear()
        with pytest.raises(InvalidState):
            hypothesis_comparison(scenario, ["unitary_only"], shots=10, grid_step=PI / 16)
        assert calls == []

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_sampled_refutation_margin_is_near_its_closed_form(self, seed):
        """With the data sampled at N = 100000 shots per setting, its margin over
        stochastic_collapse(p), z = (S_hat - s_max(p)) / S_hat's standard error, lies within
        5 of p (2 - p) sqrt N: S_hat strays from 2 sqrt2 by about one standard error, and
        the plug-in error from sqrt(2 / N) by about 1 / sqrt N of itself."""
        shots = 100_000
        hypotheses = ["unitary_only", *map(CollapseHypothesis.stochastic, (0.01, 0.3, 1.0))]
        data, *results = hypothesis_comparison(proietti_scenario(), hypotheses, shots=shots,
                                               rng=np.random.default_rng(seed))
        for result in results:
            p = result.hypothesis.probability
            z = (data.s_value - result.s_max) / data.std_error
            assert abs(z - p * (2.0 - p) * math.sqrt(shots)) < 5.0, (seed, p, z)

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("which", ["proietti", "bell_singlet"])
    def test_default_settings_equal_chsh_value_at_the_exact_optimum(self, which):
        """At default settings the comparison builds no observable, yet unitary_only's S and
        correlators are bitwise ``chsh_value``'s at ``exact_optimum``'s validated settings."""
        if which == "proietti":
            scenario = proietti_scenario()
            state = scenario.exact_state_under("unitary_only")
        else:
            state = bell_singlet()
            scenario = HeldScenario(state, ("e1",), ("e2",), variants=("unitary_only",))
        optimum, _ = exact_optimum(state, scenario.alice_labels, scenario.bob_labels)
        expected = chsh_value(state, optimum)
        (result,) = hypothesis_comparison(scenario, ["unitary_only"])
        assert (np.array([result.s_value, *result.correlators]).tobytes()
                == np.array([expected.s_value, *expected.correlators]).tobytes())

    def test_unitary_s_max_is_its_own_search(self):
        """s_max is the closed form of the unitary kernel, bitwise, and the exact
        optimum's value to rounding; grid_gap is s_max minus |K(b1 + b0)| + |K(b1 - b0)| at
        the scan's pick, bitwise, and optimize_settings reads that S to rounding."""
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("unitary_only")
        labels = (scenario.alice_labels, scenario.bob_labels)
        optimum, s_own = exact_optimum(rho, *labels)
        _, s_grid = optimize_settings(rho, PI / 16, *labels)
        kernel = chsh._tables([rho], tuple(map(rho.space.subspace, labels)))[0][0, 0]
        sigma = np.linalg.svd(kernel, compute_uv=False)
        closed = 2.0 * math.sqrt(sigma[0] ** 2 + sigma[1] ** 2)
        b1, b0 = chsh._grid_bob_pair(kernel, PI / 16)
        at_pick = np.linalg.norm(kernel @ (b1 + b0)) + np.linalg.norm(kernel @ (b1 - b0))
        assert abs(s_grid - at_pick) <= 1e-15
        (result,) = hypothesis_comparison(scenario, ["unitary_only"], grid_step=PI / 16)
        assert result.s_max == closed
        assert abs(result.s_max - s_own) <= 1e-15
        assert result.grid_gap == result.s_max - at_pick
        assert result.s_value == chsh_value(rho, optimum).s_value

    def test_grid_above_the_exact_maximum_is_an_invariant_violation(self, monkeypatch):
        """S is homogeneous in Bob's pick, so a pick scaled by 1 + 1e-6 reads S above s_max,
        in the comparison and in the singlet's report alike."""
        pick = chsh._grid_bob_pairs

        def inflated(kernels, grid_step):
            return pick(kernels, grid_step) * (1.0 + 1e-6)

        monkeypatch.setattr(chsh, "_grid_bob_pairs", inflated)
        with pytest.raises(InvariantViolation, match="above the exact maximum"):
            hypothesis_comparison(
                proietti_scenario(), ["friend_dephasing"], grid_step=PI / 16
            )
        with pytest.raises(InvariantViolation, match="above the exact maximum"):
            run(ScenarioConfig(scenario="bell_singlet", grid_step=PI / 16))

    def test_table_route_equals_density_route(self):
        """Mixed tables give the numbers of the mixed density: within 1e-12 for every
        hypothesis, and bit for bit (witness S, correlators and sampled counts) for the
        one-term ones, at the comparison's own settings."""
        scenario = proietti_scenario()
        labels = (scenario.alice_labels, scenario.bob_labels)
        settings = exact_optimum(scenario.exact_state_under("unitary_only"), *labels)[0]
        probabilities = [0.0, 0.1234567, 0.35, 1.0, *np.random.default_rng(17).uniform(size=4)]
        named = [v for v in _HYPOTHESIS_VARIANTS if v != "stochastic_collapse"]
        hypotheses = [CollapseHypothesis.parse(v) for v in named]
        hypotheses += [CollapseHypothesis.stochastic(float(p)) for p in probabilities]
        exact = hypothesis_comparison(scenario, hypotheses)
        sampled = hypothesis_comparison(
            scenario, hypotheses, shots=700, rng=np.random.default_rng(31)
        )
        streams = np.random.default_rng(31).spawn(len(hypotheses))
        one_term = 0
        for hyp, result, estimate, stream in zip(hypotheses, exact, sampled, streams):
            rho = scenario.exact_state_under(hyp)
            density = chsh_value(rho, settings)
            assert abs(result.exact_s - density.s_value) <= 1e-12, hyp
            gaps = [a - b for a, b in zip(result.exact_correlators, density.correlators)]
            assert max(map(abs, gaps)) <= 1e-12, hyp
            assert abs(result.s_max - exact_optimum(rho, *labels)[1]) <= 1e-12, hyp
            if len(scenario.held_terms(hyp)) == 1:
                one_term += 1
                assert (result.exact_s, result.exact_correlators) == (
                    density.s_value,
                    density.correlators,
                )
                counted = sample_inequality(rho, settings, 700, stream)
                assert estimate.correlators == counted.correlators, hyp
                assert estimate.s_value == counted.s_value
        assert one_term == 4

    def test_s_max_above_the_ceiling_is_an_invariant_violation(self, monkeypatch):
        correlators = (0.5, 0.5, 0.5, -0.5)
        assert InequalityResult(2.0, correlators, s_max=TSIRELSON_BOUND).s_max == TSIRELSON_BOUND
        for exact in (True, False):
            with pytest.raises(InvariantViolation, match="s_max"):
                InequalityResult(2.0, correlators, exact=exact, s_max=TSIRELSON_BOUND + 2e-9)
        monkeypatch.setattr(
            chsh, "_s_max", lambda kernels: np.full(len(kernels), TSIRELSON_BOUND + 2e-9)
        )
        with pytest.raises(InvariantViolation, match="s_max"):
            hypothesis_comparison(proietti_scenario(), ["friend_dephasing"])

    @pytest.mark.parametrize("shots", [0, 10])
    def test_exact_s_above_the_ceiling_is_an_invariant_violation(self, shots, monkeypatch):
        """A sampled result's exact companion is guarded like an exact S, so a comparison
        raises on its exact S whether it samples or not."""
        correlators = (0.5, 0.5, 0.5, -0.5)
        with pytest.raises(InvariantViolation, match="exact"):
            InequalityResult(2.0, correlators, exact=False, exact_s=TSIRELSON_BOUND + 2e-9)
        values = chsh._table_values
        monkeypatch.setattr(chsh, "_table_values",
                            lambda m: (values(m)[0] + TSIRELSON_BOUND, values(m)[1]))
        with pytest.raises(InvariantViolation, match="exact"):
            hypothesis_comparison(proietti_scenario(), ["friend_dephasing"], shots=shots,
                                  rng=np.random.default_rng(0))

    def test_stochastic_sweep_interpolates(self):
        """s_max decreases from the ceiling to the dephased value as the
        collapse probability rises."""
        scenario = proietti_scenario()
        results = hypothesis_comparison(
            scenario,
            ["stochastic_collapse(0.0)", "stochastic_collapse(0.5)", "stochastic_collapse(1.0)"],
            grid_step=PI / 16,
        )
        values = [r.s_max for r in results]
        assert values[0] == pytest.approx(TSIRELSON_BOUND, abs=1e-9)
        assert values[0] > values[1] > values[2]
        assert values[2] == pytest.approx(math.sqrt(2.0), abs=1e-9)


def _counting(monkeypatch, module, name, calls):
    """Replace ``module.name`` by a wrapper that appends ``name`` to ``calls``."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


class TestOnePath:
    """Each report quantity has one code path: the comparison and both searches take their
    tables through ``_tables``, and the singlet's inequality rows come from
    ``hypothesis_comparison``."""

    def test_searches_return_chsh_value_at_their_settings(self, monkeypatch):
        """The searches read S off their own table, calling no ``chsh_value``, and that S is
        ``chsh_value``'s at the settings they return, bitwise."""
        calls = []
        _counting(monkeypatch, chsh, "chsh_value", calls)
        for search in (exact_optimum, lambda psi: optimize_settings(psi, PI / 16)):
            calls.clear()
            settings, value = search(bell_singlet())
            assert calls == []
            assert value == chsh_value(bell_singlet(), settings).s_value
        assert not hasattr(chsh, "_search")
        assert not hasattr(chsh, "_correlation_kernel")

    def test_searches_reduce_their_state_once(self, monkeypatch):
        """``exact_optimum`` and ``optimize_settings`` on the Proietti unitary density each
        reduce it once, for K and for S at their pick (twice when S came from ``chsh_value``)."""
        scenario = proietti_scenario()
        rho = scenario.exact_state_under("unitary_only")
        labels = (scenario.alice_labels, scenario.bob_labels)
        calls = []
        _counting(monkeypatch, chsh, "_reduced_matrix", calls)
        for search in (exact_optimum, lambda *args: optimize_settings(args[0], PI / 16, *args[1:])):
            calls.clear()
            search(rho, *labels)
            assert calls == ["_reduced_matrix"]

    @pytest.mark.parametrize("shots", [0, 1000])
    def test_singlet_report_runs_one_comparison(self, shots, monkeypatch):
        """One comparison, and three tables in all: the sigma_z sigma_z correlator through
        ``_wing_moments``, then the singlet's K and its settings' table off the comparison's
        one reduction, each taken once, sampled or not."""
        calls = []
        _counting(monkeypatch, report, "hypothesis_comparison", calls)
        for name in ("_wing_moments", "_reduced_stack", "_stack_moments"):
            _counting(monkeypatch, chsh, name, calls)
        run(ScenarioConfig(scenario="bell_singlet", shots=shots, grid_step=PI / 16))
        assert calls.count("hypothesis_comparison") == 1
        assert calls.count("_wing_moments") == 1
        assert calls.count("_reduced_stack") == 2
        assert calls.count("_stack_moments") == 3

    def test_sweep_comparison_takes_two_table_passes(self, monkeypatch):
        """The pi/16 sweep reduces its held states in one stacked call and takes every K in
        one einsum and every settings table in one more, where a K and an M per held state
        took 8 calls, each reducing its state anew."""
        calls = []
        for name in ("_wing_moments", "_reduced_stack", "_stack_moments"):
            _counting(monkeypatch, chsh, name, calls)
        sweep = [CollapseHypothesis.stochastic(k / 10) for k in range(11)]
        hypothesis_comparison(proietti_scenario(), sweep, grid_step=PI / 16)
        assert calls == ["_reduced_stack", "_stack_moments", "_stack_moments"]

    def test_each_held_state_is_reduced_once(self, monkeypatch):
        """The 11-point sweep reduces each of its 4 held states once, for its K and its
        settings table alike, not once for each, and the singlet comparison its one state once."""
        sweep = [CollapseHypothesis.stochastic(k / 10) for k in range(11)]
        hypothesis_comparison(proietti_scenario(), sweep)  # holds every dephasing the sweep needs
        calls = []
        _counting(monkeypatch, chsh, "_reduced_matrix", calls)
        hypothesis_comparison(proietti_scenario(), sweep, grid_step=PI / 16)
        assert len(calls) == 4
        singlet = HeldScenario(bell_singlet(), ("e1",), ("e2",), variants=("unitary_only",))
        calls.clear()
        hypothesis_comparison(singlet, ["unitary_only"], grid_step=PI / 16)
        assert len(calls) == 1

    def test_singlet_scenario_holds_unitary_only(self, monkeypatch):
        """The singlet report compares a holder of the pure singlet under unitary_only only."""
        held = []
        compare = report.hypothesis_comparison
        monkeypatch.setattr(report, "hypothesis_comparison",
                            lambda scenario, *args, **kwargs:
                            held.append(scenario) or compare(scenario, *args, **kwargs))
        run(ScenarioConfig(scenario="bell_singlet"))
        (scenario,) = held
        ((weight, psi),) = scenario.held_terms("unitary_only")
        assert weight == 1.0 and isinstance(psi, PureState)
        assert psi.amplitudes.tobytes() == bell_singlet().amplitudes.tobytes()
        assert (scenario.alice_labels, scenario.bob_labels) == (("e1",), ("e2",))
        for hypothesis in ("friend_dephasing", "stochastic_collapse(0)"):
            with pytest.raises(ShapeError, match="unitary_only only"):
                hypothesis_comparison(scenario, [hypothesis])

    @pytest.mark.one_blas_thread
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("shots", [1, 1000])
    def test_singlet_rows_match_the_public_api(self, seed, shots):
        """Bit for bit: S at the exact optimum, the correlators there, and the estimates of
        ``sample_inequality`` on the report generator's one spawned child."""
        psi = bell_singlet()
        settings, s_exact = exact_optimum(psi)
        exact = chsh_value(psi, settings)
        sampled = sample_inequality(psi, settings, shots, np.random.default_rng(seed).spawn(1)[0])
        rows = run(ScenarioConfig(scenario="bell_singlet", shots=shots, seed=seed)).rows
        names = [row.quantity for row in rows]
        start = names.index("s_at_optimal")
        assert names[start:] == ["s_at_optimal", "correlator_e11", "correlator_e10",
                                 "correlator_e01", "correlator_e00"]
        got = rows[start:]
        assert got[0].exact_value == s_exact == exact.s_value
        assert (got[0].estimate, got[0].std_error) == (sampled.s_value, sampled.std_error)
        assert tuple(row.exact_value for row in got[1:]) == exact.correlators
        assert tuple(row.estimate for row in got[1:]) == sampled.correlators
        assert {row.shots for row in got} == {shots}
