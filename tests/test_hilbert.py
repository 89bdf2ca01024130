"""Tests for labeled spaces, states, and the dense linear algebra layer."""

import math

import numpy as np
import pytest

from wfsim import (
    CompositeSpace,
    DensityOperator,
    DichotomicObservable,
    InvalidState,
    LabelCollision,
    PureState,
    ShapeError,
    UnknownSubsystem,
    ProjectiveMeasurement,
    bloch_vector,
    born_probabilities,
    coherence_norm,
    dephase,
    embed,
    exact_optimum,
    expectation,
    observable_from_bloch,
    partial_trace,
    projective_collapse,
    purity,
    tensor,
    validate,
)

from _oracles import (
    brute_expectation,
    brute_partial_trace,
    random_density,
    random_dims,
    random_pure,
)

SQRT2 = math.sqrt(2.0)


class TestCompositeSpace:
    """Label bookkeeping and big-endian indexing."""

    def test_labels_and_dims(self):
        space = CompositeSpace.qubits("a", "b", "c")
        assert space.labels == ("a", "b", "c")
        assert space.dims == (2, 2, 2)
        assert space.dim == 8
        assert space.nfactors == 3

    def test_axis_lookup(self):
        space = CompositeSpace.qubits("x", "y")
        assert space.axis("x") == 0
        assert space.axis("y") == 1
        with pytest.raises(UnknownSubsystem, match="no factor labeled 'z'"):
            space.axis("z")
        with pytest.raises(UnknownSubsystem, match=r"no factor labeled \['x'\]"):
            space.axis(["x"])  # unhashable

    def test_equality_and_hash_follow_factors(self):
        space = CompositeSpace((("x", 2), ("y", 3)))
        same = CompositeSpace([["x", 2.0], ["y", 3]])
        assert space == same and hash(space) == hash(same)
        assert space != CompositeSpace((("y", 3), ("x", 2)))
        assert repr(space) == "CompositeSpace(factors=(('x', 2), ('y', 3)))"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelCollision):
            CompositeSpace.qubits("a", "a")

    def test_basis_index_is_big_endian(self):
        """The flat index varies fastest over the last factor."""
        space = CompositeSpace.qubits("x", "y")
        assert space.basis_index("00") == 0
        assert space.basis_index("01") == 1
        assert space.basis_index("10") == 2
        assert space.basis_index("11") == 3

    def test_basis_index_character_aliases(self):
        space = CompositeSpace.qubits("x", "y")
        assert space.basis_index("hv") == space.basis_index("01")
        assert space.basis_index("ud") == space.basis_index("01")
        assert space.basis_index((1, 0)) == 2

    def test_mixed_dimensions(self):
        space = CompositeSpace((("q", 2), ("t", 3)))
        assert space.dim == 6
        assert space.basis_index((1, 2)) == 5

    def test_subspace_preserves_requested_order(self):
        space = CompositeSpace.qubits("a", "b", "c")
        assert space.subspace(("c", "a")).labels == ("c", "a")

    def test_dimensions_and_indices_are_whole_numbers(self):
        """A dimension of 2.7, True or "2" was truncated to 2, 1 and 2, and a basis index
        of 0.9 to 0; each raises ShapeError.  Numpy integers and integral floats still work."""
        for dim in (2.7, True, "2", math.nan):
            with pytest.raises(ShapeError, match="dimension of factor 'a' must be a whole"):
                CompositeSpace((("a", dim),))
        space = CompositeSpace((("a", np.int64(2)), ("b", 3.0)))
        assert space.dims == (2, 3) and all(type(d) is int for d in space.dims)
        for which in ([0.9, 0], [True, 0], ["1", 0], [0, 1j]):
            with pytest.raises(ShapeError, match="a basis index must be a whole number"):
                PureState.basis(space, which)
        assert PureState.basis(space, np.array([1, 2])).amplitude((1, 2)) == 1.0
        assert space.basis_index((np.uint8(1), 2.0)) == 5

    def test_basis_index_rejects_non_decimal_digit_characters(self):
        """'²'.isdigit() is True but int('²') fails; it is an unknown character."""
        with pytest.raises(ShapeError, match="unknown basis character"):
            CompositeSpace.qubits("x").basis_index("²")


class TestStringLabels:
    """One label rule, in ``CompositeSpace.axes``: wherever labels are taken, a string is one
    label.  Born and collapse took it so; partial trace, dephasing, coherence and the searches
    split it into characters."""

    def test_a_string_is_one_label(self):
        space = CompositeSpace.qubits("e1", "e2")
        psi = PureState.from_mapping(space, {"01": 1 / SQRT2, "10": -1 / SQRT2})
        rho = psi.density()
        assert space.axes("e2") == (1,)
        assert np.array_equal(partial_trace(rho, "e1").matrix, partial_trace(rho, ("e1",)).matrix)
        assert np.array_equal(dephase(rho, "e1").matrix, dephase(rho, ("e1",)).matrix)
        assert coherence_norm(rho, "e1") == coherence_norm(rho, ("e1",))
        assert np.array_equal(born_probabilities(rho, "e1"), born_probabilities(rho, ("e1",)))
        assert exact_optimum(rho, "e1", "e2")[1] == exact_optimum(rho, ("e1",), ("e2",))[1]
        meas = ProjectiveMeasurement.computational(space.subspace("e1"))
        by_string = projective_collapse(psi, "e1", np.random.default_rng(3))
        for basis in (("e1",), meas):
            by_tuple = projective_collapse(psi, basis, np.random.default_rng(3))
            assert by_string[0] == by_tuple[0]
            assert np.array_equal(by_string[1].amplitudes, by_tuple[1].amplitudes)

    def test_a_string_never_names_its_characters(self):
        """On factors (a, b), "ab" names no factor: it dephased or kept both."""
        psi = PureState(CompositeSpace.qubits("a", "b"), np.full(4, 0.5))
        rho = psi.density()
        for call in (lambda: partial_trace(rho, "ab"), lambda: dephase(rho, "ab"),
                     lambda: coherence_norm(rho, "ab"), lambda: born_probabilities(rho, "ab"),
                     lambda: psi.reorder("ab")):
            with pytest.raises(UnknownSubsystem, match="'ab'"):
                call()


@pytest.mark.parametrize("call", [
    lambda rho, psi: partial_trace(rho, 42),
    lambda rho, psi: dephase(rho, 42),
    lambda rho, psi: coherence_norm(rho, 42),
    lambda rho, psi: exact_optimum(rho, 42, 7),
    lambda rho, psi: psi.reorder(42),
    lambda rho, psi: psi.space.subspace(None),
], ids=["partial_trace", "dephase", "coherence_norm", "exact_optimum", "reorder", "subspace"])
def test_a_label_argument_that_is_not_iterable_names_no_factor(call):
    """``CompositeSpace.axes``, the one label rule, raised a bare TypeError ("'int' object
    is not iterable") for these; a value that is no string and not iterable names no factor."""
    psi = PureState.from_mapping(CompositeSpace.qubits("e1", "e2"), {"01": 1.0})
    with pytest.raises(UnknownSubsystem, match="names no factor of"):
        call(psi.density(), psi)


class TestPureState:
    """Construction, normalization, and amplitude access."""

    def test_basis_state(self):
        space = CompositeSpace.qubits("x", "y")
        psi = PureState.basis(space, "10")
        assert psi.amplitude("10") == 1.0
        assert psi.amplitude("00") == 0.0

    def test_from_mapping(self):
        space = CompositeSpace.qubits("x", "y")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "11": 1 / SQRT2})
        assert psi.amplitude("00") == pytest.approx(1 / SQRT2)
        assert psi.squared_norm == pytest.approx(1.0, abs=1e-14)

    def test_from_mapping_rejects_two_keys_for_one_basis_state(self):
        """A later key overwrote an earlier one naming the same basis state, so
        {"h": 1, "0": 1} silently became one amplitude."""
        space = CompositeSpace.qubits("x")
        with pytest.raises(ShapeError, match="keys 'h' and '0' name the same basis state"):
            PureState.from_mapping(space, {"h": 1.0, "0": 1.0})
        pair = CompositeSpace.qubits("x", "y")
        with pytest.raises(ShapeError, match=r"keys 'hv' and \(0, 1\) name the same"):
            PureState.from_mapping(pair, {"hv": 0.6, (0, 1): 0.8})

    def test_norm_validation(self):
        space = CompositeSpace.qubits("x")
        with pytest.raises(InvalidState):
            PureState(space, np.array([1.0, 1.0]))

    def test_unnormalized_states_allowed_when_flagged(self):
        space = CompositeSpace.qubits("x")
        psi = PureState(space, np.array([0.5, 0.0]), normalized=False)
        assert psi.squared_norm == pytest.approx(0.25)
        assert psi.normalize().squared_norm == pytest.approx(1.0)

    def test_density_requires_normalization(self):
        space = CompositeSpace.qubits("x")
        psi = PureState(space, np.array([0.5, 0.0]), normalized=False)
        with pytest.raises(InvalidState):
            psi.density()

    def test_reorder_permutes_amplitudes(self):
        space = CompositeSpace.qubits("x", "y")
        psi = PureState.from_mapping(space, {"01": 1.0})
        flipped = psi.reorder(("y", "x"))
        assert flipped.space.labels == ("y", "x")
        assert flipped.amplitude("10") == pytest.approx(1.0)

    def test_amplitudes_are_read_only(self):
        psi = PureState.basis(CompositeSpace.qubits("x"), "0")
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0


class TestDensityOperator:
    """Constructor invariants and the mixture builder."""

    def test_pure_projector(self):
        psi = PureState.basis(CompositeSpace.qubits("x"), "0")
        rho = psi.density()
        assert rho.matrix[0, 0] == pytest.approx(1.0)
        assert np.trace(rho.matrix).real == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        space = CompositeSpace.qubits("x")
        bad = np.array([[0.5, 0.3], [0.0, 0.5]])
        with pytest.raises(InvalidState):
            DensityOperator(space, bad)

    def test_rejects_wrong_trace(self):
        space = CompositeSpace.qubits("x")
        with pytest.raises(InvalidState):
            DensityOperator(space, np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        space = CompositeSpace.qubits("x")
        bad = np.array([[0.8, 0.5], [0.5, 0.2]])
        with pytest.raises(InvalidState):
            DensityOperator(space, bad)

    def test_mixture_weights(self):
        space = CompositeSpace.qubits("x")
        up = PureState.basis(space, "0").density()
        down = PureState.basis(space, "1").density()
        rho = DensityOperator.mixture([(0.25, up), (0.75, down)])
        assert rho.diagonal() == pytest.approx([0.25, 0.75])

    def test_mixture_rejects_bad_weights(self):
        space = CompositeSpace.qubits("x")
        up = PureState.basis(space, "0").density()
        with pytest.raises(InvalidState):
            DensityOperator.mixture([(0.5, up)])


class TestNonFiniteEntries:
    """NaN compares false with every tolerance, so each constructor rejects it first."""

    def test_pure_state(self):
        space = CompositeSpace.qubits("x")
        cases = (([math.nan, 0.0], True), ([math.nan, 0.0], False), ([math.inf, 0.0], False))
        for amps, normalized in cases:
            with pytest.raises(InvalidState, match="non-finite"):
                PureState(space, np.array(amps), normalized=normalized)

    def test_pure_state_with_overflowing_norm(self):
        """Finite amplitudes whose squared norm overflows are not non-finite: a
        normalized state fails the squared-norm check, a sub-normalized one is
        accepted, and neither warns (the suite turns warnings into errors)."""
        space = CompositeSpace.qubits("x")
        amps = np.array([1e200, 1e200])
        with pytest.raises(InvalidState, match="^squared norm inf differs from 1"):
            PureState(space, amps)
        assert np.array_equal(PureState(space, amps, normalized=False).amplitudes, amps)

    def test_density_operator(self):
        space = CompositeSpace.qubits("x")
        with pytest.raises(InvalidState, match="non-finite"):
            DensityOperator(space, [[math.nan, 0.0], [0.0, 0.0]])

    def test_density_mixture_weight(self):
        up = PureState.basis(CompositeSpace.qubits("x"), "0").density()
        with pytest.raises(InvalidState):
            DensityOperator.mixture([(math.nan, up)])

    def test_dichotomic_observable(self):
        space = CompositeSpace.qubits("x")
        with pytest.raises(InvalidState, match="non-finite"):
            DichotomicObservable(space, math.nan * np.eye(2))


class TestTensor:
    """Kronecker composition of labeled states."""

    def test_matches_numpy_kron(self):
        rng = np.random.default_rng(11)
        a = PureState(CompositeSpace.qubits("a"), random_pure(rng, 2))
        b = PureState(CompositeSpace.qubits("b"), random_pure(rng, 2))
        joint = tensor(a, b)
        np.testing.assert_allclose(
            joint.amplitudes, np.kron(a.amplitudes, b.amplitudes), atol=1e-15
        )
        assert joint.space.labels == ("a", "b")

    def test_associativity(self):
        rng = np.random.default_rng(12)
        states = [
            PureState(CompositeSpace.qubits(lbl), random_pure(rng, 2))
            for lbl in "xyz"
        ]
        left = tensor(tensor(states[0], states[1]), states[2])
        right = tensor(states[0], tensor(states[1], states[2]))
        np.testing.assert_allclose(left.amplitudes, right.amplitudes, atol=1e-15)
        assert left.space == right.space

    def test_list_argument(self):
        states = [PureState.basis(CompositeSpace.qubits(l), "0") for l in "ab"]
        assert tensor(states).space.labels == ("a", "b")

    def test_label_collision(self):
        a = PureState.basis(CompositeSpace.qubits("a"), "0")
        with pytest.raises(LabelCollision):
            tensor(a, a)


class TestPartialTrace:
    """Reduction against the brute-force index-summation oracle."""

    def test_bell_state_reduces_to_maximally_mixed(self):
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "11": 1 / SQRT2})
        reduced = partial_trace(psi, ("a",))
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_keep_order_is_original_order(self):
        """Kept factors stay in their original relative order."""
        rng = np.random.default_rng(21)
        space = CompositeSpace.qubits("a", "b", "c")
        psi = PureState(space, random_pure(rng, 8))
        r1 = partial_trace(psi, ("a", "c"))
        r2 = partial_trace(psi, ("c", "a"))
        assert r1.space.labels == ("a", "c")
        assert r2.space.labels == ("a", "c")
        np.testing.assert_allclose(r1.matrix, r2.matrix, atol=1e-15)

    def test_composition(self):
        """Tracing out factors one at a time equals tracing them at once."""
        rng = np.random.default_rng(22)
        space = CompositeSpace.qubits("a", "b", "c", "d")
        rho = DensityOperator(space, random_density(rng, 16))
        once = partial_trace(rho, ("a", "d"))
        twice = partial_trace(partial_trace(rho, ("a", "c", "d")), ("a", "d"))
        np.testing.assert_allclose(once.matrix, twice.matrix, atol=1e-14)

    def test_against_oracle_random_spaces(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dims = random_dims(rng)
            labels = [f"q{k}" for k in range(len(dims))]
            space = CompositeSpace(tuple(zip(labels, dims)))
            rho = DensityOperator(space, random_density(rng, space.dim))
            n_keep = int(rng.integers(1, len(dims) + 1))
            keep_axes = sorted(
                rng.choice(len(dims), size=n_keep, replace=False).tolist()
            )
            keep_labels = [labels[a] for a in keep_axes]
            reduced = partial_trace(rho, keep_labels)
            expected = brute_partial_trace(rho.matrix, list(dims), keep_axes)
            assert float(np.max(np.abs(reduced.matrix - expected))) < 1e-12

    def test_empty_keep_rejected(self):
        psi = PureState.basis(CompositeSpace.qubits("a", "b"), "00")
        with pytest.raises(ShapeError):
            partial_trace(psi, ())


class TestPurityAndCoherence:
    def test_pure_state_has_unit_purity(self):
        rng = np.random.default_rng(31)
        psi = PureState(CompositeSpace.qubits("a", "b"), random_pure(rng, 4))
        assert purity(psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_purity(self):
        space = CompositeSpace.qubits("a", "b")
        rho = DensityOperator(space, np.eye(4) / 4)
        assert purity(rho) == pytest.approx(0.25, abs=1e-14)

    def test_purity_below_one_for_proper_mixture(self):
        space = CompositeSpace.qubits("x")
        up = PureState.basis(space, "0").density()
        down = PureState.basis(space, "1").density()
        rho = DensityOperator.mixture([(0.5, up), (0.5, down)])
        assert purity(rho) == pytest.approx(0.5, abs=1e-14)

    def test_coherence_of_equal_superposition(self):
        """A two-qubit cat state carries coherence one between branches."""
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "11": 1 / SQRT2})
        assert coherence_norm(psi.density()) == pytest.approx(1.0, abs=1e-12)

    def test_coherence_vanishes_for_diagonal(self):
        space = CompositeSpace.qubits("x")
        rho = DensityOperator(space, np.diag([0.3, 0.7]))
        assert coherence_norm(rho) == 0.0

    def test_coherence_restricted_to_subset(self):
        """Entries that agree on the chosen factors do not count."""
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(space, {"00": 1 / SQRT2, "01": 1 / SQRT2})
        rho = psi.density()
        assert coherence_norm(rho, ("a",)) == pytest.approx(0.0, abs=1e-14)
        assert coherence_norm(rho, ("b",)) == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    """Dichotomic observables: algebra, projectors, embedding."""

    def test_pauli_squares_to_identity(self):
        for axis in "xyz":
            obs = DichotomicObservable.pauli(axis, "q")
            np.testing.assert_allclose(
                obs.matrix @ obs.matrix, np.eye(2), atol=1e-15
            )

    def test_rejects_non_involution(self):
        space = CompositeSpace.qubits("q")
        with pytest.raises(InvalidState):
            DichotomicObservable(space, np.diag([1.0, 0.5]))

    def test_bloch_observable_eigenvalues(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            obs = observable_from_bloch(theta, phi, CompositeSpace.qubits("q"))
            eig = np.linalg.eigvalsh(obs.matrix)
            np.testing.assert_allclose(eig, [-1.0, 1.0], atol=1e-12)

    def test_projectors_complete_and_orthogonal(self):
        obs = observable_from_bloch(0.7, 1.1, CompositeSpace.qubits("q"))
        plus, minus = obs.projectors()
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(plus @ minus, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-15)

    def test_bloch_vector_components(self):
        np.testing.assert_allclose(bloch_vector(0.0, 0.0), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(
            bloch_vector(math.pi / 2, 0.0), [1, 0, 0], atol=1e-15
        )
        np.testing.assert_allclose(
            bloch_vector(math.pi / 2, math.pi / 2), [0, 1, 0], atol=1e-15
        )


class TestEmbedAndExpectation:
    def test_embed_identity_elsewhere(self):
        space = CompositeSpace.qubits("a", "b")
        z = DichotomicObservable.pauli("z", "b")
        full = embed(z.matrix, z.space, space)
        np.testing.assert_allclose(full, np.kron(np.eye(2), z.matrix), atol=1e-15)

    def test_embed_respects_factor_order(self):
        space = CompositeSpace.qubits("a", "b")
        z = DichotomicObservable.pauli("z", "a")
        full = embed(z.matrix, z.space, space)
        np.testing.assert_allclose(full, np.kron(z.matrix, np.eye(2)), atol=1e-15)

    def test_expectation_known_values(self):
        space = CompositeSpace.qubits("q")
        up = PureState.basis(space, "0")
        z = DichotomicObservable.pauli("z", "q")
        x = DichotomicObservable.pauli("x", "q")
        assert expectation(up, z) == pytest.approx(1.0)
        assert expectation(up, x) == pytest.approx(0.0, abs=1e-14)

    def test_expectation_reads_the_observables_own_factors(self):
        space = CompositeSpace.qubits("a", "b")
        psi = PureState.from_mapping(space, {"01": 1.0})
        assert expectation(psi, DichotomicObservable.pauli("z", "a")) == pytest.approx(1.0)
        assert expectation(psi, DichotomicObservable.pauli("z", "b")) == pytest.approx(-1.0)

    def test_expectation_against_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            space = CompositeSpace.qubits("a", "b", "c")
            rho = DensityOperator(space, random_density(rng, 8))
            theta = float(rng.uniform(0, math.pi))
            phi = float(rng.uniform(0, 2 * math.pi))
            obs = observable_from_bloch(theta, phi, CompositeSpace.qubits("b"))
            full = embed(obs.matrix, obs.space, space)
            got = expectation(rho, obs)
            want = brute_expectation(rho.matrix, full)
            assert got == pytest.approx(want, abs=1e-12)

    def test_expectation_of_sub_normalized_state_rejected(self):
        space = CompositeSpace.qubits("a", "b")
        branch = PureState.from_mapping(space, {"01": 0.5}, normalized=False)
        with pytest.raises(InvalidState):
            expectation(branch, DichotomicObservable.pauli("z", "a"))

    def test_factor_dimension_mismatch_raises_shape_error(self):
        """A qubit observable on a three-dimensional factor is rejected by name."""
        space = CompositeSpace((("q", 3), ("r", 2)))
        psi = PureState.basis(space, (1, 0))
        z = DichotomicObservable.pauli("z", "q")
        for state in (psi, psi.density()):
            with pytest.raises(ShapeError, match="factor 'q' has dim 2"):
                expectation(state, z)
            with pytest.raises(ShapeError, match="factor 'q' has dim 2"):
                born_probabilities(state, z)
        with pytest.raises(ShapeError, match="factor 'q' has dim 2"):
            projective_collapse(psi, basis=z, rng=np.random.default_rng(0))


class TestValidate:
    """The non-raising diagnostic pathway."""

    def test_good_state_passes(self):
        rng = np.random.default_rng(51)
        report = validate(random_density(rng, 4))
        assert report.ok
        assert report.hermiticity_residual <= report.tolerance

    def test_flags_bad_trace(self):
        report = validate(np.eye(2))
        assert not report.trace_ok
        assert report.hermitian_ok

    def test_flags_non_hermitian(self):
        report = validate(np.array([[0.5, 0.2], [0.0, 0.5]]))
        assert not report.hermitian_ok

    def test_flags_negative_eigenvalue(self):
        report = validate(np.array([[0.8, 0.5], [0.5, 0.2]]))
        assert not report.psd_ok
        assert report.min_eigenvalue < 0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            validate(np.zeros((2, 3)))
