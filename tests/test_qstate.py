import tracemalloc

import numpy as np
import pytest

from qsim import gates, numerics
from qsim.errors import (
    CapacityError,
    DimensionMismatchError,
    NotHermitianError,
    NotNormalizedError,
    NotPowerOfTwoError,
    PositivityError,
    ProbabilityError,
)
from qsim.evolve import Hamiltonian, evolve
from qsim.qstate import (
    DensityMatrix,
    StateVector,
    basis_state,
    dephase,
    from_amplitudes,
    from_ensemble,
    inner_product,
    normalize,
    purity,
    to_density,
    zero_state,
)

SQRT2_INV = 1.0 / np.sqrt(2.0)
HADAMARD_STATE = from_amplitudes([SQRT2_INV, SQRT2_INV])
HALF_ONES = np.full((2, 2), 0.5)  # density matrix of the equal superposition


class TestFromAmplitudes:
    def test_basis_state(self):
        s = from_amplitudes([1, 0])
        np.testing.assert_array_equal(s.amplitudes, [1.0, 0.0])
        assert s.num_qubits == 1

    def test_equal_superposition_stored_verbatim(self):
        np.testing.assert_array_equal(
            HADAMARD_STATE.amplitudes, [SQRT2_INV, SQRT2_INV]
        )

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            from_amplitudes([1, 1])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(NotPowerOfTwoError):
            from_amplitudes([1, 0, 0])
        with pytest.raises(NotPowerOfTwoError):
            from_amplitudes([])

    def test_rejects_nan(self):
        with pytest.raises(NotNormalizedError):
            from_amplitudes([np.nan, 0])

    def test_immutable(self):
        with pytest.raises(AttributeError):
            HADAMARD_STATE.num_qubits = 5
        with pytest.raises(ValueError):
            HADAMARD_STATE.amplitudes[0] = 0.0


def test_normalize_helper():
    s = normalize([3, 4])
    np.testing.assert_allclose(s.amplitudes, [0.6, 0.8], atol=1e-15)
    with pytest.raises(NotNormalizedError):
        normalize([0, 0])


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e200, 4e307])
def test_normalize_outside_the_squared_float_range(scale):
    # The squared sums underflow to 0, are subnormal, or overflow to inf (at
    # 4e307 |3 + 4j| * scale does too), though each vector is finite and nonzero.
    for amplitudes, expected in [([3 * scale, 4j * scale], [0.6, 0.8j]), ([(3 + 4j) * scale, 0], [0.6 + 0.8j, 0])]:
        np.testing.assert_allclose(normalize(amplitudes).amplitudes, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("amplitudes", [[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e308, np.inf]])
def test_normalize_refuses_zero_and_non_finite_vectors(amplitudes):
    with pytest.raises(NotNormalizedError):
        normalize(amplitudes)


def test_normalize_and_evolve_validate_no_state_again(monkeypatch):
    # Each builds a unit vector by construction and adopts it, as the engine
    # does: no copy, no second pass over the norm.
    h, state = Hamiltonian(gates.X.matrix), zero_state(1)

    def refuse(self):
        raise AssertionError("a StateVector was validated again")

    monkeypatch.setattr(StateVector, "__post_init__", refuse)
    np.testing.assert_allclose(normalize([3, 4]).amplitudes, [0.6, 0.8], rtol=0, atol=1e-15)
    np.testing.assert_allclose(evolve(h, np.pi / 2, state).amplitudes, [0.0, -1j], rtol=0, atol=1e-12)


def test_basis_and_zero_states():
    np.testing.assert_array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])
    np.testing.assert_array_equal(zero_state(3).amplitudes, np.eye(8)[0])
    with pytest.raises(DimensionMismatchError):
        basis_state(1, 2)


@pytest.mark.parametrize("build", [lambda: basis_state(-1, 0), lambda: basis_state(2, 4), lambda: basis_state(2, -1)])
def test_basis_state_refuses_a_negative_count_or_an_outside_index(build):
    with pytest.raises(DimensionMismatchError):
        build()


@pytest.mark.parametrize("build", [zero_state, lambda n: basis_state(n, 0)])
@pytest.mark.parametrize("n", [40, 64])
def test_capacity_before_the_state_is_built(monkeypatch, build, n):
    # 40 qubits would ask numpy for 16 TiB and 64 for more than it can index.
    monkeypatch.delenv("QSIM_MAX_QUBITS", raising=False)
    with pytest.raises(CapacityError, match=f"statevector path supports at most 24 qubits, got {n}"):
        build(n)


def test_zero_state_peak_memory_is_one_state():
    # The fresh array is the state: no validating copy, no norm temporary.
    n = 20
    tracemalloc.start()
    try:
        zero_state(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 16 * 2**n


class TestInnerProduct:
    def test_normalization(self):
        assert inner_product(zero_state(1), zero_state(1)) == pytest.approx(1.0)

    def test_orthogonal_basis(self):
        assert inner_product(zero_state(1), basis_state(1, 1)) == pytest.approx(0.0)

    def test_overlap_with_superposition(self):
        assert inner_product(zero_state(1), HADAMARD_STATE) == pytest.approx(
            SQRT2_INV, abs=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(zero_state(1), zero_state(2))

    def test_cauchy_schwarz(self, rng, random_state):
        for _ in range(100):
            a = random_state(rng, 2)
            b = random_state(rng, 2)
            assert abs(inner_product(a, b)) <= 1.0 + 1e-12


class TestToDensity:
    def test_equal_superposition_projector(self):
        np.testing.assert_allclose(
            to_density(HADAMARD_STATE).matrix, HALF_ONES, atol=1e-15
        )

    def test_basis_projectors(self):
        np.testing.assert_array_equal(to_density(zero_state(1)).matrix, [[1, 0], [0, 0]])
        np.testing.assert_array_equal(
            to_density(basis_state(1, 1)).matrix, [[0, 0], [0, 1]]
        )

    def test_pure_state_purity(self, rng, random_state):
        for n in (1, 2, 3):
            assert purity(to_density(random_state(rng, n))) == pytest.approx(1.0, abs=1e-10)

    def test_never_negative_eigenvalues(self, rng, random_state):
        for _ in range(25):
            rho = to_density(random_state(rng, 2))
            eigs = numerics.eig_hermitian(rho.matrix).eigenvalues
            assert eigs[0] >= -1e-9


class TestFromEnsemble:
    def test_equal_mixture(self):
        rho = from_ensemble([(0.5, zero_state(1)), (0.5, basis_state(1, 1))])
        np.testing.assert_allclose(rho.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_singleton_equals_to_density_exactly(self):
        single = from_ensemble([(1.0, HADAMARD_STATE)])
        np.testing.assert_array_equal(single.matrix, to_density(HADAMARD_STATE).matrix)

    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilityError):
            from_ensemble([(0.7, zero_state(1)), (0.7, basis_state(1, 1))])

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ProbabilityError):
            from_ensemble([(1.5, zero_state(1)), (-0.5, basis_state(1, 1))])

    def test_rejects_nan_probability(self):
        # NaN fails every comparison, so a check of p < 0 or p > 1 let it through.
        with pytest.raises(ProbabilityError):
            from_ensemble([(float("nan"), zero_state(1))])

    @pytest.mark.parametrize(
        "weight", ["1", None, 1 + 0j, np.complex128(1), b"1"], ids=["str", "None", "complex", "np-complex", "bytes"]
    )
    def test_rejects_a_weight_that_is_not_a_real_number(self, weight):
        # float("1") is 1.0, but the sum of a str weight and a projector is a numpy type error.
        with pytest.raises(ProbabilityError):
            from_ensemble([(weight, zero_state(1))])

    def test_integer_and_numpy_weights_are_read_as_floats(self):
        rho = from_ensemble([(1, zero_state(1)), (np.float32(0), basis_state(1, 1))])
        np.testing.assert_array_equal(rho.matrix, to_density(zero_state(1)).matrix)

    def test_rejects_empty(self):
        with pytest.raises(ProbabilityError):
            from_ensemble([])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            from_ensemble([(0.5, zero_state(1)), (0.5, zero_state(2))])


class TestPurity:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        assert purity(rho) == pytest.approx(0.5, abs=1e-15)

    def test_projector_purity_via_matrix_square(self):
        # Direct square-and-trace of the equal-superposition projector.
        rho = DensityMatrix(HALF_ONES)
        direct = np.trace(HALF_ONES @ HALF_ONES).real
        assert purity(rho) == pytest.approx(direct, abs=1e-15)
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_range(self, rng):
        for _ in range(25):
            probs = rng.dirichlet(np.ones(4))
            rho = DensityMatrix(np.diag(probs))
            assert 0.25 - 1e-10 <= purity(rho) <= 1.0 + 1e-10


class TestDephase:
    def test_kills_coherences(self):
        np.testing.assert_allclose(
            dephase(DensityMatrix(HALF_ONES)).matrix, np.diag([0.5, 0.5]), atol=1e-15
        )

    def test_diagonal_fixed_point(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        np.testing.assert_array_equal(dephase(rho).matrix, rho.matrix)
        proj = DensityMatrix(np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(dephase(proj).matrix, proj.matrix)

    def test_never_raises_purity(self, rng, random_state):
        for _ in range(50):
            rho = to_density(random_state(rng, 2))
            assert purity(dephase(rho)) <= purity(rho) + 1e-12

    def test_never_raises_purity_mixed(self, rng, random_state):
        for _ in range(50):
            probs = rng.dirichlet(np.ones(3))
            rho = from_ensemble([(p, random_state(rng, 2)) for p in probs])
            assert purity(dephase(rho)) <= purity(rho) + 1e-12


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            DensityMatrix([[0.5, 1.0], [0.0, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(NotNormalizedError):
            DensityMatrix(np.diag([0.6, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(PositivityError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_psd_floor_is_minus_1e_9(self):
        assert DensityMatrix(np.diag([1.0 + 5e-10, -5e-10])).num_qubits == 1
        with pytest.raises(PositivityError):
            DensityMatrix(np.diag([1.0 + 2e-9, -2e-9]))

    def test_accepts_valid_mixed_state(self):
        rho = DensityMatrix([[0.6, 0.2], [0.2, 0.4]])
        assert rho.num_qubits == 1

    def test_immutable(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]))
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2)
