import tracemalloc

import numpy as np
import pytest

from oracles import ConvergenceError, adjoint, identity, jacobi_eig_hermitian, kron, matmul
from qsim import gates, numerics
from qsim.errors import (
    CapacityError,
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
)
from qsim.numerics import eig_hermitian, is_hermitian, is_unitary, matexp_skew_hermitian

I2 = identity(2)
X = gates.X.matrix
Y = gates.Y.matrix
Z = gates.Z.matrix
S = gates.S.matrix
H = gates.H.matrix


class TestMatmul:
    def test_identity_case(self):
        np.testing.assert_array_equal(matmul(I2, X), X)

    def test_x_squares_to_identity(self):
        # [[0,1],[1,0]] times itself, multiplied out by hand.
        np.testing.assert_allclose(matmul(X, X), I2, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_associativity(self, rng):
        for _ in range(50):
            a = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
            b = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            c = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
            np.testing.assert_allclose(
                matmul(matmul(a, b), c), matmul(a, matmul(b, c)), atol=1e-12
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(DimensionMismatchError):
            matmul(np.array([[np.nan, 0], [0, 0]]), I2)


class TestKron:
    def test_identity_factors(self):
        np.testing.assert_array_equal(kron(I2, I2), identity(4))

    def test_xx_maps_00_to_11(self):
        # Expanding the 4x4 product by hand sends e0 to e3.
        e0 = np.zeros(4, dtype=complex)
        e0[0] = 1.0
        out = kron(X, X) @ e0
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_dimension_rule(self):
        assert kron(np.zeros((2, 2)), np.zeros((2, 2))).shape == (4, 4)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            kron(np.zeros((4, 4)), np.zeros((4, 4)), max_dim=8)

    def test_mixed_product_identity(self, rng):
        """(A (x) B)(C (x) D) == (AC) (x) (BD) for random 2x2 matrices."""
        for _ in range(50):
            a, b, c, d = (
                rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)
            )
            np.testing.assert_allclose(
                matmul(kron(a, b), kron(c, d)), kron(matmul(a, c), matmul(b, d)), atol=1e-12
            )


class TestAdjoint:
    def test_hadamard_self_adjoint(self):
        np.testing.assert_array_equal(adjoint(H), H)

    def test_phase_gate(self):
        np.testing.assert_array_equal(adjoint(S), np.diag([1, -1j]))

    def test_identity(self):
        np.testing.assert_array_equal(adjoint(I2), I2)

    def test_involution_exact(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            np.testing.assert_array_equal(adjoint(adjoint(a)), a)


class TestPredicates:
    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_library_gates_unitary(self, label):
        assert is_unitary(gates.standard_gate(label).matrix, 1e-12)

    def test_non_isometric_diagonal(self):
        assert not is_unitary(np.diag([1.0, 2.0]), 1e-12)

    def test_identity_unitary(self):
        assert is_unitary(I2, 1e-12)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            is_unitary(np.zeros((2, 3)))
        with pytest.raises(NotSquareError):
            is_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("m", [X, Y, Z, H, I2])
    def test_hermitian_gates(self, m):
        assert is_hermitian(m, 1e-12)

    def test_phase_gate_not_hermitian(self):
        # diag(1, i): the i entry is not its own conjugate.
        assert not is_hermitian(S, 1e-12)

    @pytest.mark.parametrize("dim,block", [(1, 1), (5, 4), (50, 150), (100, 1 << 15)])
    def test_blocks_agree_with_the_whole_difference(self, monkeypatch, rng, dim, block):
        # Row blocks of block // dim rows, one at least: one row, 3 rows with
        # a last block of 2, or the whole matrix.
        monkeypatch.setattr(numerics, "HERMITIAN_BLOCK", block)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for i, j in [(0, 0), (dim - 1, 0), (dim // 2, dim - 1), (dim - 1, dim - 1)]:
            m = a + a.conj().T
            m[i, j] += 1e-6j
            gap = float(np.max(np.abs(m - m.conj().T)))
            assert is_hermitian(m, gap)
            assert not is_hermitian(m, gap * (1 - 1e-9))

    def test_peak_memory_is_a_block(self, rng):
        dim = 1024
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = a + a.conj().T
        tracemalloc.start()
        try:
            assert is_hermitian(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The finite check's boolean mask (1/16 of m) and one block's
        # temporaries: a - a† whole took two matrices.
        assert peak < 16 * dim**2 / 4


class TestEigHermitian:
    def test_z_eigenvalues(self):
        d = eig_hermitian(Z)
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_identity_eigenvalues(self):
        d = eig_hermitian(I2)
        np.testing.assert_allclose(d.eigenvalues, [1.0, 1.0], atol=1e-12)

    def test_x_eigenpairs_up_to_phase(self):
        d = eig_hermitian(X)
        np.testing.assert_allclose(d.eigenvalues, [-1.0, 1.0], atol=1e-12)
        minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(np.vdot(minus, d.eigenvectors[:, 0])) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(plus, d.eigenvectors[:, 1])) == pytest.approx(1.0, abs=1e-10)

    def test_requires_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(S)

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError):
            jacobi_eig_hermitian(X, max_sweeps=0)

    def test_reconstruction_random(self, rng, random_hermitian):
        """Spectral reconstruction within 1e-9 for random Hermitian up to 16x16."""
        for _ in range(60):
            h = random_hermitian(rng, int(rng.integers(1, 17)))
            d = eig_hermitian(h)
            assert np.max(np.abs(d.reconstruct() - h)) <= 1e-9
            # eigenvalues real ascending
            assert np.all(np.diff(d.eigenvalues) >= -1e-12)

    def test_eigenpair_residuals_and_orthonormality(self, rng, random_hermitian):
        for _ in range(20):
            h = random_hermitian(rng, 8)
            d = eig_hermitian(h)
            residual = h @ d.eigenvectors - d.eigenvectors * d.eigenvalues
            assert np.max(np.abs(residual)) <= 1e-10
            gram = d.eigenvectors.conj().T @ d.eigenvectors
            assert np.max(np.abs(gram - np.eye(h.shape[0]))) <= 1e-10

    def test_matches_jacobi_oracle(self, rng, random_hermitian):
        for dim in range(1, 17):
            h = random_hermitian(rng, dim)
            np.testing.assert_allclose(
                eig_hermitian(h).eigenvalues, jacobi_eig_hermitian(h).eigenvalues, rtol=0, atol=1e-10
            )

    def test_takes_no_keyword(self):
        with pytest.raises(TypeError):
            eig_hermitian(X, max_sweeps=0)

    def test_matches_numpy_oracle(self, rng, random_hermitian):
        for _ in range(20):
            h = random_hermitian(rng, int(rng.integers(2, 13)))
            np.testing.assert_allclose(
                jacobi_eig_hermitian(h).eigenvalues, np.linalg.eigvalsh(h), atol=1e-10
            )


class TestMatexp:
    def test_zero_angle(self):
        np.testing.assert_allclose(matexp_skew_hermitian(X, 0.0), I2, atol=1e-12)

    def test_diagonal_hamiltonian(self):
        t = 0.37
        np.testing.assert_allclose(
            matexp_skew_hermitian(Z, t),
            np.diag([np.exp(-1j * t), np.exp(1j * t)]),
            atol=1e-12,
        )

    def test_x_half_pi_gives_minus_i_x(self):
        # Spectral expansion with eigenvalues +-1: exp(-iX pi/2) = -iX exactly.
        np.testing.assert_allclose(
            matexp_skew_hermitian(X, np.pi / 2), -1j * X, atol=1e-12
        )

    def test_always_unitary(self, rng, random_hermitian):
        for _ in range(40):
            h = random_hermitian(rng, int(rng.integers(1, 9)))
            assert is_unitary(matexp_skew_hermitian(h, float(rng.standard_normal())), 1e-10)

    def test_requires_hermitian(self):
        with pytest.raises(NotHermitianError):
            matexp_skew_hermitian(S, 1.0)

    def test_matches_jacobi_propagator(self, rng, random_hermitian):
        for dim in range(1, 17):
            h = random_hermitian(rng, dim)
            theta = float(rng.standard_normal())
            d = jacobi_eig_hermitian(h)
            expected = (d.eigenvectors * np.exp(-1j * d.eigenvalues * theta)) @ d.eigenvectors.conj().T
            np.testing.assert_allclose(matexp_skew_hermitian(h, theta), expected, rtol=0, atol=1e-10)
