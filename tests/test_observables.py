import numpy as np
import pytest

from qsim import gates
from qsim.errors import DimensionMismatchError, NotHermitianError
from qsim.observables import (
    Observable,
    commutator,
    expectation,
    expectation_density,
    robertson_check,
    variance,
)
from qsim.qstate import basis_state, from_amplitudes, to_density, zero_state

SQRT2_INV = 1.0 / np.sqrt(2.0)
PLUS = from_amplitudes([SQRT2_INV, SQRT2_INV])

OBS_X = Observable("X", gates.X.matrix)
OBS_Y = Observable("Y", gates.Y.matrix)
OBS_Z = Observable("Z", gates.Z.matrix)


def test_construction_requires_hermitian():
    with pytest.raises(NotHermitianError):
        Observable("S", gates.S.matrix)


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(OBS_Z, zero_state(1)) == pytest.approx(1.0)

    def test_x_on_plus(self):
        assert expectation(OBS_X, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_z_on_plus(self):
        assert expectation(OBS_Z, PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectation(OBS_Z, zero_state(2))

    def test_always_real(self, rng, random_state, random_hermitian):
        """Hermitian observables yield real expectation values."""
        for _ in range(100):
            obs = Observable("R", random_hermitian(rng, 4))
            value = expectation(obs, random_state(rng, 2))
            assert isinstance(value, float)

    def test_linearity(self, rng, random_state, random_hermitian):
        for _ in range(25):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            alpha, beta = rng.standard_normal(2)
            s = random_state(rng, 1)
            combined = expectation(Observable("aA+bB", alpha * a + beta * b), s)
            separate = alpha * expectation(Observable("A", a), s) + beta * expectation(
                Observable("B", b), s
            )
            assert combined == pytest.approx(separate, abs=1e-10)

    def test_imaginary_roundoff_within_hermitian_tolerance(self):
        # 0.45e-10j on every entry passes the 1e-10 Hermiticity check, and a
        # uniform state picks up 64 * 0.45e-10 = 2.88e-9 of imaginary part.
        d = 64
        a = np.diag(np.arange(d, dtype=float)) + 0.45e-10j * np.ones((d, d))
        obs = Observable("A", a)
        psi = from_amplitudes(np.full(d, 1 / 8))
        hermitian_part = (a + a.conj().T) / 2
        expected = complex(np.vdot(psi.amplitudes, hermitian_part @ psi.amplitudes)).real
        assert expected == pytest.approx(31.5, abs=1e-12)
        assert expectation(obs, psi) == pytest.approx(expected, abs=1e-12)
        assert expectation_density(obs, to_density(psi)) == pytest.approx(expected, abs=1e-12)


class TestExpectationDensity:
    def test_maximally_mixed(self):
        rho = to_density(PLUS)
        mixed = np.diag([0.5, 0.5])
        from qsim.qstate import DensityMatrix

        assert expectation_density(OBS_Z, DensityMatrix(mixed)) == pytest.approx(0.0)
        assert expectation_density(OBS_X, rho) == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_projector(self):
        assert expectation_density(OBS_Z, to_density(zero_state(1))) == pytest.approx(1.0)

    def test_matches_pure_route(self, rng, random_state, random_hermitian):
        for _ in range(50):
            obs = Observable("R", random_hermitian(rng, 4))
            s = random_state(rng, 2)
            assert expectation_density(obs, to_density(s)) == pytest.approx(
                expectation(obs, s), abs=1e-10
            )


class TestCommutator:
    def test_self_commutator_vanishes(self):
        np.testing.assert_array_equal(commutator(OBS_X, OBS_X), np.zeros((2, 2)))

    def test_xy_gives_2iz(self):
        np.testing.assert_allclose(commutator(OBS_X, OBS_Y), 2j * gates.Z.matrix, atol=1e-12)

    def test_zx_gives_2iy(self):
        np.testing.assert_allclose(commutator(OBS_Z, OBS_X), 2j * gates.Y.matrix, atol=1e-12)

    def test_antisymmetry_exact(self, rng, random_hermitian):
        for _ in range(20):
            a = Observable("A", random_hermitian(rng, 4))
            b = Observable("B", random_hermitian(rng, 4))
            np.testing.assert_array_equal(commutator(a, b), -commutator(b, a))

    def test_skew_hermitian(self, rng, random_hermitian):
        for _ in range(20):
            c = commutator(
                Observable("A", random_hermitian(rng, 4)),
                Observable("B", random_hermitian(rng, 4)),
            )
            assert np.max(np.abs(c + c.conj().T)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(OBS_X, Observable("big", np.eye(4)))


class TestVariance:
    def test_eigenstate_has_zero_variance(self):
        assert variance(OBS_Z, zero_state(1)) == pytest.approx(0.0, abs=1e-12)
        assert variance(OBS_X, PLUS) == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_basis(self):
        assert variance(OBS_Z, PLUS) == pytest.approx(1.0, abs=1e-12)

    def test_never_meaningfully_negative(self, rng, random_state, random_hermitian):
        for _ in range(100):
            obs = Observable("R", random_hermitian(rng, 4))
            assert variance(obs, random_state(rng, 2)) >= -1e-10


class TestRobertson:
    def test_commuting_pair(self):
        check = robertson_check(OBS_Z, OBS_Z, PLUS)
        assert check.rhs == pytest.approx(0.0, abs=1e-12)
        assert check.holds

    def test_xz_on_zero_state(self):
        # [X, Z] = -2iY and <0|Y|0> = 0, so both sides collapse to zero.
        check = robertson_check(OBS_X, OBS_Z, zero_state(1))
        assert check.rhs == pytest.approx(0.0, abs=1e-12)
        assert check.holds

    def test_xy_on_zero_state_is_tight(self):
        check = robertson_check(OBS_X, OBS_Y, zero_state(1))
        assert check.lhs == pytest.approx(1.0, abs=1e-12)
        assert check.rhs == pytest.approx(1.0, abs=1e-12)
        assert check.holds

    def test_random_pauli_pairs(self, rng, random_state):
        paulis = [OBS_X, OBS_Y, OBS_Z]
        for _ in range(300):
            a, b = (paulis[int(i)] for i in rng.integers(0, 3, size=2))
            assert robertson_check(a, b, random_state(rng, 1)).holds
