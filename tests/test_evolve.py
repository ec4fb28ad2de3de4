import numpy as np
import pytest

from qsim import gates, numerics
from qsim.entangle import Bipartition, is_entangled
from qsim.errors import CapacityError, DimensionMismatchError, NotHermitianError, ProbabilityError, QsimError
from qsim.evolve import Hamiltonian, evolve, evolve_density
from qsim.measure import measure_all
from qsim.observables import Observable, expectation
from qsim.qstate import basis_state, purity, to_density, zero_state

H_X = Hamiltonian(gates.X.matrix)
H_Z = Hamiltonian(gates.Z.matrix)


class TestHamiltonian:
    def test_requires_hermitian(self):
        with pytest.raises(NotHermitianError):
            Hamiltonian(gates.S.matrix)

    def test_requires_positive_hbar(self):
        with pytest.raises(QsimError):
            Hamiltonian(gates.Z.matrix, hbar=0.0)
        with pytest.raises(QsimError):
            Hamiltonian(gates.Z.matrix, hbar=-1.0)

    def test_dimension_capped_by_unitary_limit(self, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "3")
        with pytest.raises(CapacityError, match="Hamiltonian dimension 16 exceeds 8"):
            Hamiltonian(np.eye(16))
        assert Hamiltonian(np.eye(8)).matrix.shape == (8, 8)

    def test_huge_cap(self, monkeypatch):
        # Comparing the dimension with 1 << cap overflowed.
        monkeypatch.setenv("QSIM_MAX_QUBITS", str(10**30))
        assert Hamiltonian([[1.0]]).matrix.shape == (1, 1)

    def test_rejects_nonfinite_duration(self):
        with pytest.raises(QsimError):
            evolve(H_Z, np.inf, zero_state(1))

    def test_propagation_runs_no_eigensolver_and_no_hermiticity_check(
        self, monkeypatch, rng, random_state, random_hermitian
    ):
        h = Hamiltonian(random_hermitian(rng, 8))
        s = random_state(rng, 3)
        expected = (h.propagator(0.3), evolve(h, 0.3, s).amplitudes, evolve_density(h, 0.3, to_density(s)).matrix)

        def refuse(*args, **kwargs):
            raise AssertionError("the spectrum was computed again after construction")

        monkeypatch.setattr(numerics, "eig_hermitian", refuse)
        monkeypatch.setattr(numerics, "is_hermitian", refuse)
        np.testing.assert_array_equal(h.propagator(0.3), expected[0])
        np.testing.assert_array_equal(evolve(h, 0.3, s).amplitudes, expected[1])
        np.testing.assert_array_equal(evolve_density(h, 0.3, to_density(s)).matrix, expected[2])

    def test_propagator_is_the_spectral_formula_bit_for_bit(self, rng, random_hermitian):
        for dim in (1, 2, 3, 16, 64):
            m = random_hermitian(rng, dim)
            hbar, t = float(rng.uniform(0.5, 2.0)), float(rng.uniform(-3.0, 3.0))
            values, vectors = np.linalg.eigh(m)
            expected = (vectors * np.exp(-1j * (values * (t / hbar)))) @ vectors.conj().T
            np.testing.assert_array_equal(Hamiltonian(m, hbar).propagator(t), expected)

    @pytest.mark.parametrize(
        "run",
        [
            lambda: Hamiltonian(np.diag([10.0, 0.0])).propagator(1e308),
            lambda: Hamiltonian(gates.Z.matrix, hbar=1e-300).propagator(1e10),
            lambda: evolve(Hamiltonian(np.diag([10.0, 0.0])), 1e308, zero_state(1)),
            lambda: evolve_density(Hamiltonian(np.diag([10.0, 0.0])), 1e308, to_density(zero_state(1))),
        ],
    )
    def test_rejects_a_phase_past_the_float_range(self, run):
        # H t / hbar overflows: its exponential would be nan, not a unitary.
        with pytest.raises(QsimError, match="evolution phase"):
            run()


class TestEvolve:
    def test_zero_duration(self):
        out = evolve(H_X, 0.0, zero_state(1))
        np.testing.assert_allclose(out.amplitudes, [1.0, 0.0], atol=1e-12)

    def test_diagonal_hamiltonian_adds_phase(self):
        # Global phase is retained: |0> picks up exp(-i t).
        t = 1.3
        out = evolve(H_Z, t, zero_state(1))
        np.testing.assert_allclose(out.amplitudes, [np.exp(-1j * t), 0.0], atol=1e-12)

    def test_x_rotation_quarter_turn(self):
        out = evolve(H_X, np.pi / 2, zero_state(1))
        np.testing.assert_allclose(out.amplitudes, [0.0, -1j], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve(H_X, 1.0, zero_state(2))

    def test_hbar_rescales_time(self):
        fast = evolve(Hamiltonian(gates.X.matrix, hbar=1.0), 0.7, zero_state(1))
        slow = evolve(Hamiltonian(gates.X.matrix, hbar=2.0), 1.4, zero_state(1))
        np.testing.assert_allclose(fast.amplitudes, slow.amplitudes, atol=1e-12)

    def test_composition(self, rng, random_state, random_hermitian):
        for _ in range(20):
            h = Hamiltonian(random_hermitian(rng, 4))
            s = random_state(rng, 2)
            t1, t2 = rng.standard_normal(2)
            two_step = evolve(h, t2, evolve(h, t1, s))
            one_step = evolve(h, t1 + t2, s)
            np.testing.assert_allclose(two_step.amplitudes, one_step.amplitudes, atol=1e-9)

    def test_reversibility(self, rng, random_state, random_hermitian):
        for _ in range(20):
            h = Hamiltonian(random_hermitian(rng, 4))
            s = random_state(rng, 2)
            t = float(rng.standard_normal())
            back = evolve(h, -t, evolve(h, t, s))
            np.testing.assert_allclose(back.amplitudes, s.amplitudes, atol=1e-9)

    def test_energy_conserved(self, rng, random_state, random_hermitian):
        for _ in range(20):
            hm = random_hermitian(rng, 4)
            h = Hamiltonian(hm)
            obs = Observable("energy", hm)
            s = random_state(rng, 2)
            before = expectation(obs, s)
            for t in (0.1, 1.0, 7.5):
                assert expectation(obs, evolve(h, t, s)) == pytest.approx(before, abs=1e-9)


class TestEvolveDensity:
    def test_zero_duration(self):
        rho = to_density(zero_state(1))
        np.testing.assert_allclose(evolve_density(H_X, 0.0, rho).matrix, rho.matrix, atol=1e-12)

    def test_eigenprojector_is_stationary(self):
        rho = to_density(zero_state(1))
        for t in (0.5, 2.0):
            np.testing.assert_allclose(
                evolve_density(H_Z, t, rho).matrix, rho.matrix, atol=1e-12
            )

    def test_x_rotation_flips_projector(self):
        # Conjugation kills the global phase: the result is exactly |1><1|.
        out = evolve_density(H_X, np.pi / 2, to_density(zero_state(1)))
        np.testing.assert_allclose(out.matrix, to_density(basis_state(1, 1)).matrix, atol=1e-12)

    def test_purity_invariant(self, rng, random_state, random_hermitian):
        for _ in range(20):
            h = Hamiltonian(random_hermitian(rng, 4))
            rho = to_density(random_state(rng, 2))
            evolved = evolve_density(h, float(rng.standard_normal()), rho)
            assert purity(evolved) == pytest.approx(purity(rho), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            evolve_density(H_X, 1.0, to_density(zero_state(2)))


SITES = {
    "hbar": (lambda v: Hamiltonian(gates.Z.matrix, hbar=v), QsimError),
    "duration": (lambda v: evolve(H_Z, v, zero_state(1)), QsimError),
    "draw": (lambda v: measure_all(zero_state(1), v), ProbabilityError),
    "tol": (lambda v: is_entangled(zero_state(2), Bipartition.split(2, [0]), tol=v), QsimError),
}


@pytest.mark.parametrize("value", ["0.5", 1j, None], ids=["str", "complex", "None"])
@pytest.mark.parametrize("site", list(SITES))
def test_a_real_argument_refuses_a_non_real(site, value):
    # numbers.Real is the rule from_ensemble reads its weights by; a str,
    # complex or None once reached a comparison and raised a raw TypeError.
    run, error = SITES[site]
    with pytest.raises(error, match=site):
        run(value)
