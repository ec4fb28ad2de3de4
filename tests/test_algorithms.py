import tracemalloc

import numpy as np
import pytest

from qsim.algorithms import (
    GroverSpec,
    bell_circuit,
    grover_optimal_iterations,
    grover_run,
    grover_success_closed_form,
    grover_success_trajectory,
)
from qsim.circuit import apply
from qsim.entangle import Bipartition, is_entangled
from qsim.errors import CapacityError, DimensionMismatchError, QsimError
from qsim.measure import probabilities
from qsim.qstate import zero_state

SQRT2_INV = 1.0 / np.sqrt(2.0)


class TestBellCircuit:
    def test_structure(self):
        c = bell_circuit()
        assert c.num_qubits == 2
        assert [(i.gate.label, i.wires) for i in c.instructions] == [
            ("H", (0,)),
            ("CNOT", (0, 1)),
        ]

    def test_output_state(self):
        out = apply(bell_circuit(), zero_state(2))
        np.testing.assert_allclose(
            out.amplitudes, [SQRT2_INV, 0, 0, SQRT2_INV], atol=1e-12
        )

    def test_output_probabilities(self):
        out = apply(bell_circuit(), zero_state(2))
        np.testing.assert_allclose(
            probabilities(out).probabilities, [0.5, 0, 0, 0.5], atol=1e-12
        )

    def test_output_is_entangled(self):
        out = apply(bell_circuit(), zero_state(2))
        assert is_entangled(out, Bipartition.split(2, [0]), 1e-9)


class TestGroverSpec:
    def test_rejects_single_qubit(self):
        with pytest.raises(QsimError):
            GroverSpec(1, 0, 1)

    def test_rejects_marked_out_of_range(self):
        with pytest.raises(DimensionMismatchError):
            GroverSpec(2, 4, 1)

    def test_rejects_negative_iterations(self):
        with pytest.raises(QsimError):
            GroverSpec(2, 0, -1)


class TestGroverRun:
    def test_two_qubits_one_iteration_is_certain(self):
        for marked in range(4):
            result = grover_run(GroverSpec(2, marked, 1))
            assert result.success_probability == pytest.approx(1.0, abs=1e-9)

    def test_three_qubits_two_iterations(self):
        # sin^2(5 arcsin(1/sqrt(8))) works out to exactly 121/128.
        result = grover_run(GroverSpec(3, 0, 2))
        assert result.success_probability == pytest.approx(121.0 / 128.0, abs=1e-9)

    def test_zero_iterations_is_uniform(self):
        for n in (2, 3, 5):
            result = grover_run(GroverSpec(n, 1, 0))
            assert result.success_probability == pytest.approx(2.0**-n, abs=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            grover_run(GroverSpec(21, 0, 1))

    def test_memory_does_not_grow_with_iterations(self):
        grover_run(GroverSpec(2, 0, 10))  # warm up imports and caches
        tracemalloc.start()
        try:
            grover_run(GroverSpec(2, 0, 10**4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_peak_memory_is_one_state(self):
        # The final state adopts the loop's array: no validating copy.
        n = 16
        tracemalloc.start()
        try:
            grover_run(GroverSpec(n, 5, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 2**n

    def test_final_state_matches_trajectory(self):
        spec = GroverSpec(4, 7, 3)
        assert grover_run(spec).success_probability == pytest.approx(
            grover_success_trajectory(spec)[-1], abs=1e-12
        )


class TestClosedForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_trajectory_matches_closed_form(self, n):
        k_max = 2 * grover_optimal_iterations(n)
        trajectory = grover_success_trajectory(GroverSpec(n, (1 << n) - 1, k_max))
        for k, simulated in enumerate(trajectory):
            assert simulated == pytest.approx(
                grover_success_closed_form(n, k), abs=1e-9
            ), f"n={n} k={k}"

    @pytest.mark.parametrize("n", range(2, 11))
    def test_optimal_iteration_improves_on_previous(self, n):
        k = grover_optimal_iterations(n)
        at_k = grover_success_closed_form(n, k)
        at_prev = grover_success_closed_form(n, max(k - 1, 0))
        assert abs(1.0 - at_k) <= abs(1.0 - at_prev) + 1e-12

    def test_optimal_iterations_golden(self):
        # n=1 evaluates to round(0.4999999...) = 0; the rest follow the
        # quarter-period growth ~ (pi/4) sqrt(2^n).
        assert [grover_optimal_iterations(n) for n in range(1, 7)] == [0, 1, 2, 3, 4, 6]

    def test_optimal_iterations_requires_positive_n(self):
        with pytest.raises(QsimError):
            grover_optimal_iterations(0)

    @pytest.mark.parametrize("n", [2049, 2100, 5000])
    def test_optimal_iterations_beyond_the_float_range(self, n):
        # The count overflows a float from 2049 qubits on; at 5000, theta is 0.
        with pytest.raises(QsimError, match="float range"):
            grover_optimal_iterations(n)

    def test_optimal_iterations_at_the_float_range(self):
        assert grover_optimal_iterations(2048) > 10**307


class TestIterationGeometry:
    def test_unmarked_amplitudes_stay_equal(self):
        """The walk never leaves the span of the uniform and marked vectors."""
        n, marked = 3, 5
        # Re-run the loop step by step.
        from qsim.algorithms import _iterate

        amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)
        for _ in range(2 * grover_optimal_iterations(n)):
            _iterate(amps, marked)
            unmarked = np.delete(amps, marked)
            assert np.max(np.abs(unmarked - unmarked[0])) <= 1e-10

    def test_oracle_and_diffusion_are_involutions(self):
        """Both reflections square to the identity as explicit matrices."""
        n, marked = 2, 3
        dim = 1 << n
        from qsim.algorithms import _iterate
        from qsim.circuit import Circuit, Instruction, unitary_of
        from qsim.gates import H

        iteration_mat = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[col] = 1.0
            _iterate(basis, marked)
            iteration_mat[:, col] = basis
        oracle_mat = np.eye(dim, dtype=complex)
        oracle_mat[marked, marked] = -1.0
        # One iteration is diffusion * oracle, and the oracle is its own inverse.
        diffusion_mat = iteration_mat @ oracle_mat
        h_layer = unitary_of(Circuit(n, [Instruction(H, (w,)) for w in range(n)]))
        reflect_zero = -np.eye(dim)
        reflect_zero[0, 0] = 1.0
        np.testing.assert_allclose(diffusion_mat, h_layer @ reflect_zero @ h_layer, atol=1e-12)
        np.testing.assert_allclose(oracle_mat @ oracle_mat, np.eye(dim), atol=1e-10)
        np.testing.assert_allclose(diffusion_mat @ diffusion_mat, np.eye(dim), atol=1e-10)
        assert np.max(np.abs(oracle_mat.conj().T @ oracle_mat - np.eye(dim))) <= 1e-10
        assert np.max(np.abs(diffusion_mat.conj().T @ diffusion_mat - np.eye(dim))) <= 1e-10
