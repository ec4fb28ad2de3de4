import numpy as np
import pytest

from oracles import apply_two_qubit_truth_table
from qsim import gates
from qsim.errors import ArityError, UnknownGateError
from qsim.numerics import is_unitary

SQRT2_INV = 1.0 / np.sqrt(2.0)

EXPECTED_MATRICES = {
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
    "H": np.array([[1, 1], [1, -1]]) * SQRT2_INV,
    "SWAP": [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    "CNOT": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
}


class TestLibrary:
    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_exact_matrices(self, label):
        np.testing.assert_array_equal(
            gates.standard_gate(label).matrix,
            np.asarray(EXPECTED_MATRICES[label], dtype=complex),
        )

    def test_case_insensitive_lookup(self):
        assert gates.standard_gate("h") is gates.H
        assert gates.standard_gate("cnot") is gates.CNOT

    def test_unknown_gate(self):
        with pytest.raises(UnknownGateError):
            gates.standard_gate("Q")

    def test_arities(self):
        for label in ("X", "Y", "Z", "S", "T", "H"):
            assert gates.standard_gate(label).arity == 1
        assert gates.SWAP.arity == 2
        assert gates.CNOT.arity == 2

    def test_hadamard_creates_superposition(self):
        out = gates.H.matrix @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [SQRT2_INV, SQRT2_INV], atol=1e-15)

    def test_x_flips_basis(self):
        out = gates.X.matrix @ np.array([1.0, 0.0])
        np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            gates.X.label = "NOT"
        with pytest.raises(ValueError):
            gates.X.matrix[0, 0] = 7.0


class TestTruthTables:
    @pytest.mark.parametrize(
        "label_in,label_out",
        [("00", "00"), ("01", "01"), ("10", "11"), ("11", "10")],
    )
    def test_cnot(self, label_in, label_out):
        out = apply_two_qubit_truth_table(gates.CNOT, label_in)
        assert int(np.argmax(np.abs(out.amplitudes))) == int(label_out, 2)
        assert abs(out.amplitudes[int(label_out, 2)]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "label_in,label_out",
        [("00", "00"), ("01", "10"), ("10", "01"), ("11", "11")],
    )
    def test_swap(self, label_in, label_out):
        out = apply_two_qubit_truth_table(gates.SWAP, label_in)
        assert int(np.argmax(np.abs(out.amplitudes))) == int(label_out, 2)

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            apply_two_qubit_truth_table(gates.H, "00")

    def test_bad_label(self):
        with pytest.raises(ValueError):
            apply_two_qubit_truth_table(gates.CNOT, "012")


class TestGateAlgebra:
    """Identities that pin the matrices to their standard conventions."""

    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_all_unitary(self, label):
        assert is_unitary(gates.standard_gate(label).matrix, 1e-12)

    @pytest.mark.parametrize("gate", [gates.H, gates.X, gates.Y, gates.Z, gates.SWAP, gates.CNOT])
    def test_involutions(self, gate):
        dim = gate.matrix.shape[0]
        np.testing.assert_allclose(gate.matrix @ gate.matrix, np.eye(dim), atol=1e-12)

    def test_phase_gate_tower(self):
        np.testing.assert_allclose(gates.S.matrix @ gates.S.matrix, gates.Z.matrix, atol=1e-12)
        np.testing.assert_allclose(gates.T.matrix @ gates.T.matrix, gates.S.matrix, atol=1e-12)

    def test_hadamard_basis_change(self):
        hxh = gates.H.matrix @ gates.X.matrix @ gates.H.matrix
        hzh = gates.H.matrix @ gates.Z.matrix @ gates.H.matrix
        np.testing.assert_allclose(hxh, gates.Z.matrix, atol=1e-12)
        np.testing.assert_allclose(hzh, gates.X.matrix, atol=1e-12)
