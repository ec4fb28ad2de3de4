"""Brute-force references that only the tests call.

Dense products, Kronecker products and adjoints with explicit shape checks,
and a two-qubit gate's action on one basis ket. The library's paths never
build these: they run gates in place through ``qsim.circuit``.
"""

import numpy as np

from qsim.errors import ArityError, CapacityError, DimensionMismatchError
from qsim.gates import Gate
from qsim.numerics import as_matrix
from qsim.qstate import StateVector

KRON_MAX_DIM = 1 << 24


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    am, bm = as_matrix(a), as_matrix(b)
    if am.shape[1] != bm.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply {am.shape} by {bm.shape}: inner dimensions differ"
        )
    return am @ bm


def kron(a, b, *, max_dim: int = KRON_MAX_DIM) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    am, bm = as_matrix(a), as_matrix(b)
    rows = am.shape[0] * bm.shape[0]
    cols = am.shape[1] * bm.shape[1]
    if max(rows, cols) > max_dim:
        raise CapacityError(
            f"kron result {rows}x{cols} exceeds the configured maximum {max_dim}"
        )
    return np.kron(am, bm)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T.copy()


def apply_two_qubit_truth_table(gate: Gate, basis_label: str) -> StateVector:
    """Apply a two-qubit gate to a computational basis ket given as two bits."""
    if gate.arity != 2:
        raise ArityError(f"gate {gate.label!r} has arity {gate.arity}, expected 2")
    if len(basis_label) != 2 or any(ch not in "01" for ch in basis_label):
        raise ValueError(f"basis label must be two bits, got {basis_label!r}")
    vec = np.zeros(4, dtype=np.complex128)
    vec[int(basis_label, 2)] = 1.0
    return StateVector(gate.matrix @ vec)
