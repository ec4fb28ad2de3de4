"""Brute-force references that only the tests call.

Dense products, Kronecker products and adjoints with explicit shape checks,
a cyclic-Jacobi Hermitian eigensolver, a two-qubit gate's action on one
basis ket, the Schmidt spectrum from singular values, Grover's loop as the
textbook writes it, the ``qsim run`` json shape from json's pure-Python
indenting encoder, and the gate scheduler as a walk back through its
items. The library's paths never build these: they run gates in place
through ``qsim.circuit``, decompose Hermitian matrices with LAPACK ``eigh``
in ``qsim.numerics.eig_hermitian``, take the Schmidt spectrum from the
smaller reduced matrix, run Grover without per-step objects, write json
with the C encoder and schedule through an index of the items by wire and
by kind.
"""

import json

import numpy as np

from qsim import circuit
from qsim.errors import (
    ArityError,
    CapacityError,
    DimensionMismatchError,
    NotHermitianError,
    QsimError,
)
from qsim.gates import Gate
from qsim.numerics import DEFAULT_TOL, EigenDecomposition, as_matrix, is_hermitian
from qsim.qstate import StateVector

KRON_MAX_DIM = 1 << 24

# Jacobi sweep budget and off-diagonal Frobenius target.
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-12


class ConvergenceError(QsimError):
    """The Jacobi solver hit its sweep cap before converging."""


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


def jacobi_eig_hermitian(
    a,
    *,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    off_tol: float = JACOBI_OFF_TOL,
) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Golub & Van Loan, *Matrix Computations*, section 8.5: an independent
    reference for the library's LAPACK ``eigh`` path.

    Each pivot (p, q) is annihilated by a 2x2 unitary built from a phase
    factor (absorbing the complex argument of a[p, q]) and a real rotation.
    Sweeps repeat until the off-diagonal Frobenius norm falls below
    ``off_tol`` (scaled by the matrix norm), or :class:`ConvergenceError`
    is raised after ``max_sweeps``.
    """
    m = as_matrix(a)
    if not is_hermitian(m, DEFAULT_TOL):
        raise NotHermitianError("eig_hermitian requires a Hermitian matrix")
    n = m.shape[0]
    # Symmetrize so roundoff in the input cannot leak into the iteration.
    work = (m + m.conj().T) / 2.0
    vecs = np.eye(n, dtype=np.complex128)
    if n == 1:
        return EigenDecomposition(np.array([work[0, 0].real]), vecs)

    threshold = off_tol * max(1.0, float(np.linalg.norm(work)))
    converged = False
    for _ in range(max_sweeps):
        off = np.linalg.norm(work - np.diag(np.diagonal(work)))
        if off <= threshold:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[p, q]
                g = abs(apq)
                if g == 0.0:
                    continue
                phase = apq / g
                tau = (work[q, q].real - work[p, p].real) / (2.0 * g)
                sign = 1.0 if tau >= 0.0 else -1.0
                t = -sign / (abs(tau) + np.hypot(tau, 1.0))
                c = 1.0 / np.hypot(t, 1.0)
                s = t * c
                # Columns: U = diag(1, conj(phase)) @ [[c, -s], [s, c]]
                u2 = np.array(
                    [[c, -s], [s * np.conj(phase), c * np.conj(phase)]],
                    dtype=np.complex128,
                )
                work[:, [p, q]] = work[:, [p, q]] @ u2
                work[[p, q], :] = u2.conj().T @ work[[p, q], :]
                vecs[:, [p, q]] = vecs[:, [p, q]] @ u2
                work[p, q] = 0.0
                work[q, p] = 0.0
    else:
        converged = np.linalg.norm(work - np.diag(np.diagonal(work))) <= threshold
    if not converged:
        raise ConvergenceError(
            f"Jacobi failed to reach off-diagonal norm {threshold:g} "
            f"in {max_sweeps} sweeps"
        )

    values = np.real(np.diagonal(work)).copy()
    order = np.argsort(values, kind="stable")
    return EigenDecomposition(values[order], vecs[:, order])


def apply_two_qubit_truth_table(gate: Gate, basis_label: str) -> StateVector:
    """Apply a two-qubit gate to a computational basis ket given as two bits."""
    if gate.arity != 2:
        raise ArityError(f"gate {gate.label!r} has arity {gate.arity}, expected 2")
    if len(basis_label) != 2 or any(ch not in "01" for ch in basis_label):
        raise ValueError(f"basis label must be two bits, got {basis_label!r}")
    vec = np.zeros(4, dtype=np.complex128)
    vec[int(basis_label, 2)] = 1.0
    return StateVector(gate.matrix @ vec)


def indented_json(header: dict, key: str, rows: dict) -> str:
    """``header``, then ``rows`` under ``key``, as ``json.dumps(indent=2)``."""
    return json.dumps({**header, key: rows}, indent=2) + "\n"


def svd_schmidt_weights(state: StateVector, subsystem_a) -> np.ndarray:
    """Squared singular values of the amplitudes as a 2^|A| x 2^|B| matrix, descending."""
    n = state.num_qubits
    side_a = sorted(subsystem_a)
    order = side_a + [q for q in range(n) if q not in side_a]
    matrix = state.amplitudes.reshape((2,) * n).transpose(order).reshape(1 << len(side_a), -1)
    return np.linalg.svd(matrix, compute_uv=False) ** 2


def grover_textbook(num_qubits: int, marked: int, iterations: int):
    """Grover's loop step by step: the success trajectory and the final amplitudes.

    Each step negates the marked amplitude, then maps every amplitude a to
    2 * mean - a with ``ndarray.mean``, and records ``|a_marked|^2`` as it goes.
    """
    dim = 1 << num_qubits
    amps = np.full(dim, dim**-0.5, dtype=np.complex128)
    trajectory = [float(abs(amps[marked]) ** 2)]
    for _ in range(iterations):
        amps[marked] = -amps[marked]
        amps = 2 * amps.mean() - amps
        trajectory.append(float(abs(amps[marked]) ** 2))
    return trajectory, amps


def backward_schedule(instructions, low: int, width: int, spread: bool = False) -> list:
    """``circuit._schedule``'s items, found by walking back through the items made so far.

    Each instruction scans back from the latest item and joins the first of
    its kind (a fold, one with room) that it meets before an item on one of
    its wires, that item included; else it opens an item. Quadratic in the
    circuit's length when one run gathers gates from all of it.
    """
    block = circuit.BLOCK_BITS
    items = []
    for instr in instructions:
        ws = set(instr.wires)
        start = low + (min(ws) - low) // block * block if block else low
        window = start <= min(ws) and max(ws) < start + block and (spread or start == low)
        fold = max(ws) < low and len(ws) <= width and instr.gate.cycles is not None
        kind = start if window else "fold" if fold else None
        target = None
        for item in reversed(items if kind is not None else ()):
            if item[0] == kind and (kind != "fold" or len(item[1] | ws) <= width):
                target = item
            if target or not item[1].isdisjoint(ws):
                break
        if target is None:
            items.append(target := [kind, set(), []])
        target[1] |= ws
        target[2].append(instr)
    return items
