"""Quantum state representations: state vectors and density matrices.

Qubit ordering convention, used everywhere in the package: qubit 0 is the
leftmost symbol of a ket string and the most significant bit of the basis
index, so |q0 q1 ... q_{n-1}> sits at index sum(q_k * 2**(n-1-k)). The
bitstring label of basis index k is therefore just k written in binary,
zero-padded to n digits.

Construction rejects unnormalized amplitudes instead of silently fixing
them (a wrong norm usually means a caller bug); :func:`normalize` is the
explicit opt-in for scaling raw amplitudes.
"""

from collections.abc import Sequence

import numpy as np

from . import numerics
from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotNormalizedError,
    NotPowerOfTwoError,
    PositivityError,
    ProbabilityError,
)

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_FLOOR = -1e-9  # roundoff allowance for the PSD check


def _num_qubits_for(length: int) -> int:
    if length < 1 or length & (length - 1):
        raise NotPowerOfTwoError(f"length {length} is not a power of two")
    return length.bit_length() - 1


class StateVector:
    """Normalized complex amplitudes over the 2**n computational basis states."""

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
        n = _num_qubits_for(amps.size)
        if not np.isfinite(amps).all():
            raise NotNormalizedError("amplitudes must be finite")
        sumsq = float(np.sum(np.abs(amps) ** 2))
        if abs(sumsq - 1.0) > NORM_TOL:
            raise NotNormalizedError(
                f"amplitudes have squared norm {sumsq!r}, expected 1 within {NORM_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 2**n basis states.

    Construction checks all three: Hermiticity within 1e-10, trace within
    1e-10, and a lowest eigenvalue (LAPACK ``eigvalsh``) no lower than the
    roundoff floor -1e-9. Operations whose output is a density matrix by
    construction (outer products, convex mixtures, unitary conjugation,
    partial traces, dephasing) return through :func:`adopt_density` instead.
    """

    __slots__ = ("matrix", "num_qubits")

    def __init__(self, matrix):
        m = numerics.as_matrix(matrix).copy()
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {m.shape}")
        n = _num_qubits_for(m.shape[0])
        if not numerics.is_hermitian(m):
            raise NotHermitianError("density matrix must be Hermitian within 1e-10")
        trace = complex(np.trace(m))
        if abs(trace - 1.0) > TRACE_TOL:
            raise NotNormalizedError(f"density matrix trace {trace!r} is not 1 within {TRACE_TOL}")
        lowest = float(np.linalg.eigvalsh(m)[0])
        if lowest < EIGENVALUE_FLOOR:
            raise PositivityError(
                f"density matrix has eigenvalue {lowest!r} below {EIGENVALUE_FLOOR}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "num_qubits", n)

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def _adopt(cls, field: str, array: np.ndarray):
    """An unvalidated ``cls`` whose ``field`` is ``array``, 2**n long on axis 0.

    Also used by ``measure`` for distributions derived from valid states.
    """
    obj = object.__new__(cls)
    array.setflags(write=False)
    object.__setattr__(obj, field, array)
    object.__setattr__(obj, "num_qubits", _num_qubits_for(array.shape[0]))
    return obj


def adopt_state(amps: np.ndarray) -> StateVector:
    """Wrap a flat complex128 array as a state vector without validating it.

    For arrays that are valid states by construction: a basis vector, or a
    valid state moved by unitary steps (the gate engine, Grover's loop).
    Checking the norm again would cost a copy and a pass over 2**n values
    and find roundoff. The array is taken over and made read-only.
    """
    return _adopt(StateVector, "amplitudes", amps)


def adopt_density(matrix: np.ndarray) -> DensityMatrix:
    """Wrap a square complex128 array as a density matrix without validating it.

    The density counterpart of :func:`adopt_state`, for outputs that are
    valid by construction. The array is taken over and made read-only.
    """
    return _adopt(DensityMatrix, "matrix", matrix)


# A mixed ensemble is just a sequence of (probability, state) pairs.
MixedEnsemble = Sequence[tuple[float, StateVector]]


def from_amplitudes(amplitudes) -> StateVector:
    """Build a state vector, rejecting non-power-of-two or unnormalized input."""
    return StateVector(amplitudes)


def normalize(amplitudes) -> StateVector:
    """Scale raw amplitudes to unit norm (errors on the zero vector)."""
    amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(amps))
    if norm == 0.0 or not np.isfinite(norm):
        raise NotNormalizedError("cannot normalize a zero or non-finite vector")
    return StateVector(amps / norm)


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise DimensionMismatchError(f"basis index {index} out of range for {num_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return adopt_state(amps)


def zero_state(num_qubits: int) -> StateVector:
    """The all-zeros state |0...0>."""
    return basis_state(num_qubits, 0)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """<a|b> = sum of conj(a_i) * b_i."""
    if a.num_qubits != b.num_qubits:
        raise DimensionMismatchError(
            f"inner product needs matching qubit counts, got {a.num_qubits} and {b.num_qubits}"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def to_density(s: StateVector) -> DensityMatrix:
    """Pure-state density matrix |s><s|."""
    return adopt_density(np.outer(s.amplitudes, s.amplitudes.conj()))


def from_ensemble(ensemble: MixedEnsemble) -> DensityMatrix:
    """Probability-weighted sum of projectors onto the ensemble states."""
    entries = list(ensemble)
    if not entries:
        raise ProbabilityError("ensemble must contain at least one entry")
    probs = [float(p) for p, _ in entries]
    if any(p < 0.0 or p > 1.0 for p in probs):
        raise ProbabilityError(f"ensemble probabilities must lie in [0, 1], got {probs}")
    total = sum(probs)
    if abs(total - 1.0) > NORM_TOL:
        raise ProbabilityError(f"ensemble probabilities sum to {total!r}, expected 1")
    n = entries[0][1].num_qubits
    if any(s.num_qubits != n for _, s in entries):
        raise DimensionMismatchError("all ensemble states must share one qubit count")
    dim = 1 << n
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for p, s in entries:
        acc += p * np.outer(s.amplitudes, s.amplitudes.conj())
    return adopt_density(acc)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/2**n for maximally mixed."""
    # For Hermitian rho, Tr(rho @ rho) equals the squared Frobenius norm.
    return float(np.sum(np.abs(rho.matrix) ** 2))


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero the off-diagonal entries, keeping the diagonal (full decoherence)."""
    return adopt_density(np.diag(np.diagonal(rho.matrix)))
