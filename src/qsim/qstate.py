"""Quantum state representations: state vectors and density matrices.

Qubit ordering convention, used everywhere in the package: qubit 0 is the
leftmost symbol of a ket string and the most significant bit of the basis
index, so |q0 q1 ... q_{n-1}> sits at index sum(q_k * 2**(n-1-k)). The
bitstring label of basis index k is therefore just k written in binary,
zero-padded to n digits.

Construction rejects unnormalized amplitudes instead of silently fixing
them (a wrong norm usually means a caller bug); :func:`normalize` is the
explicit opt-in for scaling raw amplitudes. :func:`basis_state` reads its
integers by :func:`~qsim.numerics.as_index` and checks the statevector cap
before it allocates: over the cap, the array alone can exhaust memory.
"""

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from . import capacity, numerics
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


def _sumsq(a: np.ndarray) -> float:
    """Sum of squared magnitudes, numpy's pairwise sum: the same bits on any BLAS thread count."""
    return float(np.sum(np.abs(a) ** 2))


def _projector(amps: np.ndarray) -> np.ndarray:
    """|a><a| as a fresh matrix: the one outer product of every pure-state density."""
    return np.outer(amps, amps.conj())


def _num_qubits_for(length: int) -> int:
    if length < 1 or length & (length - 1):
        raise NotPowerOfTwoError(f"length {length} is not a power of two")
    return length.bit_length() - 1


@dataclass(frozen=True, slots=True, eq=False)
class StateVector:
    """Normalized complex amplitudes over the 2**n computational basis states."""

    amplitudes: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128).reshape(-1)
        n = _num_qubits_for(amps.size)
        if not np.isfinite(amps).all():
            raise NotNormalizedError("amplitudes must be finite")
        sumsq = _sumsq(amps)
        if abs(sumsq - 1.0) > NORM_TOL:
            raise NotNormalizedError(
                f"amplitudes have squared norm {sumsq!r}, expected 1 within {NORM_TOL}"
            )
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "num_qubits", n)

    def __repr__(self):
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass(frozen=True, slots=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over 2**n basis states.

    Construction checks all three: Hermiticity within 1e-10, trace within
    1e-10, and a lowest eigenvalue (LAPACK ``eigvalsh``) no lower than the
    roundoff floor -1e-9. Operations whose output is a density matrix by
    construction (outer products, convex mixtures, unitary conjugation,
    partial traces, dephasing) return through :func:`adopt_density` instead.
    """

    matrix: np.ndarray
    num_qubits: int = field(init=False)

    def __post_init__(self):
        m = numerics.as_matrix(self.matrix).copy()
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

    def __repr__(self):
        return f"DensityMatrix(num_qubits={self.num_qubits})"


def _unchecked(cls, **fields):
    """A ``cls`` holding ``fields`` as given, its ``__post_init__`` checks skipped.

    For values valid by construction; also used by ``measure``.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _adopt(cls, name: str, array: np.ndarray):
    """An unvalidated ``cls`` whose field ``name`` is ``array``, 2**n long on axis 0, made read-only.

    Also used by ``measure`` for distributions derived from valid states.
    """
    array.setflags(write=False)
    return _unchecked(cls, **{name: array, "num_qubits": _num_qubits_for(array.shape[0])})


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
    """Scale raw amplitudes to unit norm (errors on the zero vector and on inf or nan).

    A finite vector whose squared sum leaves the normal float range is first
    divided by its largest real or imaginary part.
    """
    amps = np.array(amplitudes, dtype=np.complex128).reshape(-1)
    with np.errstate(over="ignore"):
        sumsq = _sumsq(amps)
    if not np.finfo(np.float64).tiny <= sumsq < np.inf:
        peak = float(np.max(np.abs(amps.view(np.float64)), initial=0.0))
        if peak == 0.0 or not np.isfinite(peak):
            raise NotNormalizedError("cannot normalize a zero or non-finite vector")
        amps /= peak
        sumsq = _sumsq(amps)
    return StateVector(amps / np.sqrt(sumsq))


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``num_qubits`` qubits."""
    n, k = numerics.as_index(num_qubits), numerics.as_index(index)
    if n is None or n < 0:
        raise DimensionMismatchError(f"qubit count must be a non-negative integer, got {num_qubits!r}")
    capacity.check("statevector", n)
    if k is None or not 0 <= k < 1 << n:
        raise DimensionMismatchError(f"basis index {index!r} out of range for {n} qubits")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[k] = 1.0
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
    return adopt_density(_projector(s.amplitudes))


def from_ensemble(ensemble: MixedEnsemble) -> DensityMatrix:
    """Probability-weighted sum of projectors onto the ensemble states."""
    entries = list(ensemble)
    if not entries:
        raise ProbabilityError("ensemble must contain at least one entry")
    probs = [float(p) for p, _ in entries]
    if any(not 0.0 <= p <= 1.0 for p in probs):
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
        acc += p * _projector(s.amplitudes)
    return adopt_density(acc)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2); 1 for pure states, 1/2**n for maximally mixed."""
    # For Hermitian rho, Tr(rho @ rho) equals the squared Frobenius norm.
    return _sumsq(rho.matrix)


def dephase(rho: DensityMatrix) -> DensityMatrix:
    """Zero the off-diagonal entries, keeping the diagonal (full decoherence)."""
    return adopt_density(np.diag(np.diagonal(rho.matrix)))
