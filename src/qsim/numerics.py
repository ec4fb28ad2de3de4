"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` values in complex128, row-major, and
treated as immutable by every routine here (inputs are never written to,
outputs are fresh arrays). The module provides the handful of primitives
the rest of the package is built on: :func:`as_index`, the one reader of
every integer argument, :func:`as_complex`, the one reader of every
complex array argument, coercion to a checked matrix, unitarity/Hermiticity
predicates, and the one Hermitian eigendecomposition (LAPACK ``eigh``),
from which :class:`~qsim.evolve.Hamiltonian` keeps its spectrum. The tests'
brute-force products, Kronecker products, adjoints and cyclic-Jacobi
eigensolver live in ``tests/oracles.py``.

Comparisons use absolute max-norm with a default tolerance of 1e-10,
overridable per call; :func:`is_hermitian` at that default is the one
Hermiticity check of the package.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError, NotSquareError

DEFAULT_TOL = 1e-10

# Entries of one block of rows in :func:`is_hermitian`: 512 KiB of complex128.
HERMITIAN_BLOCK = 1 << 15


def as_index(value):
    """``value`` as a Python int by ``operator.index``, or None for a bool or any non-integer.

    Of numpy scalars only integers pass: numpy 1.x reads a numpy bool as 0 or 1.
    """
    if isinstance(value, (bool, np.generic)) and not isinstance(value, np.integer):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def as_complex(a, error, copy: bool = False) -> np.ndarray:
    """``a`` as a complex128 array, a fresh one if ``copy``.

    What numpy cannot read as one, such as a str entry, a ragged list or an
    int past the float range, raises ``error``, the caller's error for a
    non-finite entry.
    """
    try:
        return (np.array if copy else np.asarray)(a, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"entries are not complex numbers: {exc}") from None


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copies only if needed)."""
    m = as_complex(a, DimensionMismatchError)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise DimensionMismatchError("matrix entries must be finite")
    return m


def _square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(a) -> float:
    """Max-norm of a matrix (largest entry magnitude)."""
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (a†a - I) is within ``tol``."""
    m = _square(a)
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (a - a†) is within ``tol``.

    Compared a block of rows at a time, each of at most ``HERMITIAN_BLOCK``
    entries (one row at least), so no temporary is the size of ``a``.
    """
    m = _square(a)
    rows = max(1, HERMITIAN_BLOCK // max(1, m.shape[0]))
    return all(
        max_abs(m[i : i + rows] - m[:, i : i + rows].conj().T) <= tol
        for i in range(0, m.shape[0], rows)
    )


@dataclass(frozen=True, slots=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` is real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Sum of lambda_n * v_n v_n†; should reproduce the input."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(a) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by LAPACK ``eigh``."""
    m = _square(a)
    if not is_hermitian(m):
        raise NotHermitianError("expected a Hermitian matrix")
    values, vectors = np.linalg.eigh(m)
    return EigenDecomposition(values, vectors)
