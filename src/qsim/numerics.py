"""Dense complex linear algebra substrate.

Matrices are plain ``numpy.ndarray`` values in complex128, row-major, and
treated as immutable by every routine here (inputs are never written to,
outputs are fresh arrays). The module provides the handful of primitives
the rest of the package is built on: products, Kronecker products,
adjoints, unitarity/Hermiticity predicates, a cyclic-Jacobi Hermitian
eigensolver (the tests' reference), and the spectral matrix exponential
exp(-i*H*theta).

Comparisons use absolute max-norm with a default tolerance of 1e-10,
overridable per call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    CapacityError,
)

DEFAULT_TOL = 1e-10

# Jacobi sweep budget and off-diagonal Frobenius target.
JACOBI_MAX_SWEEPS = 100
JACOBI_OFF_TOL = 1e-12

KRON_MAX_DIM = 1 << 24


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite 2-D complex128 array (copies only if needed)."""
    m = np.asarray(a, dtype=np.complex128)
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


def max_abs(a) -> float:
    """Max-norm of a matrix (largest entry magnitude)."""
    m = np.asarray(a)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def is_unitary(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (a†a - I) is within ``tol``."""
    m = _square(a)
    return max_abs(m.conj().T @ m - np.eye(m.shape[0])) <= tol


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff max-norm of (a - a†) is within ``tol``."""
    m = _square(a)
    return max_abs(m - m.conj().T) <= tol


@dataclass(frozen=True)
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


def eig_hermitian(
    a,
    *,
    max_sweeps: int = JACOBI_MAX_SWEEPS,
    off_tol: float = JACOBI_OFF_TOL,
) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Each pivot (p, q) is annihilated by a 2x2 unitary built from a phase
    factor (absorbing the complex argument of a[p, q]) and a real rotation.
    Sweeps repeat until the off-diagonal Frobenius norm falls below
    ``off_tol`` (scaled by the matrix norm), or :class:`ConvergenceError`
    is raised after ``max_sweeps``.
    """
    m = _square(a)
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


def matexp_skew_hermitian(h, theta: float) -> np.ndarray:
    """Unitary exp(-i * h * theta) for Hermitian ``h`` via LAPACK ``eigh``."""
    m = _square(h)
    if not is_hermitian(m, DEFAULT_TOL):
        raise NotHermitianError("matexp_skew_hermitian requires a Hermitian matrix")
    values, v = np.linalg.eigh(m)
    return (v * np.exp(-1j * values * theta)) @ v.conj().T
