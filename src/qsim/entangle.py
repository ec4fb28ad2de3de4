"""Bipartite entanglement diagnostics for pure states.

A pure state is entangled across a bipartition exactly when its reduced
density matrix is mixed. With the amplitudes arranged as the 2**|A| x
2**|B| matrix M, the reductions onto the two sides are M M^dagger and
(M^dagger M)^T, which share their nonzero spectrum, the squared Schmidt
coefficients. Both diagnostics use the Gram matrix of the smaller side, at
most 2**(n // 2) square, so no 4**n density is built: the reduced purity,
its squared Frobenius norm, classifies, and the base-2 von Neumann entropy
of its eigenvalues quantifies (0 for product states, min(|A|, |B|) at most).
"""

from dataclasses import dataclass

import numpy as np

from . import capacity
from .errors import QsimError, SubsystemError
from .numerics import as_index
from .qstate import DensityMatrix, StateVector, adopt_density

ENTROPY_EIGENVALUE_CUTOFF = 1e-12


def _qubit(label) -> int:
    """A qubit label or count as a Python int by :func:`~qsim.numerics.as_index`."""
    if (q := as_index(label)) is None:
        raise SubsystemError(f"qubit labels and counts must be integers, got {label!r}")
    return q


@dataclass(frozen=True, slots=True)
class Bipartition:
    """A split of the qubits into two non-empty complementary groups."""

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(map(_qubit, self.subsystem_a)))
        b = tuple(sorted(map(_qubit, self.subsystem_b)))
        n = len(a) + len(b)
        if not a or not b:
            raise SubsystemError("both sides of a bipartition must be non-empty")
        if set(a) & set(b):
            raise SubsystemError(f"bipartition sides overlap: {a} and {b}")
        if set(a) | set(b) != set(range(n)):
            raise SubsystemError(f"bipartition {a} | {b} must cover qubits 0..{n - 1}")
        object.__setattr__(self, "subsystem_a", a)
        object.__setattr__(self, "subsystem_b", b)

    @classmethod
    def split(cls, num_qubits: int, subsystem_a) -> "Bipartition":
        """Bipartition with the given distinct qubits on side A, the rest on side B."""
        n = _qubit(num_qubits)
        capacity.check("statevector", n)
        a = tuple(sorted(map(_qubit, subsystem_a)))
        if len(set(a)) != len(a) or not all(0 <= q < n for q in a):
            raise SubsystemError(f"side A {a} must be distinct qubits below num_qubits={n}")
        return cls(a, tuple(q for q in range(n) if q not in a))

    @property
    def num_qubits(self) -> int:
        return len(self.subsystem_a) + len(self.subsystem_b)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (ascending qubit order preserved).

    ``keep`` must be a valid side A of :meth:`Bipartition.split`.
    """
    n = rho.num_qubits
    kept = list(Bipartition.split(n, keep).subsystem_a)

    # Row axis of qubit q is q, column axis n + q for a kept qubit; a traced
    # qubit's column axis shares the row's label, so einsum contracts them.
    cols = [n + q if q in kept else q for q in range(n)]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.einsum(tensor, list(range(n)) + cols, kept + [n + q for q in kept])
    dim = 1 << len(kept)
    return adopt_density(reduced.reshape(dim, dim))


def _reduced(state: StateVector, part: Bipartition) -> np.ndarray:
    """Gram matrix of the smaller side of ``part``: a reduction of ``state`` up to transpose."""
    if part.num_qubits != state.num_qubits:
        raise SubsystemError(
            f"bipartition covers {part.num_qubits} qubits, state has {state.num_qubits}"
        )
    tensor = state.amplitudes.reshape((2,) * state.num_qubits)
    split = tensor.transpose(part.subsystem_a + part.subsystem_b)
    matrix = split.reshape(1 << len(part.subsystem_a), -1)
    if len(part.subsystem_a) <= len(part.subsystem_b):
        return matrix @ matrix.conj().T
    return matrix.conj().T @ matrix


def _schmidt_weights(state: StateVector, part: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients of ``state`` across ``part``, descending."""
    return np.linalg.eigvalsh(_reduced(state, part))[::-1]


def entanglement_entropy(state: StateVector, part: Bipartition) -> float:
    """Base-2 von Neumann entropy of the reduction onto side A, its roundoff below zero clamped to 0.0."""
    weights = _schmidt_weights(state, part)
    weights = weights[weights > ENTROPY_EIGENVALUE_CUTOFF]
    return max(0.0, float(-np.sum(weights * np.log2(weights))))


def is_entangled(state: StateVector, part: Bipartition, tol: float = 1e-9) -> bool:
    """True iff the reduction onto side A is mixed (purity below 1 - tol).

    ``tol`` must be a finite number in [0, 1). The purity Tr(rho_A^2) is the
    squared Frobenius norm of the Hermitian reduced matrix, so no
    decomposition runs.
    """
    if not 0.0 <= tol < 1.0:
        raise QsimError(f"tol must be a finite number in [0, 1), got {tol!r}")
    gram = _reduced(state, part)
    return float(np.vdot(gram, gram).real) < 1.0 - tol
