"""Bipartite entanglement diagnostics for pure states.

A pure state is entangled across a bipartition exactly when its reduced
density matrix is mixed. That reduction's spectrum is the squared Schmidt
coefficients, the squared singular values of the amplitudes arranged as a
2**|A| x 2**|B| matrix: reduced purity classifies, and the base-2 von
Neumann entropy quantifies (0 for product states, min(|A|, |B|) at most).
"""

from dataclasses import dataclass

import numpy as np

from .errors import SubsystemError
from .qstate import DensityMatrix, StateVector, adopt_density

ENTROPY_EIGENVALUE_CUTOFF = 1e-12

@dataclass(frozen=True)
class Bipartition:
    """A split of the qubits into two non-empty complementary groups."""

    subsystem_a: tuple[int, ...]
    subsystem_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(q) for q in self.subsystem_a))
        b = tuple(sorted(int(q) for q in self.subsystem_b))
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
        """Bipartition with the given qubits on side A, the rest on side B."""
        a = set(int(q) for q in subsystem_a)
        b = tuple(q for q in range(num_qubits) if q not in a)
        return cls(tuple(sorted(a)), b)

    @property
    def num_qubits(self) -> int:
        return len(self.subsystem_a) + len(self.subsystem_b)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over ``keep`` (ascending qubit order preserved)."""
    n = rho.num_qubits
    requested = [int(q) for q in keep]
    kept = sorted(set(requested))
    if len(kept) != len(requested):
        raise SubsystemError(f"kept qubits must be distinct, got {tuple(requested)}")
    if not kept:
        raise SubsystemError("must keep at least one qubit")
    if kept[0] < 0 or kept[-1] >= n:
        raise SubsystemError(f"kept qubits {kept} out of range for {n} qubits")
    if len(kept) == n:
        raise SubsystemError("kept qubits must be a strict subset")

    # Row axis of qubit q is q, column axis n + q for a kept qubit; a traced
    # qubit's column axis shares the row's label, so einsum contracts them.
    cols = [n + q if q in kept else q for q in range(n)]
    tensor = rho.matrix.reshape((2,) * (2 * n))
    reduced = np.einsum(tensor, list(range(n)) + cols, kept + [n + q for q in kept])
    dim = 1 << len(kept)
    return adopt_density(reduced.reshape(dim, dim))


def _schmidt_weights(state: StateVector, part: Bipartition) -> np.ndarray:
    """Squared Schmidt coefficients of ``state`` across ``part``, descending."""
    if part.num_qubits != state.num_qubits:
        raise SubsystemError(
            f"bipartition covers {part.num_qubits} qubits, state has {state.num_qubits}"
        )
    tensor = state.amplitudes.reshape((2,) * state.num_qubits)
    split = tensor.transpose(part.subsystem_a + part.subsystem_b)
    matrix = split.reshape(1 << len(part.subsystem_a), -1)
    return np.linalg.svd(matrix, compute_uv=False) ** 2


def entanglement_entropy(state: StateVector, part: Bipartition) -> float:
    """Base-2 von Neumann entropy of the reduction onto side A."""
    weights = _schmidt_weights(state, part)
    weights = weights[weights > ENTROPY_EIGENVALUE_CUTOFF]
    return float(-np.sum(weights * np.log2(weights)))


def is_entangled(state: StateVector, part: Bipartition, tol: float = 1e-9) -> bool:
    """True iff the reduction onto side A is mixed (purity below 1 - tol)."""
    return float(np.sum(_schmidt_weights(state, part) ** 2)) < 1.0 - tol
