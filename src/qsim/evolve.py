"""Closed-system time evolution under a time-independent Hamiltonian.

States evolve by the unitary U = exp(-i H t / hbar), built spectrally in
:mod:`qsim.numerics`; density matrices by conjugation with the same U.
Natural units (hbar = 1) are the default, but the constant is a field so
it can be varied. A Hamiltonian's dimension is capped like an explicit
unitary's, before any O(d^3) work.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import capacity, numerics
from .errors import CapacityError, DimensionMismatchError, NotHermitianError, QsimError
from .qstate import DensityMatrix, StateVector, adopt_density, adopt_state


@dataclass(frozen=True, slots=True, eq=False)
class Hamiltonian:
    """A Hermitian energy operator with its hbar convention."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        m = numerics.as_matrix(self.matrix)
        # The propagator is an O(d^3) eigendecomposition: cap d as for unitaries.
        # By bit length: 1 << cap of a huge QSIM_MAX_QUBITS would not fit in memory.
        cap = capacity.limit("unitary")
        if (m.shape[0] - 1).bit_length() > cap:
            raise CapacityError(
                f"Hamiltonian dimension {m.shape[0]} exceeds {1 << cap}, "
                f"the unitary path's limit of {cap} qubits"
            )
        m = m.copy()
        if not numerics.is_hermitian(m):
            raise NotHermitianError("Hamiltonian must be Hermitian")
        if not (self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise QsimError(f"hbar must be a positive finite real, got {self.hbar!r}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hbar", float(self.hbar))

    def __repr__(self):
        return f"Hamiltonian(dim={self.matrix.shape[0]}, hbar={self.hbar})"

    def propagator(self, duration: float) -> np.ndarray:
        """exp(-i H duration / hbar)."""
        if not math.isfinite(duration):
            raise QsimError(f"duration must be finite, got {duration!r}")
        return numerics.matexp_skew_hermitian(self.matrix, duration / self.hbar)


def evolve(h: Hamiltonian, duration: float, state: StateVector) -> StateVector:
    """Evolve a state vector for ``duration`` (global phase retained)."""
    if h.matrix.shape[0] != state.amplitudes.size:
        raise DimensionMismatchError(
            f"Hamiltonian dimension {h.matrix.shape[0]} does not match state "
            f"dimension {state.amplitudes.size}"
        )
    return adopt_state(h.propagator(duration) @ state.amplitudes)


def evolve_density(h: Hamiltonian, duration: float, rho: DensityMatrix) -> DensityMatrix:
    """Evolve a density matrix: rho -> U rho U†."""
    if h.matrix.shape[0] != rho.matrix.shape[0]:
        raise DimensionMismatchError(
            f"Hamiltonian dimension {h.matrix.shape[0]} does not match density "
            f"dimension {rho.matrix.shape[0]}"
        )
    u = h.propagator(duration)
    return adopt_density(u @ rho.matrix @ u.conj().T)
