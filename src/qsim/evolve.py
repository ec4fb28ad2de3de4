"""Closed-system time evolution under a time-independent Hamiltonian.

A :class:`Hamiltonian` is diagonalized once, when it is built, by
:func:`qsim.numerics.eig_hermitian`, its one Hermiticity check. Each
propagator U = exp(-i H t / hbar) is then a phase on every stored
eigenvector; density matrices evolve by conjugation with U. hbar is 1 by
default. The dimension is capped like a unitary's, before any O(d^3) work.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import capacity, numerics
from .errors import CapacityError, DimensionMismatchError, QsimError
from .qstate import DensityMatrix, StateVector, adopt_density, adopt_state


@dataclass(frozen=True, slots=True, eq=False)
class Hamiltonian:
    """A Hermitian energy operator with its hbar convention and its spectrum."""

    matrix: np.ndarray
    hbar: float = 1.0
    spectrum: numerics.EigenDecomposition = field(init=False)

    def __post_init__(self):
        m = numerics.as_matrix(self.matrix)
        # The eigendecomposition is O(d^3): cap d as for unitaries.
        # By bit length: 1 << cap of a huge QSIM_MAX_QUBITS would not fit in memory.
        cap = capacity.limit("unitary")
        if (m.shape[0] - 1).bit_length() > cap:
            raise CapacityError(
                f"Hamiltonian dimension {m.shape[0]} exceeds {1 << cap}, "
                f"the unitary path's limit of {cap} qubits"
            )
        if not (isinstance(self.hbar, numbers.Real) and self.hbar > 0.0 and math.isfinite(self.hbar)):
            raise QsimError(f"hbar must be a positive finite real, got {self.hbar!r}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "spectrum", numerics.eig_hermitian(m))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hbar", float(self.hbar))

    def __repr__(self):
        return f"Hamiltonian(dim={self.matrix.shape[0]}, hbar={self.hbar})"

    def propagator(self, duration: float) -> np.ndarray:
        """exp(-i H duration / hbar) from the spectrum; a phase past the float range is refused."""
        if not isinstance(duration, numbers.Real) or not math.isfinite(duration):
            raise QsimError(f"duration must be a finite real, got {duration!r}")
        with np.errstate(over="ignore", invalid="ignore"):
            phases = self.spectrum.eigenvalues * (duration / self.hbar)
        if not np.isfinite(phases).all():
            raise QsimError(f"evolution phase of h times {duration / self.hbar!r} is not finite")
        v = self.spectrum.eigenvectors
        return (v * np.exp(-1j * phases)) @ v.conj().T


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
