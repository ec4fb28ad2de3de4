"""Hermitian observables: expectation values, variances, commutators,
and the Robertson uncertainty product.

An observable validates Hermiticity eagerly at construction, within
``numerics.DEFAULT_TOL``. An expectation value is the real part of
<psi|A|psi> or Tr(rho A), the exact expectation of A's Hermitian part
(A + A†)/2; the imaginary part is that tolerance's residue and roundoff.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, NotHermitianError
from .qstate import DensityMatrix, StateVector


@dataclass(frozen=True, slots=True, eq=False)
class Observable:
    """A labelled Hermitian matrix."""

    label: str
    matrix: np.ndarray

    def __post_init__(self):
        m = numerics.as_matrix(self.matrix).copy()
        if not numerics.is_hermitian(m):
            raise NotHermitianError(f"observable {self.label!r} must be Hermitian")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __repr__(self):
        return f"Observable({self.label!r}, dim={self.matrix.shape[0]})"


def _check_dim(obs: Observable, dim: int) -> None:
    if obs.matrix.shape[0] != dim:
        raise DimensionMismatchError(
            f"observable {obs.label!r} has dimension {obs.matrix.shape[0]}, state has {dim}"
        )


def expectation(obs: Observable, state: StateVector) -> float:
    """Re <state|A|state>, which is <state|(A + A†)/2|state>."""
    _check_dim(obs, state.amplitudes.size)
    return complex(np.vdot(state.amplitudes, obs.matrix @ state.amplitudes)).real


def expectation_density(obs: Observable, rho: DensityMatrix) -> float:
    """Re Tr(rho A), the mixed-state expectation value: Tr(rho (A + A†)/2)."""
    _check_dim(obs, rho.matrix.shape[0])
    return complex(np.trace(rho.matrix @ obs.matrix)).real


def commutator(a: Observable, b: Observable) -> np.ndarray:
    """[A, B] = AB - BA; skew-Hermitian for Hermitian inputs."""
    if a.matrix.shape != b.matrix.shape:
        raise DimensionMismatchError(
            f"commutator needs equal dimensions, got {a.matrix.shape} and {b.matrix.shape}"
        )
    return a.matrix @ b.matrix - b.matrix @ a.matrix


def variance(obs: Observable, state: StateVector) -> float:
    """<A^2> - <A>^2, computed as ||A psi||^2 - <A>^2 (never below roundoff)."""
    _check_dim(obs, state.amplitudes.size)
    applied = obs.matrix @ state.amplitudes
    second_moment = float(np.real(np.vdot(applied, applied)))
    mean = float(np.real(np.vdot(state.amplitudes, applied)))
    return second_moment - mean * mean


class RobertsonCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def robertson_check(a: Observable, b: Observable, state: StateVector) -> RobertsonCheck:
    """Uncertainty product check: std(A)*std(B) >= |<[A, B]>| / 2."""
    lhs = float(
        np.sqrt(max(variance(a, state), 0.0)) * np.sqrt(max(variance(b, state), 0.0))
    )
    comm = commutator(a, b)
    rhs = 0.5 * abs(complex(np.vdot(state.amplitudes, comm @ state.amplitudes)))
    return RobertsonCheck(lhs=lhs, rhs=rhs, holds=lhs >= rhs - 1e-9)
