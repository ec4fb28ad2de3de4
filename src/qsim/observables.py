"""Hermitian observables: expectation values, variances, commutators,
and the Robertson uncertainty product.

An observable validates Hermiticity eagerly at construction, so every
expectation value downstream is real up to roundoff.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import numerics
from .errors import DimensionMismatchError, NotHermitianError
from .qstate import DensityMatrix, StateVector

IMAG_TOL = 1e-10


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
    """<state|A|state>, guaranteed real for a Hermitian observable."""
    _check_dim(obs, state.amplitudes.size)
    value = complex(np.vdot(state.amplitudes, obs.matrix @ state.amplitudes))
    assert abs(value.imag) < IMAG_TOL, f"expectation picked up imaginary part {value.imag}"
    return value.real


def expectation_density(obs: Observable, rho: DensityMatrix) -> float:
    """Tr(rho A), the mixed-state expectation value."""
    _check_dim(obs, rho.matrix.shape[0])
    value = complex(np.trace(rho.matrix @ obs.matrix))
    assert abs(value.imag) < IMAG_TOL, f"expectation picked up imaginary part {value.imag}"
    return value.real


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
