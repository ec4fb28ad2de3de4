"""Demonstrator circuits: Bell-pair preparation and Grover search.

Grover here is the textbook amplitude-amplification loop at desk scale:
start from the uniform superposition H^n |0...0>, then repeat (diffusion
* oracle). The oracle flips the sign of the single marked amplitude; the
diffusion operator H^n (2|0><0| - I) H^n equals 2|s><s| - I for the
uniform state |s>, so it runs as the inversion about the mean, one vector
operation on the amplitudes in place. With theta = arcsin(2**(-n/2)),
the success probability after k iterations is sin^2((2k+1) * theta),
the closed form every run is checked against.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import capacity
from .circuit import Circuit, Instruction
from .errors import DimensionMismatchError, QsimError
from .gates import CNOT, H
from .qstate import StateVector


def bell_circuit() -> Circuit:
    """Two-qubit circuit preparing (|00> + |11>)/sqrt(2): H on 0, CNOT 0 -> 1."""
    return Circuit(2, [Instruction(H, (0,)), Instruction(CNOT, (0, 1))])


@dataclass(frozen=True)
class GroverSpec:
    """Search problem: n qubits, one marked basis index, k iterations."""

    num_qubits: int
    marked: int
    iterations: int

    def __post_init__(self):
        if self.num_qubits < 2:
            raise QsimError(f"Grover needs at least 2 qubits, got {self.num_qubits}")
        if not 0 <= self.marked < (1 << self.num_qubits):
            raise DimensionMismatchError(
                f"marked index {self.marked} out of range for {self.num_qubits} qubits"
            )
        if self.iterations < 0:
            raise QsimError(f"iterations must be non-negative, got {self.iterations}")


class GroverResult(NamedTuple):
    final_state: StateVector
    success_probability: float


def _iterate(amps: np.ndarray, marked: int) -> None:
    """One Grover iteration, in place: the oracle, then the diffusion."""
    amps[marked] = -amps[marked]
    # H^n (2|0><0| - I) H^n = 2|s><s| - I for the uniform |s>: each
    # amplitude becomes 2 * mean - amplitude.
    np.subtract(2 * amps.mean(), amps, out=amps)


def _search(spec: GroverSpec) -> Iterator[np.ndarray]:
    """The amplitudes after 0, 1, ..., k iterations: one array, updated in place."""
    capacity.check("grover", spec.num_qubits)
    dim = 1 << spec.num_qubits
    amps = np.full(dim, dim**-0.5, dtype=np.complex128)  # H^n |0...0>
    yield amps
    for _ in range(spec.iterations):
        _iterate(amps, spec.marked)
        yield amps


def grover_success_trajectory(spec: GroverSpec) -> list[float]:
    """Success probability after 0, 1, ..., spec.iterations iterations."""
    return [float(abs(amps[spec.marked]) ** 2) for amps in _search(spec)]


def grover_run(spec: GroverSpec) -> GroverResult:
    """Run the full loop and report the marked-state hit probability."""
    for amps in _search(spec):
        pass
    return GroverResult(
        final_state=StateVector(amps), success_probability=float(abs(amps[spec.marked]) ** 2)
    )


def grover_success_closed_form(num_qubits: int, iterations: int) -> float:
    """Analytic success probability sin^2((2k+1) * arcsin(2**(-n/2)))."""
    theta = math.asin(2.0 ** (-num_qubits / 2.0))
    return math.sin((2 * iterations + 1) * theta) ** 2


def grover_optimal_iterations(num_qubits: int) -> int:
    """Iteration count bringing the state closest to the marked item."""
    if num_qubits < 1:
        raise QsimError(f"need at least 1 qubit, got {num_qubits}")
    theta = math.asin(2.0 ** (-num_qubits / 2.0))
    # From 2049 qubits on, the count overflows a float (round(inf)), and
    # from 2150 on theta underflows to 0.
    try:
        return max(0, round(math.pi / (4.0 * theta) - 0.5))
    except (OverflowError, ZeroDivisionError):
        raise QsimError(
            f"optimal iteration count for {num_qubits} qubits exceeds the float range"
        ) from None
