"""Demonstrator circuits: Bell-pair preparation and Grover search.

Grover here is the textbook amplitude-amplification loop at desk scale:
start from the uniform superposition H^n |0...0>, then repeat (diffusion
* oracle). The oracle flips the sign of the single marked amplitude; the
diffusion operator H^n (2|0><0| - I) H^n equals 2|s><s| - I for the
uniform state |s>, so it runs as the inversion about the mean, one vector
operation on the amplitudes in place. With theta = arcsin(2**(-n/2)),
the success probability after k iterations is sin^2((2k+1) * theta),
the closed form every run is checked against.

The loop is one in-place array: each iteration negates the marked entry
and rewrites every amplitude as 2 * mean - amplitude, with no per-step
Python objects beyond the mean. The trajectory records the marked
amplitude after each step in a preallocated array and squares the
magnitudes after the loop, with the same scalar abs and ** as a loop that
squares each one as it goes, so the probabilities agree to the bit.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import capacity
from .circuit import Circuit, Instruction
from .errors import DimensionMismatchError, QsimError
from .gates import CNOT, H
from .numerics import as_index
from .qstate import StateVector, adopt_state


def bell_circuit() -> Circuit:
    """Two-qubit circuit preparing (|00> + |11>)/sqrt(2): H on 0, CNOT 0 -> 1."""
    return Circuit(2, [Instruction(H, (0,)), Instruction(CNOT, (0, 1))])


def _integer(value, what: str) -> int:
    """``value`` as a Python int by :func:`~qsim.numerics.as_index`."""
    if (n := as_index(value)) is None:
        raise QsimError(f"{what} must be an integer, got {value!r}")
    return n


@dataclass(frozen=True, slots=True)
class GroverSpec:
    """Search problem: n qubits, one marked basis index, k iterations.

    Each field is read by :func:`~qsim.numerics.as_index` and stored as a
    Python int, so numpy integers pass and floats and bools are refused.
    """

    num_qubits: int
    marked: int
    iterations: int

    def __post_init__(self):
        num_qubits = _integer(self.num_qubits, "number of qubits")
        marked = _integer(self.marked, "marked index")
        iterations = _integer(self.iterations, "iterations")
        if num_qubits < 2:
            raise QsimError(f"Grover needs at least 2 qubits, got {num_qubits}")
        # By bit length: 1 << num_qubits of a huge count would not fit in memory.
        if marked < 0 or marked.bit_length() > num_qubits:
            raise DimensionMismatchError(
                f"marked index {marked} out of range for {num_qubits} qubits"
            )
        if iterations < 0:
            raise QsimError(f"iterations must be non-negative, got {iterations}")
        object.__setattr__(self, "num_qubits", num_qubits)
        object.__setattr__(self, "marked", marked)
        object.__setattr__(self, "iterations", iterations)


class GroverResult(NamedTuple):
    final_state: StateVector
    success_probability: float


def _iterate(amps: np.ndarray, marked: int) -> None:
    """One Grover iteration, in place: the oracle, then the diffusion."""
    amps[marked] = -amps[marked]
    # H^n (2|0><0| - I) H^n = 2|s><s| - I for the uniform |s>: each
    # amplitude becomes 2 * mean - amplitude. The mean is ndarray.mean's
    # sum and division without its Python wrapper, so the bits are the same.
    np.subtract(2 * (np.add.reduce(amps) / amps.size), amps, out=amps)


def _uniform(spec: GroverSpec) -> np.ndarray:
    """H^n |0...0> as a fresh array, after the capacity check."""
    capacity.check("grover", spec.num_qubits)
    dim = 1 << spec.num_qubits
    return np.full(dim, dim**-0.5, dtype=np.complex128)


def grover_success_trajectory(spec: GroverSpec) -> list[float]:
    """Success probability after 0, 1, ..., spec.iterations iterations."""
    amps = _uniform(spec)
    marked = spec.marked
    hits = np.empty(spec.iterations + 1, dtype=np.complex128)
    hits[0] = amps[marked]
    for k in range(1, spec.iterations + 1):
        _iterate(amps, marked)
        hits[k] = amps[marked]
    # Python's abs and ** per entry: numpy's array ** 2 multiplies where
    # pow() rounds, which differs in the last bit for about 1 in 1000 values.
    return [abs(a) ** 2 for a in hits.tolist()]


def grover_run(spec: GroverSpec) -> GroverResult:
    """Run the full loop and report the marked-state hit probability."""
    amps = _uniform(spec)
    for _ in range(spec.iterations):
        _iterate(amps, spec.marked)
    return GroverResult(
        final_state=adopt_state(amps), success_probability=float(abs(amps[spec.marked]) ** 2)
    )


def grover_success_closed_form(num_qubits: int, iterations: int) -> float:
    """Analytic success probability sin^2((2k+1) * arcsin(2**(-n/2)))."""
    num_qubits = _integer(num_qubits, "number of qubits")
    iterations = _integer(iterations, "iterations")
    if num_qubits < 1:
        raise QsimError(f"need at least 1 qubit, got {num_qubits}")
    if iterations < 0:
        raise QsimError(f"iterations must be non-negative, got {iterations}")
    try:
        return math.sin((2 * iterations + 1) * math.asin(2.0 ** (-num_qubits / 2.0))) ** 2
    except OverflowError:
        raise QsimError("qubit or iteration count exceeds the float range") from None


def grover_optimal_iterations(num_qubits: int) -> int:
    """Iteration count bringing the state closest to the marked item."""
    num_qubits = _integer(num_qubits, "number of qubits")
    if num_qubits < 1:
        raise QsimError(f"need at least 1 qubit, got {num_qubits}")
    # From 2049 qubits on, the count overflows a float (round(inf)), from
    # 2150 on theta underflows to 0, and past about 10**308 n is no float.
    try:
        theta = math.asin(2.0 ** (-num_qubits / 2.0))
        return max(0, round(math.pi / (4.0 * theta) - 0.5))
    except (OverflowError, ZeroDivisionError):
        raise QsimError(
            f"optimal iteration count for {num_qubits} qubits exceeds the float range"
        ) from None
