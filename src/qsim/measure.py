"""Born-rule probabilities, projective measurement, and seeded sampling.

Measurement is in the computational basis throughout. Outcome selection is
CDF inversion: the result is the least basis index whose cumulative
probability strictly exceeds the uniform draw, so a draw landing exactly
on a bucket boundary falls into the next bucket and zero-probability
outcomes can never be selected.

Sampling reproducibility: shot i draws from a Philox counter-based stream
keyed by (seed, i) as two unsigned 64-bit words. Outcomes therefore depend
only on the seed and the shot index, never on execution order.
"""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, apply
from .errors import ProbabilityError, QsimError, WireOutOfRangeError
from .qstate import DensityMatrix, StateVector, basis_state, zero_state

PROB_TOL = 1e-12
SUM_TOL = 1e-10
MAX_SEED = (1 << 64) - 1


def bitstring(index: int, num_qubits: int) -> str:
    """Label of basis index ``index``, qubit 0 first."""
    return format(index, f"0{num_qubits}b") if num_qubits else ""


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome probabilities over all 2**n basis states."""

    num_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if probs.size != 1 << self.num_qubits:
            raise ProbabilityError(
                f"expected {1 << self.num_qubits} probabilities, got {probs.size}"
            )
        if probs.min() < -PROB_TOL or probs.max() > 1.0 + PROB_TOL:
            raise ProbabilityError("probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ProbabilityError(f"probabilities sum to {total!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    def labels(self) -> list[str]:
        return [bitstring(k, self.num_qubits) for k in range(self.probabilities.size)]


@dataclass(frozen=True)
class MeasurementRecord:
    """A single projective measurement: the observed label and collapsed state."""

    outcome: str
    post_state: StateVector


@dataclass(frozen=True)
class ShotHistogram:
    """Counts per observed bitstring for a multi-shot run."""

    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ProbabilityError("histogram counts must sum to the shot total")

    def to_json(self) -> str:
        payload = {
            "shots": self.shots,
            "seed": self.seed,
            "counts": {k: self.counts[k] for k in sorted(self.counts)},
        }
        return json.dumps(payload, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for label in sorted(self.counts):
            writer.writerow([label, self.counts[label]])
        return buf.getvalue()


def probabilities(state: StateVector) -> OutcomeDistribution:
    """Squared amplitude magnitudes of a state vector."""
    return OutcomeDistribution(state.num_qubits, np.abs(state.amplitudes) ** 2)


def probabilities_density(rho: DensityMatrix) -> OutcomeDistribution:
    """Real diagonal of a density matrix."""
    return OutcomeDistribution(rho.num_qubits, np.real(np.diagonal(rho.matrix)))


def _pick(probs: np.ndarray, cum: np.ndarray, draw: float) -> int:
    """Least index whose cumulative probability ``cum`` exceeds ``draw``."""
    k = int(np.searchsorted(cum, draw, side="right"))
    if k >= probs.size:  # draw beyond the last cumulative step (roundoff)
        nonzero = np.flatnonzero(probs > 0.0)
        k = int(nonzero[-1]) if nonzero.size else probs.size - 1
    return k


def measure_all(state: StateVector, rng_draw: float) -> MeasurementRecord:
    """Measure every qubit; the state collapses to one basis vector."""
    probs = probabilities(state).probabilities
    k = _pick(probs, np.cumsum(probs), rng_draw)
    return MeasurementRecord(
        outcome=bitstring(k, state.num_qubits),
        post_state=basis_state(state.num_qubits, k),
    )


def measure_qubit(state: StateVector, qubit: int, rng_draw: float) -> MeasurementRecord:
    """Measure one qubit; the rest of the state is projected and renormalized."""
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise WireOutOfRangeError(f"qubit {qubit} out of range for {n} qubits")
    shift = n - 1 - qubit
    indices = np.arange(state.amplitudes.size)
    mask = (indices >> shift) & 1
    weights = np.abs(state.amplitudes) ** 2
    p_zero = float(weights[mask == 0].sum())
    p_one = float(weights[mask == 1].sum())
    bit = 0 if rng_draw < p_zero else 1
    if (p_zero if bit == 0 else p_one) == 0.0:
        bit = 1 - bit
    projected = np.where(mask == bit, state.amplitudes, 0.0)
    norm = np.sqrt(p_zero if bit == 0 else p_one)
    return MeasurementRecord(outcome=str(bit), post_state=StateVector(projected / norm))


def _shot_draw(seed: int, shot: int) -> float:
    # An explicit uint64 key: a plain tuple turns seeds >= 2**63 into float64.
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, shot], dtype=np.uint64)))
    return float(gen.random())


def sample(circuit: Circuit, shots: int, seed: int, *, workers: int = 1) -> ShotHistogram:
    """Run ``shots`` end-to-end executions of the circuit from |0...0>.

    The circuit holds no measurement or other nondeterminism, so the final
    state is computed once and each shot draws its outcome from that
    state's distribution using its own keyed stream. ``workers`` is
    accepted for compatibility; shots run in one thread, and the histogram
    depends only on the circuit, ``shots`` and ``seed``.
    """
    if shots < 1:
        raise ProbabilityError(f"shots must be positive, got {shots}")
    if not 0 <= seed <= MAX_SEED:
        raise QsimError(f"seed must be an unsigned 64-bit integer, got {seed}")
    final = apply(circuit, zero_state(circuit.num_qubits))
    probs = probabilities(final).probabilities
    cum = np.cumsum(probs)
    picks = Counter(_pick(probs, cum, _shot_draw(seed, shot)) for shot in range(shots))
    # Fixed-width labels sort as their basis indices do.
    counts = {bitstring(k, circuit.num_qubits): picks[k] for k in sorted(picks)}
    return ShotHistogram(counts=counts, shots=shots, seed=seed)
