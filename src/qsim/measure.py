"""Born-rule probabilities, projective measurement, and seeded sampling.

Measurement is in the computational basis throughout. :func:`sample`,
:func:`measure_all` and :func:`measure_qubit` (on the qubit's marginal) pick
outcomes by one CDF inversion, :func:`_pick`: the least outcome whose
cumulative probability strictly exceeds the uniform draw, so a draw landing
exactly on a bucket boundary falls into the next bucket and zero-probability
outcomes can never be selected.

Sampling reproducibility: shot i's draw is the first double of a Philox
counter-based stream keyed by (seed, i) as two unsigned 64-bit words, so
outcomes depend only on the seed and the shot index, never on execution
order. Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) is a pure function of counter and key, so :func:`sample`
computes it in numpy for a chunk of shots at a time, bit-identical to
``np.random.Generator(np.random.Philox(key=[seed, i])).random()``.

``qsim run`` prints a :class:`ShotHistogram` or an :class:`OutcomeDistribution`
in json, csv or text, each through ``render`` and the one writer :func:`_render`.
Outcomes stay arrays up to the text: :func:`_labels` names a whole array of
basis indices in one numpy pass, and the json shape is written by json's C
encoder, which ``indent`` would turn off.
"""

import csv
import io
import json
import operator
from dataclasses import dataclass

import numpy as np

from . import capacity
from .circuit import Circuit, apply
from .errors import ProbabilityError, QsimError, WireOutOfRangeError
from .qstate import DensityMatrix, StateVector, _adopt, adopt_state, basis_state, zero_state

PROB_TOL = 1e-12
SUM_TOL = 1e-10
MAX_SEED = (1 << 64) - 1
SHOT_CHUNK = 1 << 16  # shots per vectorized draw, labels per pass; bounds their memory at a few MiB

# Philox4x64 round multipliers and Weyl key increments, as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def bitstring(index: int, num_qubits: int) -> str:
    """Label of basis index ``index``, qubit 0 first."""
    return format(index, f"0{num_qubits}b") if num_qubits else ""


def _labels(indices, num_qubits: int) -> list[str]:
    """:func:`bitstring` of each basis index in ``indices``, one numpy pass per chunk.

    Each index's bits, most significant first, plus ``ord("0")`` are the
    UCS-4 code points of one ``U<n>`` item, so the array is viewed as text
    with no decode step. Chunks of ``SHOT_CHUNK`` indices keep the arrays
    beside the labels small.
    """
    indices = np.asarray(indices, dtype=np.int64).reshape(-1)
    if not num_qubits:
        return [""] * indices.size
    shifts = np.arange(num_qubits - 1, -1, -1, dtype=np.int64)
    labels = []
    for start in range(0, indices.size, SHOT_CHUNK):
        chars = (indices[start : start + SHOT_CHUNK, None] >> shifts & 1).astype(np.uint32)
        chars += ord("0")
        labels += chars.view(f"U{num_qubits}").reshape(-1).tolist()
    return labels


@dataclass(frozen=True)
class OutcomeDistribution:
    """Exact outcome probabilities over all 2**n basis states.

    Construction checks ``num_qubits`` (a non-negative integer by
    ``operator.index``), the count, the [0, 1] range (NaN fails it) and the
    unit sum.
    :func:`probabilities` and :func:`probabilities_density` derive theirs
    from states that passed the state checks, so they skip these (a pass
    over 2**n values that would find only roundoff).
    """

    num_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        n = _index(self.num_qubits)
        if n is None or n < 0:
            raise ProbabilityError("num_qubits must be a non-negative integer")
        probs = np.asarray(self.probabilities, dtype=np.float64).reshape(-1)
        if probs.size != 1 << n:
            raise ProbabilityError(f"expected {1 << n} probabilities, got {probs.size}")
        # Written so that a NaN, which fails every comparison, fails the check.
        if not (probs.min() >= -PROB_TOL and probs.max() <= 1.0 + PROB_TOL):
            raise ProbabilityError("probabilities must lie in [0, 1]")
        total = float(probs.sum())
        if abs(total - 1.0) > SUM_TOL:
            raise ProbabilityError(f"probabilities sum to {total!r}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "probabilities", probs)

    def labels(self) -> list[str]:
        return _labels(np.arange(self.probabilities.size), self.num_qubits)

    def render(self, fmt: str) -> str:
        """The distribution as ``qsim run --backend density`` prints it.

        Adding 0.0 turns an IEEE -0.0 into 0.0. Text rounds to its 9 digits
        first, so roundoff such as -1e-18 cannot print as "-0.000000000".
        """
        rows = dict(zip(self.labels(), (self.probabilities + 0.0).tolist()))
        header = {"num_qubits": self.num_qubits}
        return _render(fmt, header, "probabilities", rows, lambda p: f"{round(p, 9) + 0.0:.9f}")


@dataclass(frozen=True)
class MeasurementRecord:
    """A single projective measurement: the observed label and collapsed state."""

    outcome: str
    post_state: StateVector


@dataclass(frozen=True)
class ShotHistogram:
    """Counts per observed bitstring for a multi-shot run.

    Construction checks that each count is a non-negative integer (by
    ``operator.index``, so 0.5 is refused, and not a bool), that they sum to
    ``shots`` (an integer by ``operator.index``), and the seed as
    :func:`check_sampling` does; ``shots`` and ``seed`` are kept as the ints
    those checks return.
    """

    counts: dict[str, int]
    shots: int
    seed: int

    def __post_init__(self):
        values = self.counts.values()
        # operator.index reads a bool as 0 or 1, which json would print as true or false.
        if {bool, np.bool_} & set(map(type, values)):
            raise ProbabilityError("histogram counts must be integers")
        try:
            counts = list(map(operator.index, values))
        except TypeError:
            raise ProbabilityError("histogram counts must be integers") from None
        if min(counts, default=0) < 0:
            raise ProbabilityError("histogram counts must not be negative")
        shots = _index(self.shots)
        if shots is None or sum(counts) != shots:
            raise ProbabilityError("histogram counts must sum to the shot total")
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", _check_seed(self.seed))

    def render(self, fmt: str) -> str:
        """The histogram as ``qsim run`` prints it, in label order."""
        rows = {k: self.counts[k] for k in sorted(self.counts)}
        return _render(fmt, {"shots": self.shots, "seed": self.seed}, "counts", rows)

    def to_json(self) -> str:
        return self.render("json")

    def to_csv(self) -> str:
        return self.render("csv")


def _render(fmt: str, header: dict, key: str, rows: dict, cell=str) -> str:
    """``rows``, a {label: value} dict, as "json", "csv" or "text"; any other ``fmt`` is refused.

    json: ``header`` (not empty), then ``rows`` under ``key``, the bytes of
    ``json.dumps(..., indent=2)``. Each dict is one C-encoder call whose item
    separator carries the newline and indent, so json's own escaping and
    number reprs are kept; a numpy integer is written as its int. csv: one
    ``label,value`` line per row, by ``csv.writer`` (a float as its repr).
    text: one ``label cell`` line per row, cells right-aligned to the widest.
    """
    if fmt not in ("json", "csv", "text"):
        raise QsimError(f"format must be json, csv or text, got {fmt!r}")
    if fmt == "json":
        head = json.dumps(header, separators=(",\n  ", ": "), default=operator.index)[1:-1]
        body = json.dumps(rows, separators=(",\n    ", ": "), default=operator.index)
        if rows:
            body = f"{{\n    {body[1:-1]}\n  }}"
        return f"{{\n  {head},\n  {json.dumps(key)}: {body}\n}}\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows.items())
        return buf.getvalue()
    cells = [cell(value) for value in rows.values()]
    width = max(map(len, cells), default=0)
    return "".join(f"{label} {text:>{width}}\n" for label, text in zip(rows, cells))


def probabilities(state: StateVector) -> OutcomeDistribution:
    """Squared amplitude magnitudes of a state vector."""
    return _adopt(OutcomeDistribution, "probabilities", np.abs(state.amplitudes) ** 2)


def probabilities_density(rho: DensityMatrix) -> OutcomeDistribution:
    """Real diagonal of a density matrix."""
    return _adopt(OutcomeDistribution, "probabilities", np.real(np.diagonal(rho.matrix)))


def _pick(probs: np.ndarray, cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Least index whose cumulative probability ``cum`` exceeds each draw."""
    picks = np.searchsorted(cum, draws, side="right")
    beyond = picks >= probs.size  # draw beyond the last cumulative step (roundoff)
    if beyond.any():
        nonzero = np.flatnonzero(probs > 0.0)
        picks[beyond] = nonzero[-1] if nonzero.size else probs.size - 1
    return picks


def _check_draw(rng_draw: float) -> None:
    # Outside [0, 1), NaN included, CDF inversion could pick an outcome of
    # probability 0.
    if not 0.0 <= rng_draw < 1.0:
        raise ProbabilityError(f"draw must lie in [0, 1), got {rng_draw!r}")


def measure_all(state: StateVector, rng_draw: float) -> MeasurementRecord:
    """Measure every qubit; the state collapses to one basis vector."""
    _check_draw(rng_draw)
    probs = probabilities(state).probabilities
    k = int(_pick(probs, np.cumsum(probs), np.array([rng_draw]))[0])
    return MeasurementRecord(
        outcome=bitstring(k, state.num_qubits),
        post_state=basis_state(state.num_qubits, k),
    )


def measure_qubit(state: StateVector, qubit: int, rng_draw: float) -> MeasurementRecord:
    """Measure one qubit; the rest of the state is projected and renormalized."""
    _check_draw(rng_draw)
    n = state.num_qubits
    if not 0 <= qubit < n:
        raise WireOutOfRangeError(f"qubit {qubit} out of range for {n} qubits")
    shape = (1 << qubit, 2, -1)  # the qubit is axis 1
    marginal = probabilities(state).probabilities.reshape(shape).sum(axis=(0, 2))
    bit = int(_pick(marginal, np.cumsum(marginal), np.array([rng_draw]))[0])
    amps = state.amplitudes.reshape(shape)
    post = np.zeros_like(amps)
    np.divide(amps[:, bit], np.sqrt(marginal[bit]), out=post[:, bit])
    return MeasurementRecord(outcome=str(bit), post_state=adopt_state(post.reshape(-1)))


def _mulhilo(m: int, x):
    """High and low 64-bit words of the 128-bit product ``m * x``.

    ``x`` is a Python int below 2**64 or a uint64 array. The high word is
    summed from products of 32-bit halves, none of which overflows.
    """
    m_hi, m_lo = m >> 32, m & _MASK32
    x_hi, x_lo = x >> 32, x & _MASK32
    lolo, lohi, hilo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    carry = ((lolo >> 32) + (lohi & _MASK32) + (hilo & _MASK32)) >> 32
    hi = x_hi * m_hi + (lohi >> 32) + (hilo >> 32) + carry
    return hi, (x * m) & _MASK64


def _philox_draws(seed: int, shots: np.ndarray) -> np.ndarray:
    """The uniform draw in [0, 1) of each uint64 shot index in ``shots``.

    Philox4x64-10 on key (seed, shot): numpy's Philox steps its zero counter
    to (1, 0, 0, 0) before the first block, and ``Generator.random()`` keeps
    the top 53 bits of the block's first word. The counter words start as
    Python ints and become arrays once the shot key reaches them.
    """
    c0, c1, c2, c3 = 1, 0, 0, 0
    for r in range(_PHILOX_ROUNDS):
        k0 = (seed + r * _PHILOX_W[0]) & _MASK64
        k1 = shots + ((r * _PHILOX_W[1]) & _MASK64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> 11) * 2.0**-53


def _index(value):
    """``value`` as a Python int by ``operator.index``, or None when it is no integer."""
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_seed(seed) -> int:
    """``seed`` as a Python int by ``operator.index``, if it lies in 0..``MAX_SEED``."""
    seed = _index(seed)
    if seed is None or not 0 <= seed <= MAX_SEED:
        raise QsimError("seed must be an unsigned 64-bit integer")
    return seed


def check_sampling(shots: int, seed: int) -> tuple[int, int]:
    """``shots`` and ``seed`` as Python ints: at least one shot, an unsigned 64-bit seed.

    Integers are read by ``operator.index``, so numpy integers pass and
    floats fail. :func:`sample` and ``qsim run`` share this check, so it
    holds on both backends. Each message starts with the name of what it
    rejects, which the command line prefixes with ``--`` to name its flag.
    """
    shots = _index(shots)
    if shots is None or shots < 1:
        raise ProbabilityError("shots must be at least 1")
    return shots, _check_seed(seed)


def sample(circuit: Circuit, shots: int, seed: int, *, workers: int = 1) -> ShotHistogram:
    """Run ``shots`` end-to-end executions of the circuit from |0...0>.

    The circuit holds no measurement or other nondeterminism, so the final
    state is computed once and each shot draws its outcome from that
    state's distribution by CDF inversion. Shot i's draw is Philox4x64-10
    keyed by (seed, i), computed in numpy for ``SHOT_CHUNK`` shots at a
    time, so memory does not grow with ``shots``; it is bit-identical to
    the first double of ``np.random.Philox`` with that key. ``workers`` is
    accepted for compatibility and ignored: the histogram depends only on
    the circuit, ``shots`` and ``seed``.
    """
    shots, seed = check_sampling(shots, seed)
    # Checked before |0...0> is built: over the cap, that alone can exhaust memory.
    capacity.check("statevector", circuit.num_qubits)
    probs = probabilities(apply(circuit, zero_state(circuit.num_qubits))).probabilities
    cum = np.cumsum(probs)
    # add.at costs O(chunk); a bincount would clear and add 2**n counts per chunk.
    tally = np.zeros(probs.size, dtype=np.int64)
    for start in range(0, shots, SHOT_CHUNK):
        indices = np.arange(start, min(start + SHOT_CHUNK, shots), dtype=np.uint64)
        np.add.at(tally, _pick(probs, cum, _philox_draws(seed, indices)), 1)
    hit = np.flatnonzero(tally)  # ascending index order is label order
    counts = dict(zip(_labels(hit, circuit.num_qubits), tally[hit].tolist()))
    return ShotHistogram(counts=counts, shots=shots, seed=seed)
