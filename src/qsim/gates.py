"""The fixed gate library: X, Y, Z, S, T, H, SWAP, CNOT.

Each gate is a label, an arity, and a unitary matrix. The text format and
the CLI know only these eight; the library API also accepts any other
unitary :class:`Gate`. Lookup is case-insensitive so the text format can
stay lowercase. For the two-qubit gates, basis labels read control-first:
CNOT maps |10> to |11>, SWAP maps |01> to |10>.

A gate's class is fixed once, at construction, from its matrix. A
*monomial* matrix has one nonzero per row and per column: diagonal gates
(Z, S, T), permutations (X, SWAP, CNOT) and phase-permutations (Y). The
state engine runs it as block moves and phase multiplies, described by
``Gate.cycles``. Any other matrix (H, most user gates) is *dense*, and
``cycles`` is None.
"""

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import ArityError, NotUnitaryError, UnknownGateError


def _monomial(m: np.ndarray):
    """The (source, phase) pair of a monomial unitary, or None when it is dense.

    Output row r is ``phase[r]`` times input row ``source[r]``. A unitary
    with no more nonzeros than rows has one in each row and column.
    """
    rows, source = np.nonzero(m)
    return (source, m[rows, source]) if len(rows) == len(m) else None


def _cycles(source, phase):
    """The cycles of the monomial map ``(source, phase)`` of :func:`_monomial`.

    Rows chain r -> source[r] into cycles; each cycle is a tuple of (row,
    phase) pairs in which every row takes the next row's input, the last
    taking the first's. Rows that keep their own input with phase 1 are
    left out. Gates and the engine's folds share this walk.
    """
    src, phases = source.tolist(), phase.tolist()
    cycles, seen = [], set()
    for start in range(len(src)):
        if start in seen:
            continue
        cycle, r = [], start
        while r not in seen:
            seen.add(r)
            cycle.append((r, phases[r]))
            r = src[r]
        if len(cycle) > 1 or cycle[0][1] != 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


@dataclass(frozen=True, slots=True)
class Gate:
    """An immutable named unitary acting on ``arity`` qubits."""

    label: str
    arity: int
    matrix: np.ndarray
    cycles: tuple | None = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        k = numerics.as_index(self.arity)
        d = m.shape[0] if m.ndim == 2 else 0
        # Bit lengths first: 2**k of an unchecked huge arity would not fit in memory.
        if k is None or k < 1 or m.shape != (d, d) or d.bit_length() != k + 1 or d != 1 << k:
            raise ArityError(
                f"gate {self.label!r} needs an arity of at least 1 and a 2**arity-square matrix,"
                f" got arity {self.arity!r} and shape {m.shape}"
            )
        # Execution never re-validates its output, so a gate must keep norms.
        if not np.isfinite(m).all() or not numerics.is_unitary(m):
            raise NotUnitaryError(f"gate {self.label!r} matrix is not unitary within 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "arity", k)
        object.__setattr__(self, "matrix", m)
        monomial = _monomial(m)
        object.__setattr__(self, "cycles", None if monomial is None else _cycles(*monomial))

    def __eq__(self, other):
        return (
            isinstance(other, Gate)
            and self.label == other.label
            and self.arity == other.arity
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.label, self.arity, self.matrix.tobytes()))

    def __repr__(self):
        return f"Gate({self.label!r}, arity={self.arity})"


_SQRT2_INV = 1.0 / np.sqrt(2.0)

X = Gate("X", 1, [[0, 1], [1, 0]])
Y = Gate("Y", 1, [[0, -1j], [1j, 0]])
Z = Gate("Z", 1, [[1, 0], [0, -1]])
S = Gate("S", 1, [[1, 0], [0, 1j]])
T = Gate("T", 1, [[1, 0], [0, np.exp(1j * np.pi / 4)]])
H = Gate("H", 1, np.array([[1, 1], [1, -1]]) * _SQRT2_INV)
SWAP = Gate(
    "SWAP",
    2,
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
)
CNOT = Gate(
    "CNOT",
    2,
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
)

LIBRARY = {g.label: g for g in (X, Y, Z, S, T, H, SWAP, CNOT)}
GATE_LABELS = tuple(LIBRARY)


def standard_gate(label: str) -> Gate:
    """Look up a library gate by name (case-insensitive)."""
    gate = LIBRARY.get(str(label).upper())
    if gate is None:
        raise UnknownGateError(
            f"unknown gate {label!r}; expected one of {', '.join(GATE_LABELS)}"
        )
    return gate

