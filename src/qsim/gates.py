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

import numpy as np

from . import numerics
from .errors import ArityError, NotUnitaryError, UnknownGateError


def _cycles(m: np.ndarray):
    """The cycles of a monomial matrix, or None when the matrix is dense.

    Output row r is ``m[r, src]`` times input row ``src``, for the one
    nonzero column ``src`` of row r. Rows chain r -> src into cycles; each
    cycle is a tuple of (row, phase) pairs in which every row takes the
    next row's input, the last taking the first's. Rows that keep their
    own input with phase 1 are left out.
    """
    rows = m.tolist()
    nonzero = [[c for c, v in enumerate(row) if v != 0] for row in rows]
    if any(len(cols) != 1 for cols in nonzero):
        return None
    src = [cols[0] for cols in nonzero]
    if len(set(src)) != len(src):
        return None
    cycles, seen = [], set()
    for start in range(len(src)):
        if start in seen:
            continue
        cycle, r = [], start
        while r not in seen:
            seen.add(r)
            cycle.append((r, rows[r][src[r]]))
            r = src[r]
        if len(cycle) > 1 or cycle[0][1] != 1:
            cycles.append(tuple(cycle))
    return tuple(cycles)


class Gate:
    """An immutable named unitary acting on ``arity`` qubits."""

    __slots__ = ("label", "arity", "matrix", "cycles")

    def __init__(self, label: str, arity: int, matrix):
        m = np.asarray(matrix, dtype=np.complex128).copy()
        if m.shape != (2**arity, 2**arity):
            raise ArityError(
                f"gate {label!r} with arity {arity} needs a {2**arity}x{2**arity} matrix"
            )
        # Execution never re-validates its output, so a gate must keep norms.
        if not np.isfinite(m).all() or not numerics.is_unitary(m):
            raise NotUnitaryError(f"gate {label!r} matrix is not unitary within 1e-10")
        m.setflags(write=False)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "cycles", _cycles(m))

    def __setattr__(self, name, value):
        raise AttributeError("Gate is immutable")

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

