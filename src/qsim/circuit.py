"""Circuit representation and execution.

A circuit is a qubit count plus an ordered list of instructions, each a
gate bound to distinct wires (for CNOT, wires[0] is the control).

One gate engine replaces M by U @ M in place, acting on the row bits of M
only: O(size of M) per pass, no 2**n x 2**n gate matrix, and no second
M-sized buffer. Its one scratch is a tile of ``TILE`` entries; each kernel
works one piece of at most a tile at a time. An M no larger than the tile
is one piece, and where a kernel below copies a piece back from the tile,
M and the tile trade places instead. :func:`_schedule` makes the passes:
an instruction moves back past passes on other wires, which commute with
it, and joins the latest one it fits, a run for kernel 1 or a monomial run
above it on at most ``FOLD_WIRES`` wires (fewer on a small M), or is alone.
Every fused run is folded by the engine on the identity of its wires
(:func:`_fold`); a diagonal result is one in-place multiply, a monomial one
block moves (kernel 3), a trailing dense one a zgemm (kernel 1).

1. Fused trailing block. A dense fold of a run on the last ``BLOCK_BITS``
   bits of M is one zgemm per tile of M's rows, viewed as (rows,
   2**BLOCK_BITS), into the tile and copied back. There a strided view
   would give numpy one inner loop per 2-16 entries.
2. Broadcast matmul. A lone dense 1-qubit gate (H, user gates) on any
   other wire, whose inner stride s is then at least 2**BLOCK_BITS, is one
   (2, 2) @ (outer, 2, s) matmul per piece, split along outer, or along s
   when one outer slice outgrows the tile, into the tile and copied back.
3. Block loop. A monomial map (diagonal, permutation, phase-permutation)
   re-phases or moves each block one piece at a time: every move is one
   ``np.multiply(phase, src, out=dst)``, phase 1 included. numpy proves the
   interleaved views of one buffer disjoint and makes no copy; only the
   first block's piece of a cycle is held in the tile. The map is a lone
   gate's or a folded run's. A lone dense gate on two or more wires writes
   the output blocks of each piece into the tile and copies them back.

:func:`apply` runs the engine on a copy of a state vector, :func:`unitary`
on the identity, and :func:`apply_density` twice on a copy of rho: U rho U†
= (U (U rho)†)†, exact for any rho, with the conjugate transpose after each
pass done in place, one pair of square tiles at a time. In those two
passes, M has 2n bits and the circuit acts on the first n, so from n =
BLOCK_BITS on no wire reaches the trailing block and they use kernels 2 and
3 only. Outputs come from valid inputs by unitary steps and are not
validated again.

:func:`embed` and :func:`unitary_of` build full matrices explicitly and
exist as the brute-force oracle the engine is tested against; no library
or command-line path calls them.
"""

import itertools

import numpy as np

from . import capacity
from .errors import (
    ArityError,
    DimensionMismatchError,
    DuplicateWireError,
    WireOutOfRangeError,
)
from .gates import Gate, _cycles, _monomial
from .qstate import DensityMatrix, StateVector, adopt_density, adopt_state

# Trailing bits whose gates are fused into one zgemm (kernel 1). From a
# per-wire sweep at 20 qubits: with 4, every dense 1-qubit gate outside the
# block has a stride of at least 16, where the broadcast matmul is no slower
# than the block loop, so kernel 2 needs no stride threshold; 3 would leave
# wire n-4 to kernels about 3x slower than the block, and 5 makes every
# block pass cost about 1.5x more.
BLOCK_BITS = 4

# Entries of the engine's one scratch tile: 512 KiB of complex128, a quarter
# of a core's 2 MiB L2. In a sweep of 2**12 ... 2**18 (apply at 20 qubits,
# apply_density at 9, one BLAS thread, 2 vCPUs), 2**13 ... 2**15 were
# fastest and within run-to-run noise of each other; 2**12 and from 2**16 up
# were 6-26 % slower than 2**15.
TILE = 1 << 15

# Most wires a monomial fold may span, and the fewest bits each of its blocks
# keeps: on smaller ones numpy's per-call work costs more than the passes
# saved. From a sweep of 0-8 wires and 8-14 bits, recorded in CHANGES.md.
FOLD_WIRES = 6
FOLD_BLOCK_BITS = 12


class Instruction:
    """One gate application: the gate plus the wires it acts on, in order."""

    __slots__ = ("gate", "wires")

    def __init__(self, gate: Gate, wires):
        ws = tuple(int(w) for w in wires)
        if len(ws) != gate.arity:
            raise ArityError(
                f"gate {gate.label!r} expects {gate.arity} wires, got {len(ws)}"
            )
        if len(set(ws)) != len(ws):
            raise DuplicateWireError(f"wires must be distinct, got {ws}")
        if any(w < 0 for w in ws):
            raise WireOutOfRangeError(f"wires must be non-negative, got {ws}")
        object.__setattr__(self, "gate", gate)
        object.__setattr__(self, "wires", ws)

    def __setattr__(self, name, value):
        raise AttributeError("Instruction is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Instruction)
            and self.gate == other.gate
            and self.wires == other.wires
        )

    def __hash__(self):
        return hash((self.gate, self.wires))

    def __repr__(self):
        return f"Instruction({self.gate.label}, wires={self.wires})"


class Circuit:
    """An ordered gate sequence on ``num_qubits`` wires."""

    __slots__ = ("num_qubits", "instructions")

    def __init__(self, num_qubits: int, instructions=()):
        n = int(num_qubits)
        if n < 1:
            raise DimensionMismatchError(f"circuit needs at least 1 qubit, got {n}")
        instrs = tuple(instructions)
        for instr in instrs:
            if max(instr.wires) >= n:
                raise WireOutOfRangeError(
                    f"instruction {instr!r} touches wires beyond qubit {n - 1}"
                )
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "instructions", instrs)

    def __setattr__(self, name, value):
        raise AttributeError("Circuit is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Circuit)
            and self.num_qubits == other.num_qubits
            and self.instructions == other.instructions
        )

    def __hash__(self):
        return hash((self.num_qubits, self.instructions))

    def __repr__(self):
        return f"Circuit(num_qubits={self.num_qubits}, instructions={len(self.instructions)})"


def _blocks(buf: np.ndarray, wires) -> np.ndarray:
    """A view of ``buf`` with the bits on ``wires`` as its leading axes.

    ``buf`` is a C-ordered tensor of log2(buf.size) qubits, qubit 0 the most
    significant bit. ``view[b]``, for the bits ``b`` of k with the first
    wire the most significant, is block k: the entries whose ``wires`` bits
    read k, lined up with row and column k of the gate matrix.
    """
    ordered = sorted(wires)
    shape, prev = [], 0
    for w in ordered:
        shape += [1 << (w - prev), 2]
        prev = w + 1
    shape.append(buf.size >> prev)
    lead = [2 * ordered.index(w) + 1 for w in wires]
    return buf.reshape(shape).transpose(lead + [a for a in range(0, len(shape), 2)])


def _pieces(shape, limit: int) -> list:
    """Index tuples cutting an array of ``shape`` into C-ordered pieces of at most ``limit`` entries.

    Every extent and ``limit`` are powers of two, so each piece but the
    whole array holds exactly ``limit`` entries. ``[()]`` when it all fits.
    """
    axis, inner = len(shape), 1
    while axis and inner * shape[axis - 1] <= limit:
        axis -= 1
        inner *= shape[axis]
    if axis == 0:
        return [()]
    step = limit // inner
    leads = itertools.product(*map(range, shape[: axis - 1]))
    return [lead + (slice(a, a + step),) for lead in leads for a in range(0, shape[axis - 1], step)]


def _through(buf, tile, view, pieces, write):
    """Replace each piece ``view[p]`` of ``buf`` by ``write(src, out)``, through the tile.

    ``write`` fills ``out``, the tile's first entries shaped like the piece
    ``src``, and may use the tile past them as scratch; ``out`` is then
    copied onto ``src``. When the piece is all of ``buf`` in its own order
    and the tile is as large, the two trade places instead of copying.
    Returns the (buffer, tile) pair.
    """
    for p in pieces:
        src = view[p]
        out = tile[: src.size].reshape(src.shape)
        write(src, out)
        if src.size == buf.size == tile.size and src.flags.c_contiguous:
            return tile, buf
        np.copyto(src, out)
    return buf, tile


def _move(buf, tile, cycles, wires) -> None:
    """Run the ``cycles`` of :func:`gates._cycles` on ``wires`` of the flat ``buf`` in place (kernel 3)."""
    blocks = _blocks(buf, wires)
    bits = list(itertools.product((0, 1), repeat=len(wires)))
    pieces = _pieces(blocks.shape[len(wires) :], tile.size)
    for cycle in cycles:
        for p in pieces:
            rows = [blocks[bits[r] + p] for r, _ in cycle]
            held = rows[0]
            if len(rows) > 1:
                held = tile[: held.size].reshape(held.shape)
                np.copyto(held, rows[0])
            for dst, src, (_, phase) in zip(rows, rows[1:] + [held], cycle):
                np.multiply(phase, src, out=dst)


def _apply_gate(buf, tile, gate: Gate, wires):
    """Apply ``gate`` to ``wires`` of the flat ``buf`` (kernels 2 and 3 of the module docstring).

    ``tile`` is scratch of at least 2**(arity + 1) entries. A wider dense
    gate writes the output blocks of a piece next to one scratch block; row
    r is g[r,0]*b0 + g[r,1]*b1 + ..., summed left to right. Returns the
    (buffer, tile) pair of :func:`_through`.
    """
    m = gate.arity
    if gate.cycles is None and m == 1:
        pairs = buf.reshape(-1, 2, buf.size >> (wires[0] + 1))
        # A piece keeps both rows of the gate: it splits (outer, stride) only.
        cuts = _pieces(pairs.shape[::2], tile.size >> 1)
        pieces = [p[:1] + (slice(None),) + p[1:] for p in cuts]
        return _through(buf, tile, pairs, pieces, lambda src, out: np.matmul(gate.matrix, src, out=out))
    if gate.cycles is not None:
        _move(buf, tile, gate.cycles, wires)
        return buf, tile
    blocks = _blocks(buf, wires)
    bits = list(itertools.product((0, 1), repeat=m))

    def dense(src, out):
        ins, outs = [src[b] for b in bits], out.reshape((len(bits),) + src.shape[m:])
        scratch = tile[src.size : src.size + ins[0].size].reshape(ins[0].shape)
        for r, row in enumerate(gate.matrix):
            np.multiply(row[0], ins[0], out=outs[r])
            for c in range(1, len(ins)):
                np.multiply(row[c], ins[c], out=scratch)
                np.add(outs[r], scratch, out=outs[r])

    # A piece's output blocks and one scratch block fill at most the tile.
    pieces = [(slice(None),) * m + p for p in _pieces(blocks.shape[m:], tile.size >> (m + 1))]
    return _through(buf, tile, blocks, pieces, dense)


def _fold(run, wires) -> np.ndarray:
    """The 2**k x 2**k unitary of ``run`` on the k sorted ``wires``: the engine on I."""
    m = np.eye(1 << len(wires), dtype=np.complex128).reshape(-1)
    # Scratch the size of m, far smaller than the engine's tile.
    tile = np.empty(m.size, dtype=m.dtype)
    for instr in run:
        m, tile = _apply_gate(m, tile, instr.gate, [wires.index(w) for w in instr.wires])
    return m.reshape(1 << len(wires), 1 << len(wires))


def _schedule(instructions, low: int, width: int) -> list:
    """The passes of the module docstring, as [kind, wires, run] lists.

    A "block" run lies from wire ``low`` on, a "fold" run below it on at
    most ``width`` wires, and an instruction of kind None runs alone.
    """
    items = []
    for instr in instructions:
        ws = set(instr.wires)
        fold = max(ws) < low and len(ws) <= width and instr.gate.cycles is not None
        kind = "block" if min(ws) >= low else "fold" if fold else None
        target = None
        for item in reversed(items if kind else ()):
            if item[0] == kind and (kind == "block" or len(item[1] | ws) <= width):
                target = item
            if target or not item[1].isdisjoint(ws):
                break
        if target is None:
            items.append(target := [kind, set(), []])
        target[1] |= ws
        target[2].append(instr)
    return items


def _rows(circuit: Circuit, buf):
    """U @ buf: the circuit on the row bits of ``buf``, one pass per item of :func:`_schedule`.

    The tile holds ``min(TILE, buf.size)`` entries, raised to a row of the
    fold and two entries per block of the widest gate should that be
    smaller. The result is ``buf`` or the tile, shaped like ``buf``.
    """
    flat = buf.reshape(-1)
    nbits = flat.size.bit_length() - 1
    bits = min(BLOCK_BITS, nbits)
    low = nbits - bits
    widest = max([bits] + [instr.gate.arity + 1 for instr in circuit.instructions])
    tile = np.empty(max(min(TILE, flat.size), 1 << widest), dtype=flat.dtype)
    for kind, wires, run in _schedule(circuit.instructions, low, min(FOLD_WIRES, nbits - FOLD_BLOCK_BITS)):
        if kind != "block" and len(run) == 1:
            flat, tile = _apply_gate(flat, tile, run[0].gate, run[0].wires)
            continue
        wires = range(low, nbits) if kind == "block" else sorted(wires)
        m = _fold(run, wires)
        diagonal = np.diagonal(m)
        if np.count_nonzero(m) == np.count_nonzero(diagonal):
            blocks = _blocks(flat, wires)
            np.multiply(blocks, diagonal.reshape((2,) * len(wires) + (1,) * (blocks.ndim - len(wires))), out=blocks)
        elif kind == "fold":
            _move(flat, tile, _cycles(*_monomial(m)), wires)
        else:
            rows = flat.reshape(-1, 1 << bits)
            pieces = _pieces((len(rows),), tile.size >> bits)
            flat, tile = _through(flat, tile, rows, pieces, lambda src, out: np.matmul(src, m.T, out=out))
    return flat.reshape(buf.shape)


def _adjoint(m):
    """Replace the square matrix ``m`` by its conjugate transpose in place.

    Diagonal tiles are conjugate-transposed where they lie, and each
    (i, j)/(j, i) pair of tiles trades conjugate transposes, through one
    square scratch of at most ``TILE`` entries: no second matrix.
    """
    d = len(m)
    edge = min(d, 1 << (TILE.bit_length() - 1) // 2)
    scratch = np.empty((edge, edge), dtype=m.dtype)
    for i in range(0, d, edge):
        for j in range(i, d, edge):
            upper, lower = m[i : i + edge, j : j + edge], m[j : j + edge, i : i + edge]
            np.conjugate(upper.T, out=scratch)
            if i != j:
                np.conjugate(lower.T, out=upper)
            np.copyto(lower, scratch)


def apply(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on a state vector."""
    if state.num_qubits != circuit.num_qubits:
        raise DimensionMismatchError(
            f"state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    capacity.check("statevector", circuit.num_qubits)
    return adopt_state(_rows(circuit, state.amplitudes.copy()))


def apply_density(circuit: Circuit, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a density matrix by the circuit: rho -> U rho U†."""
    if rho.num_qubits != circuit.num_qubits:
        raise DimensionMismatchError(
            f"density matrix has {rho.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    capacity.check("density", circuit.num_qubits)
    buf = rho.matrix.copy()
    # U rho U† = (U (U rho)†)† for any rho, Hermitian or not.
    for _ in range(2):
        buf = _rows(circuit, buf)
        _adjoint(buf)
    return adopt_density(buf)


def unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's 2**n x 2**n unitary, as the engine's U @ I."""
    capacity.check("unitary", circuit.num_qubits)
    return _rows(circuit, np.eye(1 << circuit.num_qubits, dtype=np.complex128))


def embed(gate: Gate, wires, num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary acting as ``gate`` on ``wires``, identity elsewhere.

    Built entry by entry from the basis-state action, deliberately
    independent of the gate engine so the two can check each other.
    """
    ws = tuple(int(w) for w in wires)
    if len(ws) != gate.arity:
        raise ArityError(f"gate {gate.label!r} expects {gate.arity} wires, got {len(ws)}")
    if len(set(ws)) != len(ws):
        raise DuplicateWireError(f"wires must be distinct, got {ws}")
    if any(w < 0 or w >= num_qubits for w in ws):
        raise WireOutOfRangeError(f"wires {ws} out of range for {num_qubits} qubits")
    capacity.check("unitary", num_qubits)
    m = gate.arity
    dim = 1 << num_qubits
    # Bit position of wire w in the basis index (qubit 0 is the MSB).
    shifts = [num_qubits - 1 - w for w in ws]
    full = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        sub_in = 0
        for j, shift in enumerate(shifts):
            sub_in |= ((col >> shift) & 1) << (m - 1 - j)
        cleared = col
        for shift in shifts:
            cleared &= ~(1 << shift)
        for sub_out in range(1 << m):
            amp = gate.matrix[sub_out, sub_in]
            if amp == 0.0:
                continue
            row = cleared
            for j, shift in enumerate(shifts):
                row |= ((sub_out >> (m - 1 - j)) & 1) << shift
            full[row, col] += amp
    return full


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the embedded instruction unitaries (first instruction rightmost)."""
    capacity.check("unitary", circuit.num_qubits)
    u = np.eye(1 << circuit.num_qubits, dtype=np.complex128)
    for instr in circuit.instructions:
        u = embed(instr.gate, instr.wires, circuit.num_qubits) @ u
    return u
