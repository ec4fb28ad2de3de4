"""Circuit representation and execution.

A circuit is a qubit count plus an ordered list of instructions, each a
gate bound to distinct wires (for CNOT, wires[0] is the control).

One gate engine computes U @ M in a copy of M, acting on the row bits of M
only: O(size of M) per gate, no 2**n x 2**n gate matrix. :func:`_rows`
picks one of three kernels from the gate's wires and the size of M alone:

1. Fused trailing block. Each maximal run of consecutive instructions whose
   wires all lie in the last ``BLOCK_BITS`` bits of M is folded into one
   2**BLOCK_BITS-square matrix, by running the engine on the identity, and
   applied as one zgemm over M viewed as (rows, 2**BLOCK_BITS). There a
   strided view would give numpy one inner loop per 2-16 entries. A
   diagonal fold (a run of Z, S and T, say) multiplies M by its diagonal in
   place instead: one pass, no zgemm and no spare buffer.
2. Broadcast matmul. A dense 1-qubit gate (H, user gates) on any other
   wire, whose inner stride s is then at least 2**BLOCK_BITS, is one
   (2, 2) @ (outer, 2, s) matmul.
3. Block loop. A monomial gate (diagonal, permutation, phase-permutation)
   works in place: each block it re-phases or moves is one
   ``np.multiply(phase, src, out=dst)``, phase 1 included. numpy proves the
   interleaved views of one buffer disjoint and makes no copy of the
   block; only the first block of a cycle is held in the spare buffer. A
   dense gate on two or more wires writes its output block by block into
   the spare buffer.

Kernel 2 and a dense fold of kernel 1 write through ``out=`` into the
spare buffer, which then becomes the state. :func:`apply` runs the engine
on a state vector, :func:`unitary` on the identity, and
:func:`apply_density` twice: U rho U† = (U (U rho)†)†, with a conjugate
transpose into the spare buffer after each pass, exact for any rho. In those two, M has 2n bits and the
circuit acts on the first n, so from n = BLOCK_BITS on no wire reaches the
trailing block and their passes use kernels 2 and 3 only. Outputs come
from valid inputs by unitary steps and are not validated again.

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
from .gates import Gate
from .qstate import DensityMatrix, StateVector, adopt_density, adopt_state

# Trailing bits whose gates are fused into one zgemm (kernel 1). From a
# per-wire sweep at 20 qubits: with 4, every dense 1-qubit gate outside the
# block has a stride of at least 16, where the broadcast matmul is no slower
# than the block loop, so kernel 2 needs no stride threshold; 3 would leave
# wire n-4 to kernels about 3x slower than the block, and 5 makes every
# block pass cost about 1.5x more.
BLOCK_BITS = 4


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


def _blocks(buf: np.ndarray, wires) -> list:
    """Views of ``buf`` for each value of the bits on ``wires``.

    ``buf`` is a C-ordered tensor of log2(buf.size) qubits, qubit 0 the most
    significant bit. View k holds the entries whose ``wires`` bits read k,
    the first wire being the most significant bit of k, so view k lines up
    with row and column k of the gate matrix.
    """
    shape, prev = [], 0
    for w in sorted(wires):
        shape += [1 << (w - prev), 2]
        prev = w + 1
    shape.append(buf.size >> prev)
    tensor = buf.reshape(shape)
    axis = {w: 2 * k + 1 for k, w in enumerate(sorted(wires))}
    m = len(wires)
    views = []
    for sub in range(1 << m):
        index = [slice(None)] * len(shape)
        for j, w in enumerate(wires):
            index[axis[w]] = (sub >> (m - 1 - j)) & 1
        views.append(tensor[tuple(index)])
    return views


def _apply_gate(buf, spare, gate: Gate, wires):
    """Apply ``gate`` to ``wires`` of ``buf`` (kernels 2 and 3 of the module docstring).

    ``buf`` and ``spare`` are C-ordered arrays of the same size; returns them
    as (state, spare) after the gate. A dense 1-qubit gate is one broadcast
    matmul into ``spare``. A monomial gate works in place: each cycle moves
    its blocks along, ``spare`` holding the first one, and every move or
    re-phase, by phase 1 too, is one ``np.multiply`` into the destination
    block, with no block-sized temporary. A wider dense gate writes its
    output block by block into ``spare``; row r is g[r,0]*b0 + g[r,1]*b1 +
    ..., summed left to right. Whenever the output lands in ``spare``, the
    two arrays trade roles.
    """
    if gate.cycles is None and gate.arity == 1:
        stride = buf.size >> (wires[0] + 1)
        np.matmul(gate.matrix, buf.reshape(-1, 2, stride), out=spare.reshape(-1, 2, stride))
        return spare, buf
    blocks = _blocks(buf, wires)
    if gate.cycles is not None:
        for cycle in gate.cycles:
            rows = [blocks[r] for r, _ in cycle]
            held = rows[0]
            if len(rows) > 1:
                held = spare.reshape(-1)[: held.size].reshape(held.shape)
                np.copyto(held, rows[0])
            for dst, src, (_, phase) in zip(rows, rows[1:] + [held], cycle):
                np.multiply(phase, src, out=dst)
        return buf, spare
    g = gate.matrix
    out = _blocks(spare, wires)
    last = len(out) - 1
    # The last output block is scratch until its own row, which then
    # scales the input blocks in place: no later row reads them.
    for r in range(last):
        np.multiply(g[r, 0], blocks[0], out=out[r])
        for c in range(1, last + 1):
            np.multiply(g[r, c], blocks[c], out=out[last])
            np.add(out[r], out[last], out=out[r])
    np.multiply(g[last, 0], blocks[0], out=out[last])
    for c in range(1, last + 1):
        np.multiply(g[last, c], blocks[c], out=blocks[c])
        np.add(out[last], blocks[c], out=out[last])
    return spare, buf


def _fold(run, bits: int, shift: int) -> np.ndarray:
    """The 2**bits x 2**bits unitary of ``run``, its wires lowered by ``shift``: the engine on I."""
    m = np.eye(1 << bits, dtype=np.complex128)
    spare = np.empty_like(m)
    for instr in run:
        m, spare = _apply_gate(m, spare, instr.gate, [w - shift for w in instr.wires])
    return m


def _rows(circuit: Circuit, buf, spare):
    """(U @ buf, spare): the circuit on the row bits of ``buf``, as in :func:`_apply_gate`.

    Each maximal run of instructions on the trailing ``BLOCK_BITS`` bits of
    ``buf`` is folded into one small matrix and applied as one zgemm over
    ``buf`` viewed as (rows, 2**bits), or, when that matrix is diagonal, as
    one multiply in place; every other instruction goes to
    :func:`_apply_gate`.
    """
    nbits = buf.size.bit_length() - 1
    bits = min(BLOCK_BITS, nbits)
    low = nbits - bits
    for in_block, run in itertools.groupby(circuit.instructions, lambda i: min(i.wires) >= low):
        if in_block:
            m = _fold(run, bits, low)
            rows, diagonal = buf.reshape(-1, 1 << bits), np.diagonal(m)
            if np.count_nonzero(m) == np.count_nonzero(diagonal):
                np.multiply(rows, diagonal, out=rows)
            else:
                np.matmul(rows, m.T, out=spare.reshape(-1, 1 << bits))
                buf, spare = spare, buf
        else:
            for instr in run:
                buf, spare = _apply_gate(buf, spare, instr.gate, instr.wires)
    return buf, spare


def apply(circuit: Circuit, state: StateVector) -> StateVector:
    """Run the circuit on a state vector."""
    if state.num_qubits != circuit.num_qubits:
        raise DimensionMismatchError(
            f"state has {state.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    capacity.check("statevector", circuit.num_qubits)
    buf = state.amplitudes.copy()
    return adopt_state(_rows(circuit, buf, np.empty_like(buf))[0])


def apply_density(circuit: Circuit, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a density matrix by the circuit: rho -> U rho U†."""
    if rho.num_qubits != circuit.num_qubits:
        raise DimensionMismatchError(
            f"density matrix has {rho.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    capacity.check("density", circuit.num_qubits)
    buf, spare = rho.matrix.copy(), np.empty_like(rho.matrix)
    # U rho U† = (U (U rho)†)† for any rho, Hermitian or not.
    for _ in range(2):
        buf, spare = _rows(circuit, buf, spare)
        np.conjugate(buf.T, out=spare)
        buf, spare = spare, buf
    return adopt_density(buf)


def unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's 2**n x 2**n unitary, as the engine's U @ I."""
    capacity.check("unitary", circuit.num_qubits)
    eye = np.eye(1 << circuit.num_qubits, dtype=np.complex128)
    return _rows(circuit, eye, np.empty_like(eye))[0]


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
