"""Circuit representation and execution.

A circuit is a qubit count plus an ordered list of instructions, each a
gate bound to distinct wires (for CNOT, wires[0] is the control).

One gate engine replaces M by U @ M in place, acting on the row bits of M
only: O(size of M) per pass, no 2**n x 2**n gate matrix, and no second
M-sized buffer. It plans, then runs. In :func:`_schedule` an instruction
moves back past passes on other wires, which commute with it, and joins
the latest run it fits, or is alone. One size picks the runs: when M
outgrows the ``TILE``-entry scratch tile, a pass is a trip through memory,
only the last group of ``BLOCK_BITS`` wires holds windows, and a monomial
run above it folds on at most ``FOLD_WIRES`` wires; when M fits, a pass is
a few numpy calls, every group holds windows and none folds, so the
benchmark's 12-14-qubit shots circuits take 12-14 passes, not 20-31.
:func:`_plan` folds each run once into a (kernel, wires, operand) pass:
:func:`_fold` multiplies the run's gate matrices into one, the same way at
every size, and runs no pass. :func:`_run`, the one place a kernel is
picked, works one piece of at most a tile at a time. An M no larger than
the tile is one piece; where a kernel would copy it back, the two trade places.

- "scale", a run that folds to a diagonal: one in-place broadcast multiply.
- "window", a run folded to a 2**k x 2**k matrix on a group's k wires, or a
  lone dense 1-qubit gate: one matmul per piece of the view (outer, 2**k,
  inner) into the tile, copied back; at inner 1, rows of 2**k times the
  transpose, one zgemm. Every matmul piece keeps 4 columns, or all of
  them, so the bits do not depend on the cut.
- "move", a lone monomial gate or a run that folds to a monomial: each
  block is re-phased or moved one piece at a time, each one
  ``np.multiply(phase, src, out=dst)``, phase 1 included, which numpy makes
  with no copy; only the first block's piece of a cycle is held in the tile.
- "dense", a lone dense gate on more wires: each piece of its blocks is
  gathered into the tile, just past the piece's size, as (2**k, P); one
  matmul by the gate's matrix writes the tile's first entries, which are
  copied back.

:func:`apply` runs a plan on n bits on a copy of a state vector,
:func:`unitary` one on 2n bits on the identity, and :func:`apply_density`
one on 2n bits twice on a copy of rho, or on |psi><psi| built in place,
each run followed by an in-place conjugate transpose by pairs of square
tiles: U rho U† = (U (U rho)†)†, exact for any rho. Outputs come from
valid inputs by unitary steps and are not validated again.

:func:`embed` and :func:`unitary_of` build full matrices explicitly: the
brute-force oracle the engine is tested against, on no library or CLI path.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import capacity
from .errors import ArityError, DimensionMismatchError, DuplicateWireError, WireOutOfRangeError
from .gates import Gate, _cycles, _monomial
from .numerics import as_index
from .qstate import DensityMatrix, StateVector, _projector, adopt_density, adopt_state

# Wires of a window group. From a per-wire sweep at 20 qubits: with 4, every
# lone dense 1-qubit gate above the last group has a stride of at least 16,
# where its one-wire window is no slower than the block loop; 3 would leave
# wire n-4 to kernels about 3x slower than the last window, and 5 makes
# every pass of it cost about 1.5x more.
BLOCK_BITS = 4

# Entries of the engine's one scratch tile: 512 KiB of complex128, a quarter
# of a core's 2 MiB L2. In a sweep of 2**12 ... 2**18 (apply at 20 qubits,
# apply_density at 9, one BLAS thread, 2 vCPUs), 2**13 ... 2**15 were
# fastest and within run-to-run noise of each other; 2**12 and from 2**16 up
# were 6-26 % slower than 2**15.
TILE = 1 << 15

# Most wires a monomial fold may span, from a 0-8 sweep in CHANGES.md. No run
# folds when M fits the tile: over seeds 1-20 of the shots benchmark, all 200
# fold runs that formed there held one gate, the same pass as no fold.
FOLD_WIRES = 6


@dataclass(frozen=True, slots=True)
class Instruction:
    """One gate application: the gate plus the wires it acts on, in order."""

    gate: Gate
    wires: tuple[int, ...]

    def __post_init__(self):
        ws = tuple(map(as_index, self.wires))
        if len(ws) != self.gate.arity:
            raise ArityError(
                f"gate {self.gate.label!r} expects {self.gate.arity} wires, got {len(ws)}"
            )
        if any(w is None or w < 0 for w in ws):
            raise WireOutOfRangeError(f"wires must be non-negative integers, got {self.wires!r}")
        if len(set(ws)) != len(ws):
            raise DuplicateWireError(f"wires must be distinct, got {ws}")
        object.__setattr__(self, "wires", ws)

    def __repr__(self):
        return f"Instruction({self.gate.label}, wires={self.wires})"


@dataclass(frozen=True, slots=True)
class Circuit:
    """An ordered gate sequence on ``num_qubits`` wires."""

    num_qubits: int
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        if (n := as_index(self.num_qubits)) is None or n < 1:
            raise DimensionMismatchError(f"circuit needs at least 1 qubit, got {self.num_qubits!r}")
        instrs = tuple(self.instructions)
        for instr in instrs:
            if max(instr.wires) >= n:
                raise WireOutOfRangeError(
                    f"instruction {instr!r} touches wires beyond qubit {n - 1}"
                )
        object.__setattr__(self, "num_qubits", n)
        object.__setattr__(self, "instructions", instrs)

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
    """Run the ``cycles`` of :func:`gates._cycles` on ``wires`` of the flat ``buf`` in place."""
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


def _lone(gate: Gate, wires) -> tuple:
    """The pass of ``gate`` alone on ``wires``: block moves of its cycles, a window of one wire, or its dense matrix."""
    kernel = "move" if gate.cycles is not None else "window" if len(wires) == 1 else "dense"
    return kernel, wires, gate.matrix if gate.cycles is None else gate.cycles


def _fold(run, wires) -> np.ndarray:
    """The 2**k x 2**k unitary of ``run`` on the k sorted ``wires``: each gate's matrix times I, in order.

    One matmul a gate: on the (2**i, 2, rest) view of its local wire i, or on its gathered :func:`_blocks`.
    """
    m = np.eye(1 << len(wires), dtype=np.complex128)
    for instr in run:
        local, u = [wires.index(w) for w in instr.wires], instr.gate.matrix
        if len(local) == 1:
            m = np.matmul(u, m.reshape(1 << local[0], 2, -1)).reshape(m.shape)
        else:
            blocks = _blocks(m, local)
            blocks[...] = (u @ blocks.reshape(len(u), -1)).reshape(blocks.shape)
    return m


def _schedule(instructions, low: int, width: int, spread: bool = False) -> list:
    """The passes of the module docstring, as [kind, wires, run] lists.

    Wires group by ``BLOCK_BITS`` from ``low`` on. A window run lies in the
    group from ``low`` or, when ``spread``, in any; its kind is the group's
    first wire. A "fold" run lies below ``low`` on at most ``width`` wires.
    A gate joins the latest run of its kind (a fold's with room) at or after
    the latest item on its wires, indexed in ``latest`` by wire, ``runs`` by kind.
    """
    items, latest, runs = [], {}, {}
    for instr in instructions:
        ws = set(instr.wires)
        start = low + (min(ws) - low) // BLOCK_BITS * BLOCK_BITS if BLOCK_BITS else low
        window = start <= min(ws) and max(ws) < start + BLOCK_BITS and (spread or start == low)
        fold = max(ws) < low and len(ws) <= width and instr.gate.cycles is not None
        kind = start if window else "fold" if fold else None
        bound, target = max(latest.get(w, -1) for w in ws), None
        for i in reversed(runs.get(kind, []) if kind is not None else ()):
            if i >= bound and (kind != "fold" or len(items[i][1] | ws) <= width):
                target = i
            if target is not None or i <= bound:
                break
        if target is None:
            runs.setdefault(kind, []).append(target := len(items))
            items.append([kind, set(), []])
        items[target][1].update(ws)
        items[target][2].append(instr)
        for w in ws:
            latest[w] = target
    return items


def _plan(circuit: Circuit, nbits: int) -> list:
    """The circuit on the first of ``nbits`` row bits: one (kernel, wires, operand) pass per item of :func:`_schedule`.

    A lone gate's pass is :func:`_lone`'s; a fused run's holds its fold's
    diagonal, its monomial cycles, or its window's matrix on the group's
    wires up to the circuit's last.
    """
    low = nbits - min(BLOCK_BITS, nbits)
    spread = 1 << nbits <= TILE
    plan = []
    for kind, wires, run in _schedule(circuit.instructions, low, 0 if spread else FOLD_WIRES, spread):
        if kind in ("fold", None) and len(run) == 1:
            plan.append(_lone(run[0].gate, run[0].wires))
            continue
        wires = sorted(wires) if kind == "fold" else range(max(kind, 0), min(kind + BLOCK_BITS, circuit.num_qubits))
        m = _fold(run, wires)
        diagonal = np.diagonal(m)
        if np.count_nonzero(m) == np.count_nonzero(diagonal):
            plan.append(("scale", wires, diagonal))
        elif kind == "fold":
            plan.append(("move", wires, _cycles(*_monomial(m))))
        else:
            plan.append(("window", wires, m))
    return plan


def _run(plan, buf):
    """U @ buf: each pass of ``plan`` on the row bits of ``buf``, on the kernel of its kind.

    The tile holds ``min(TILE, buf.size)`` entries, raised to four columns
    of a window's 2**k rows, or all of them, and to eight entries per block
    of a dense pass. The result is ``buf`` or the tile, shaped like ``buf``.
    """
    flat = buf.reshape(-1)
    nbits = flat.size.bit_length() - 1
    # A cut leaves every matmul P >= 4 columns, a dense one beside its gather: OpenBLAS
    # zgemm gives a column the same bits at every P from 4 up, not at 1 or 2.
    widest = [len(ws) + 3 if kernel == "dense" else min(len(ws) + 2, nbits)
              for kernel, ws, _ in plan if kernel in ("window", "dense")]
    tile = np.empty(max(min(TILE, flat.size), 1 << max(widest, default=0)), dtype=flat.dtype)
    for kernel, wires, operand in plan:
        k = len(wires)
        if kernel == "scale":
            blocks = _blocks(flat, wires)
            np.multiply(blocks, operand.reshape((2,) * k + (1,) * (blocks.ndim - k)), out=blocks)
        elif kernel == "move":
            _move(flat, tile, operand, wires)
        elif kernel == "window":
            inner = flat.size >> (wires[-1] + 1)
            slabs = flat.reshape(-1, 1 << k, inner)
            # A piece splits (outer, inner) only. At inner 1 it is rows times M.T, one zgemm.
            pieces = [p[:1] + (slice(None),) + p[1:] for p in _pieces(slabs.shape[::2], tile.size >> k)]
            if inner == 1:
                flat, tile = _through(flat, tile, slabs[..., 0], pieces, lambda src, out: np.matmul(src, operand.T, out=out))
            else:
                flat, tile = _through(flat, tile, slabs, pieces, lambda src, out: np.matmul(operand, src, out=out))
        else:
            def dense(src, out):
                held = tile[src.size : 2 * src.size].reshape(src.shape)
                np.copyto(held, src)
                np.matmul(operand, held.reshape(1 << k, -1), out=out.reshape(1 << k, -1))

            # A piece and its gather fill at most the tile.
            blocks = _blocks(flat, wires)
            pieces = [(slice(None),) * k + p for p in _pieces(blocks.shape[k:], tile.size >> (k + 1))]
            flat, tile = _through(flat, tile, blocks, pieces, dense)
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
    return adopt_state(_run(_plan(circuit, circuit.num_qubits), state.amplitudes.copy()))


def apply_density(circuit: Circuit, rho: DensityMatrix | StateVector) -> DensityMatrix:
    """Conjugate a density matrix by the circuit: rho -> U rho U†.

    A state vector psi stands for rho = |psi><psi|, built in the buffer the
    engine then runs on, so the call holds one 4**n matrix, not two. The
    qubit count and the density cap are checked before it is allocated.
    """
    if rho.num_qubits != circuit.num_qubits:
        raise DimensionMismatchError(
            f"input has {rho.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
    capacity.check("density", circuit.num_qubits)
    # Dispatch on DensityMatrix: a traced run replaces this module's StateVector.
    buf = rho.matrix.copy() if isinstance(rho, DensityMatrix) else _projector(rho.amplitudes)
    plan = _plan(circuit, 2 * circuit.num_qubits)
    # U rho U† = (U (U rho)†)† for any rho, Hermitian or not.
    for _ in range(2):
        buf = _run(plan, buf)
        _adjoint(buf)
    return adopt_density(buf)


def unitary(circuit: Circuit) -> np.ndarray:
    """The circuit's 2**n x 2**n unitary, as the engine's U @ I."""
    capacity.check("unitary", circuit.num_qubits)
    return _run(_plan(circuit, 2 * circuit.num_qubits), np.eye(1 << circuit.num_qubits, dtype=np.complex128))


def embed(gate: Gate, wires, num_qubits: int) -> np.ndarray:
    """Full 2**n x 2**n unitary acting as ``gate`` on ``wires``, identity elsewhere.

    Built from the basis-state action, one output row of the gate at a time
    over all 2**n columns, deliberately independent of the gate engine so
    the two can check each other.
    """
    ws = Instruction(gate, wires).wires
    if any(w >= num_qubits for w in ws):
        raise WireOutOfRangeError(f"wires {ws} out of range for {num_qubits} qubits")
    capacity.check("unitary", num_qubits)
    cols = np.arange(1 << num_qubits)
    # Bit position of each wire in a basis index (qubit 0 is the MSB), and its
    # place value in the gate's sub-index (the first wire is the most significant).
    shifts, places = num_qubits - 1 - np.array(ws), np.arange(gate.arity)[::-1]
    sub_in = ((cols[:, None] >> shifts) & 1) @ (1 << places)
    cleared = cols & ~np.bitwise_or.reduce(1 << shifts)
    full = np.zeros((cols.size, cols.size), dtype=np.complex128)
    for sub_out in range(1 << gate.arity):
        full[cleared | ((sub_out >> places) & 1) @ (1 << shifts), cols] += gate.matrix[sub_out, sub_in]
    return full


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Product of the embedded instruction unitaries (first instruction rightmost)."""
    capacity.check("unitary", circuit.num_qubits)
    u = np.eye(1 << circuit.num_qubits, dtype=np.complex128)
    for instr in circuit.instructions:
        u = embed(instr.gate, instr.wires, circuit.num_qubits) @ u
    return u
