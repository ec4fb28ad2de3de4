"""Property tests: the gate engine equals the brute-force unitary at any setting of its constants.

The constants are ``circuit.TILE``, ``BLOCK_BITS`` and ``FOLD_WIRES``; each
is drawn over the values the engine accepts, wider than its tuned default on
both sides. The scheduler's items equal those of the walk back in
``oracles.backward_schedule`` on any circuit, group and fold width, and a
fold equals its run's brute-force unitary on any wires.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from oracles import backward_schedule  # noqa: E402
from qsim import circuit, gates  # noqa: E402
from qsim.qstate import normalize, to_density  # noqa: E402

KERNELS = {"scale", "move", "window", "dense"}


def _dense_gate(arity, seed):
    """A random dense unitary on ``arity`` qubits: the Q of a complex Gaussian's QR."""
    rng = np.random.default_rng(seed)
    dim = 1 << arity
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return gates.Gate(f"U{arity}", arity, q)


@st.composite
def circuits(draw):
    """1-8 qubits of library gates and random dense 1-3-qubit user gates."""
    n = draw(st.integers(1, 8))
    library = [g for g in gates.LIBRARY.values() if g.arity <= n]
    instructions = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            gate = draw(st.sampled_from(library))
        else:
            gate = _dense_gate(draw(st.integers(1, min(3, n))), draw(st.integers(0, 2**32 - 1)))
        wires = draw(st.permutations(range(n)))[: gate.arity]
        instructions.append(circuit.Instruction(gate, wires))
    return circuit.Circuit(n, instructions)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    c=circuits(),
    block_bits=st.integers(0, 6),
    fold_wires=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_engine_matches_unitary_of(c, block_bits, fold_wires, seed, data):
    n = c.num_qubits
    # Any power of two is a valid tile. The floor keeps a pass on 2n bits to
    # at most 256 pieces, so the smallest tiles are drawn on small circuits.
    tile_bits = data.draw(st.integers(max(0, 2 * n - 8), 16), label="tile_bits")
    u = circuit.unitary_of(c)
    rng = np.random.default_rng(seed)
    state = normalize(rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
    rho = to_density(state)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit, "TILE", 1 << tile_bits)
        mp.setattr(circuit, "BLOCK_BITS", block_bits)
        mp.setattr(circuit, "FOLD_WIRES", fold_wires)
        applied = circuit.apply(c, state).amplitudes
        conjugated = circuit.apply_density(c, rho).matrix
        from_state = circuit.apply_density(c, state).matrix
        engine_u = circuit.unitary(c)
        plans = [circuit._plan(c, n), circuit._plan(c, 2 * n)]
    np.testing.assert_allclose(applied, u @ state.amplitudes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(conjugated, u @ rho.matrix @ u.conj().T, rtol=0, atol=1e-12)
    assert np.array_equal(from_state, conjugated)
    np.testing.assert_allclose(engine_u, u, rtol=0, atol=1e-12)
    for plan in plans:
        assert len(plan) <= len(c.instructions)
        assert {kernel for kernel, _, _ in plan} <= KERNELS


@st.composite
def instructions_on(draw, wires, count):
    """Up to ``count`` instructions on ``wires``, of library gates and 1-3-qubit dense or monomial user gates."""
    library = [g for g in gates.LIBRARY.values() if g.arity <= len(wires)]
    instructions = []
    for _ in range(draw(st.integers(0, count))):
        arity = draw(st.integers(1, min(3, len(wires))))
        pick = draw(st.sampled_from(["library", "dense", "monomial"]))
        if pick == "library":
            gate = draw(st.sampled_from(library))
        elif pick == "dense":
            gate = _dense_gate(arity, draw(st.integers(0, 2**32 - 1)))
        else:
            dim = 1 << arity
            phases = np.exp(1j * np.array(draw(st.lists(st.floats(0, 2 * np.pi), min_size=dim, max_size=dim))))
            gate = gates.Gate(f"P{arity}", arity, np.diag(phases)[list(draw(st.permutations(range(dim))))])
        instructions.append(circuit.Instruction(gate, draw(st.permutations(wires))[: gate.arity]))
    return instructions


@st.composite
def schedule_inputs(draw):
    """Instructions on 1-24 wires and a ``low``."""
    n = draw(st.integers(1, 24))
    return draw(instructions_on(range(n), 40)), draw(st.integers(0, n))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(inputs=schedule_inputs(), width=st.integers(0, 8), spread=st.booleans())
def test_schedule_matches_the_walk_back(inputs, width, spread):
    # The same kinds, wire sets and instruction objects, run for run.
    instructions, low = inputs
    items = circuit._schedule(instructions, low, width, spread)
    expected = backward_schedule(instructions, low, width, spread)
    assert [(kind, wires) for kind, wires, _ in items] == [(kind, wires) for kind, wires, _ in expected]
    for (_, _, run), (_, _, walked) in zip(items, expected):
        assert len(run) == len(walked) and all(a is b for a, b in zip(run, walked))


@st.composite
def fold_runs(draw):
    """A run on 1-6 sorted wires out of 24."""
    wires = sorted(draw(st.sets(st.integers(0, 23), min_size=1, max_size=6)))
    return draw(instructions_on(wires, 12)), wires


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(inputs=fold_runs())
def test_fold_matches_unitary_of(inputs):
    # The run's brute-force unitary with wire w renamed wires.index(w). A
    # monomial run keeps its exact zero pattern: _plan counts nonzeros to
    # tell a "scale" pass from a "move".
    run, wires = inputs
    local = [circuit.Instruction(instr.gate, [wires.index(w) for w in instr.wires]) for instr in run]
    expected = circuit.unitary_of(circuit.Circuit(len(wires), local))
    folded = circuit._fold(run, wires)
    np.testing.assert_allclose(folded, expected, rtol=0, atol=1e-12)
    if all(instr.gate.cycles is not None for instr in run):
        assert np.array_equal(folded != 0, expected != 0)
