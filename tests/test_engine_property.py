"""Property test: the gate engine equals the brute-force unitary at any setting of its constants.

The constants are ``circuit.TILE``, ``BLOCK_BITS``, ``FOLD_WIRES`` and
``FOLD_BLOCK_BITS``; each is drawn over the values the engine accepts, wider
than its tuned default on both sides.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

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
    fold_block_bits=st.integers(0, 16),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_engine_matches_unitary_of(c, block_bits, fold_wires, fold_block_bits, seed, data):
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
        mp.setattr(circuit, "FOLD_BLOCK_BITS", fold_block_bits)
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
