import functools
import itertools
import sys
import tracemalloc
import types

import numpy as np
import pytest

from oracles import kron
from qsim import circuit as engine
from qsim import gates
from qsim.circuit import (
    BLOCK_BITS,
    Circuit,
    Instruction,
    apply,
    apply_density,
    embed,
    unitary,
    unitary_of,
)
from qsim.errors import (
    ArityError,
    CapacityError,
    DimensionMismatchError,
    DuplicateWireError,
    NotUnitaryError,
    WireOutOfRangeError,
)
from qsim.measure import measure_qubit
from qsim.numerics import is_unitary
from qsim.qstate import DensityMatrix, basis_state, inner_product, to_density, zero_state

SQRT2_INV = 1.0 / np.sqrt(2.0)
BELL = Circuit(2, [Instruction(gates.H, (0,)), Instruction(gates.CNOT, (0, 1))])
BELL_VECTOR = np.array([SQRT2_INV, 0.0, 0.0, SQRT2_INV])  # CNOT (H x I) e0 by hand


# Every public integer parameter of circuit, qstate, gates and measure_qubit:
# a call taking the integer, the error a non-integer raises, and what the
# call keeps of it.
INTEGER_PARAMETERS = {
    "Circuit.num_qubits": (Circuit, DimensionMismatchError, lambda c: c.num_qubits),
    "Instruction.wires": (lambda v: Instruction(gates.X, (v,)), WireOutOfRangeError, lambda i: i.wires[0]),
    "embed.wires": (lambda v: embed(gates.X, (v,), 2), WireOutOfRangeError, np.ndarray.tolist),
    "Gate.arity": (lambda v: gates.Gate("U", v, gates.X.matrix), ArityError, lambda g: g.arity),
    "basis_state.num_qubits": (lambda v: basis_state(v, 1), DimensionMismatchError, lambda s: s.num_qubits),
    "basis_state.index": (lambda v: basis_state(2, v), DimensionMismatchError, lambda s: s.amplitudes.tolist()),
    "zero_state.num_qubits": (zero_state, DimensionMismatchError, lambda s: s.num_qubits),
    "measure_qubit.qubit": (
        lambda v: measure_qubit(basis_state(2, 1), v, 0.5),
        WireOutOfRangeError,
        lambda r: r.outcome,
    ),
}


class TestIntegerParameters:
    @pytest.mark.parametrize("value", [2.5, 1.0, True, np.True_, "1"])
    @pytest.mark.parametrize("name", INTEGER_PARAMETERS)
    def test_non_integers_are_refused(self, name, value):
        call, error, _ = INTEGER_PARAMETERS[name]
        with pytest.raises(error):
            call(value)

    @pytest.mark.parametrize("name", INTEGER_PARAMETERS)
    def test_numpy_integers_are_kept_as_ints(self, name):
        call, _, kept = INTEGER_PARAMETERS[name]
        got, expected = kept(call(np.int64(1))), kept(call(1))
        assert got == expected
        assert type(got) is type(expected)


class TestConstruction:
    def test_instruction_arity(self):
        with pytest.raises(ArityError):
            Instruction(gates.CNOT, (0,))

    def test_instruction_duplicate_wires(self):
        with pytest.raises(DuplicateWireError):
            Instruction(gates.CNOT, (1, 1))

    def test_instruction_negative_wire(self):
        with pytest.raises(WireOutOfRangeError):
            Instruction(gates.X, (-1,))

    def test_circuit_wire_bounds(self):
        with pytest.raises(WireOutOfRangeError):
            Circuit(1, [Instruction(gates.X, (1,))])

    def test_gate_needs_a_qubit(self):
        # A 1x1 unitary of arity 0 made Circuit's wire check raise a raw ValueError on max(()).
        with pytest.raises(ArityError, match="at least 1"):
            gates.Gate("I0", 0, [[1]])

    def test_gate_of_a_huge_arity(self):
        # Comparing the shape with 2**arity ground for seconds, then ran out of memory.
        with pytest.raises(ArityError, match="got arity 1000000000000000000000000000000 "):
            gates.Gate("U", 10**30, [[1]])

    def test_circuit_needs_a_qubit(self):
        with pytest.raises(DimensionMismatchError):
            Circuit(0)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            BELL.num_qubits = 3

    def test_structural_equality(self):
        other = Circuit(2, [Instruction(gates.H, (0,)), Instruction(gates.CNOT, (0, 1))])
        assert BELL == other
        assert BELL != Circuit(2, [Instruction(gates.H, (0,))])


class TestApply:
    def test_bell_preparation(self):
        out = apply(BELL, zero_state(2))
        np.testing.assert_allclose(out.amplitudes, BELL_VECTOR, atol=1e-12)

    def test_empty_circuit_is_identity(self, rng, random_state):
        s = random_state(rng, 2)
        np.testing.assert_array_equal(apply(Circuit(2), s).amplitudes, s.amplitudes)

    def test_x_on_wire_one(self):
        # Qubit 0 is the most significant bit, so X on wire 1 sends |00> to |01>.
        out = apply(Circuit(2, [Instruction(gates.X, (1,))]), zero_state(2))
        np.testing.assert_allclose(out.amplitudes, basis_state(2, 1).amplitudes, atol=1e-15)

    def test_qubit_count_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(BELL, zero_state(3))

    def test_norm_preserved(self, rng, random_circuit, random_state):
        for _ in range(50):
            c = random_circuit(rng)
            s = random_state(rng, c.num_qubits)
            out = apply(c, s)
            assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10

    def test_matches_unitary_oracle(self, rng, random_circuit, random_state):
        """Gate engine against the brute-force matrix product."""
        for _ in range(100):
            c = random_circuit(rng)
            s = random_state(rng, c.num_qubits)
            expected = unitary_of(c) @ s.amplitudes
            np.testing.assert_allclose(apply(c, s).amplitudes, expected, atol=1e-10)

    def test_inner_product_preserved(self, rng, random_circuit, random_state):
        """Unitarity keeps overlaps fixed, so unknown states cannot be copied."""
        for _ in range(50):
            c = random_circuit(rng)
            a = random_state(rng, c.num_qubits)
            b = random_state(rng, c.num_qubits)
            before = abs(inner_product(a, b))
            after = abs(inner_product(apply(c, a), apply(c, b)))
            assert after == pytest.approx(before, abs=1e-10)


class TestApplyDensity:
    def test_bell_conjugation(self):
        rho = apply_density(BELL, to_density(zero_state(2)))
        expected = np.outer(BELL_VECTOR, BELL_VECTOR)
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_empty_circuit(self):
        rho = to_density(zero_state(2))
        np.testing.assert_array_equal(apply_density(Circuit(2), rho).matrix, rho.matrix)

    def test_hadamard_gives_coherent_projector(self):
        rho = apply_density(Circuit(1, [Instruction(gates.H, (0,))]), to_density(zero_state(1)))
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_matches_pure_state_route(self, rng, random_circuit, random_state):
        for _ in range(50):
            c = random_circuit(rng)
            s = random_state(rng, c.num_qubits)
            via_density = apply_density(c, to_density(s)).matrix
            via_vector = to_density(apply(c, s)).matrix
            np.testing.assert_allclose(via_density, via_vector, atol=1e-10)

    def test_qubit_count_mismatch(self):
        for rho in (to_density(zero_state(1)), zero_state(3)):
            with pytest.raises(DimensionMismatchError):
                apply_density(BELL, rho)

    def test_state_vector_over_the_cap_allocates_nothing(self, monkeypatch):
        n = 9
        psi = zero_state(n)
        monkeypatch.setenv("QSIM_MAX_QUBITS", str(n - 1))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                apply_density(Circuit(n), psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 4**n / 64

    def test_exact_for_rho_hermitian_only_to_roundoff(self, rng, random_circuit, random_state):
        # rho - rho† is about 1e-11, inside the 1e-10 validation tolerance. A
        # pass that treated rho as Hermitian would return U rho† U† instead.
        for _ in range(20):
            c = random_circuit(rng, max_qubits=4)
            d = 1 << c.num_qubits
            skew = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            pure = to_density(random_state(rng, c.num_qubits)).matrix
            rho = DensityMatrix(pure + 3e-12 * (skew - skew.conj().T))
            u = unitary_of(c)
            expected = u @ rho.matrix @ u.conj().T
            np.testing.assert_allclose(apply_density(c, rho).matrix, expected, rtol=0, atol=1e-14)

    def test_schedules_and_folds_once_per_call(self, monkeypatch, rng, random_state):
        # At 9 qubits both row passes take the same plan on 18 bits: X 0 and
        # CNOT 0-1 fold, H 1 runs alone, and S 1 and T 2 make a second fold.
        calls = {"_schedule": 0, "_fold": 0}
        for name in calls:
            def spy(*args, _name=name, _real=getattr(engine, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(engine, name, spy)
        steps = [(gates.X, (0,)), (gates.CNOT, (0, 1)), (gates.H, (1,)), (gates.S, (1,)), (gates.T, (2,))]
        c = Circuit(9, [Instruction(g, w) for g, w in steps])
        rho = to_density(random_state(rng, 9))
        u = unitary_of(c)
        np.testing.assert_allclose(apply_density(c, rho).matrix, u @ rho.matrix @ u.conj().T, rtol=0, atol=1e-12)
        assert calls == {"_schedule": 1, "_fold": 2}

    def test_peak_memory_is_two_matrices_and_a_block(self, rng, random_circuit, random_state):
        n = 9
        c = random_circuit(rng, num_qubits=n, max_instructions=24)
        tail = (Instruction(gates.H, (n - 1,)), Instruction(gates.CNOT, (0, n - 1)))
        c = Circuit(n, c.instructions + tail)
        rho = to_density(random_state(rng, n))
        tracemalloc.start()
        try:
            apply_density(c, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The copy of rho, the engine's tile (1/8 of the matrix at 9 qubits),
        # the adjoint's square scratch and the ufunc's fixed buffer: block
        # moves make no block-sized temporary, and the conjugate transpose
        # trades tiles in place.
        assert peak <= 1.25 * 16 * 4**n


class TestEmbed:
    def test_single_wire_identity_embedding(self):
        np.testing.assert_array_equal(embed(gates.X, [0], 1), gates.X.matrix)

    def test_reversed_cnot_truth_table(self):
        # Control on qubit 1, target on qubit 0: |01> -> |11>, |11> -> |01>.
        u = embed(gates.CNOT, [1, 0], 2)
        for src, dst in [(0b00, 0b00), (0b01, 0b11), (0b10, 0b10), (0b11, 0b01)]:
            col = np.zeros(4)
            col[src] = 1.0
            np.testing.assert_allclose(u @ col, np.eye(4)[dst], atol=1e-15)

    def test_identity_padding_structure(self):
        np.testing.assert_allclose(
            embed(gates.H, [1], 2), kron(np.eye(2), gates.H.matrix), atol=1e-15
        )

    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_leading_wires_reproduce_gate(self, label):
        gate = gates.standard_gate(label)
        np.testing.assert_array_equal(
            embed(gate, list(range(gate.arity)), gate.arity), gate.matrix
        )

    def test_wire_out_of_range(self):
        with pytest.raises(WireOutOfRangeError):
            embed(gates.X, [2], 2)

    def test_duplicate_wire(self):
        with pytest.raises(DuplicateWireError):
            embed(gates.CNOT, [0, 0], 2)


class TestUnitaryOf:
    def test_empty_single_qubit(self):
        np.testing.assert_array_equal(unitary_of(Circuit(1)), np.eye(2))

    def test_bell_matrix(self):
        expected = gates.CNOT.matrix @ kron(gates.H.matrix, np.eye(2))
        np.testing.assert_allclose(unitary_of(BELL), expected, atol=1e-12)

    def test_single_instruction(self):
        np.testing.assert_array_equal(
            unitary_of(Circuit(1, [Instruction(gates.X, (0,))])), gates.X.matrix
        )

    def test_capacity(self):
        with pytest.raises(CapacityError):
            unitary_of(Circuit(13))

    def test_is_unitary(self, rng, random_circuit):
        for _ in range(25):
            assert is_unitary(unitary_of(random_circuit(rng)), 1e-10)


class TestUnitary:
    """The engine's U @ I against the brute-force product of embedded gates."""

    def test_matches_oracle(self, rng, random_circuit):
        for _ in range(50):
            c = random_circuit(rng, max_qubits=5)
            np.testing.assert_allclose(unitary(c), unitary_of(c), rtol=0, atol=1e-12)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            unitary(Circuit(13))

    def test_peak_memory_is_one_matrix(self):
        # The engine runs on the identity in place: the identity itself and
        # the 512 KiB tile (1/32 of the matrix at 10 qubits).
        n = 10
        steps = [(gates.H, (0,)), (gates.H, (9,)), (gates.CNOT, (0, 9)), (gates.SWAP, (3, 8)), (gates.T, (5,))]
        c = Circuit(n, [Instruction(gate, w) for gate, w in steps])
        tracemalloc.start()
        try:
            unitary(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 4**n


def random_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestGateEngine:
    """The in-place engine against the brute-force ``embed``/``unitary_of`` oracle."""

    N = 5

    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_library_gate_on_every_wire(self, label, rng, random_state):
        gate = gates.standard_gate(label)
        s = random_state(rng, self.N)
        for wires in itertools.permutations(range(self.N), gate.arity):
            out = apply(Circuit(self.N, [Instruction(gate, wires)]), s)
            expected = embed(gate, wires, self.N) @ s.amplitudes
            np.testing.assert_allclose(out.amplitudes, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "make",
        [
            lambda rng: random_unitary(rng, 4),  # dense
            lambda rng: np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))),  # diagonal, d0 != 1
            lambda rng: np.diag([1j, -1, 1, np.exp(0.3j)])[[2, 0, 3, 1]],  # phase-permutation
            lambda rng: np.eye(8)[[1, 2, 0, 3, 4, 5, 7, 6]],  # a 3-cycle and a swap
            lambda rng: random_unitary(rng, 8),  # dense, three qubits
        ],
    )
    def test_user_gates(self, make, rng, random_state):
        matrix = make(rng)
        gate = gates.Gate("U", int(np.log2(len(matrix))), matrix)
        n = 4
        instrs = [Instruction(gates.H, (1,)), Instruction(gate, (3, 0, 2)[: gate.arity])]
        instrs += [Instruction(gates.CNOT, (2, 1)), Instruction(gate, (1, 3, 0)[: gate.arity])]
        c = Circuit(n, instrs)
        s = random_state(rng, n)
        u = unitary_of(c)
        np.testing.assert_allclose(apply(c, s).amplitudes, u @ s.amplitudes, atol=1e-12)
        rho = to_density(s)
        expected = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(apply_density(c, rho).matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [5, 6])
    @pytest.mark.parametrize("tile", [4, None])
    def test_dense_gate_on_every_wire(self, n, tile, monkeypatch, rng, random_state):
        # A dense gate on all n wires, from n = 5 on outside the trailing
        # block, has blocks of one entry: its output blocks and a scratch
        # block need a tile of two states.
        if tile is not None:
            monkeypatch.setattr(engine, "TILE", tile)
        gate = gates.Gate("U", n, random_unitary(rng, 1 << n))
        wires = tuple(int(w) for w in rng.permutation(n))
        c = Circuit(n, [Instruction(gates.H, (1,)), Instruction(gate, wires), Instruction(gates.X, (0,))])
        s = random_state(rng, n)
        u = unitary_of(c)
        np.testing.assert_allclose(apply(c, s).amplitudes, u @ s.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unitary(c), u, rtol=0, atol=1e-12)
        rho = to_density(s)
        expected = u @ rho.matrix @ u.conj().T
        np.testing.assert_allclose(apply_density(c, rho).matrix, expected, rtol=0, atol=1e-12)

    def test_gate_classes(self):
        dense = [label for label in gates.GATE_LABELS if gates.standard_gate(label).cycles is None]
        assert dense == ["H"]
        assert gates.CNOT.cycles == (((2, 1), (3, 1)),)
        assert gates.T.cycles == (((1, np.exp(1j * np.pi / 4)),),)
        assert gates.Gate("I", 1, np.eye(2)).cycles == ()

    @pytest.mark.parametrize(
        "gate, wires", [(gates.X, (10,)), (gates.SWAP, (2, 9)), (gates.CNOT, (12, 1))]
    )
    def test_block_moves_make_no_block_copy(self, gate, wires):
        # Permutations move interleaved blocks of one buffer, one piece at a
        # time; a move is one ufunc call, which proves the views disjoint and
        # copies through a fixed buffer of about 0.25 MiB. At 20 qubits that
        # and the 512 KiB tile are about 5% of a state, so the peak is the
        # input copy.
        n = 20
        c = Circuit(n, [Instruction(gate, wires)])
        s = zero_state(n)
        tracemalloc.start()
        try:
            apply(c, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 2**n

    def test_non_unitary_gate_rejected(self):
        with pytest.raises(NotUnitaryError):
            gates.Gate("twice", 1, 2 * np.eye(2))

    def test_inputs_untouched_and_outputs_read_only(self, rng, random_state):
        s = random_state(rng, 3)
        before = s.amplitudes.copy()
        c = Circuit(3, [Instruction(gates.H, (0,)), Instruction(gates.X, (2,)), Instruction(gates.T, (1,))])
        out = apply(c, s)
        np.testing.assert_array_equal(s.amplitudes, before)
        assert not out.amplitudes.flags.writeable
        rho = to_density(s)
        rho_before = rho.matrix.copy()
        rho_out = apply_density(c, rho)
        np.testing.assert_array_equal(rho.matrix, rho_before)
        assert not rho_out.matrix.flags.writeable
        assert (out.num_qubits, rho_out.num_qubits) == (3, 3)


class TestKernels:
    """The window kernel, the block moves and the block loop at one size.

    With N = 8, wires 4-7 are the trailing ``BLOCK_BITS`` bits and wires 0-3
    lie above them, so gates straddle the boundary. The state fits the
    default tile, so a run in either group of four wires is one window; with
    the tile cut to half the state, only the trailing group is, and a lone
    dense gate above it is a one-wire window or a dense block. ``check``
    runs both plans against ``unitary_of`` at 1e-12.
    """

    N = 8

    def check(self, c, s):
        expected = unitary_of(c) @ s.amplitudes
        np.testing.assert_allclose(apply(c, s).amplitudes, expected, rtol=0, atol=1e-12)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "TILE", 1 << (self.N - 1))
            np.testing.assert_allclose(apply(c, s).amplitudes, expected, rtol=0, atol=1e-12)

    def test_size_reaches_every_kernel(self):
        assert 0 < self.N - BLOCK_BITS < self.N

    @pytest.mark.parametrize("label", gates.GATE_LABELS)
    def test_library_gate_on_every_wire_and_pair(self, label, rng, random_state):
        gate = gates.standard_gate(label)
        s = random_state(rng, self.N)
        for wires in itertools.permutations(range(self.N), gate.arity):
            self.check(Circuit(self.N, [Instruction(gate, wires)]), s)

    @pytest.mark.parametrize(
        "wires",
        [(0,), (3,), (4,), (7,)]
        + [(3, 4), (4, 3), (0, 7), (7, 2), (5, 6), (1, 2)]
        + [(3, 4, 5), (6, 2, 4), (0, 7, 3), (5, 7, 6), (2, 0, 1)],
    )
    def test_user_dense_gates_on_both_sides_of_the_boundary(self, wires, rng, random_state):
        gate = gates.Gate("U", len(wires), random_unitary(rng, 1 << len(wires)))
        instrs = [Instruction(gates.H, (6,)), Instruction(gate, wires), Instruction(gates.Y, (4,))]
        self.check(Circuit(self.N, instrs), random_state(rng, self.N))

    def test_runs_split_at_instructions_outside_the_block(self, monkeypatch, rng, random_state):
        runs = []
        fold = engine._fold

        def spy(run, wires, *spread):
            run = list(run)
            runs.append([instr.wires for instr in run])
            return fold(run, wires, *spread)

        monkeypatch.setattr(engine, "_fold", spy)
        monkeypatch.setattr(engine, "TILE", 1 << (self.N - 1))
        # With the state larger than the tile, wires 0-3 lie above the only
        # window, the trailing block. X 2, H 0 and CNOT 3-5 share no wire
        # with the block's run, so later gates in the block move back past
        # them and join it; T 5 shares wire 5 with CNOT 3-5, which splits it.
        steps = [
            (gates.H, (5,)),
            (gates.CNOT, (6, 7)),
            (gates.S, (4,)),
            (gates.X, (2,)),
            (gates.Y, (7,)),
            (gates.H, (0,)),
            (gates.T, (6,)),
            (gates.SWAP, (4, 7)),
            (gates.CNOT, (3, 5)),
            (gates.H, (4,)),
            (gates.T, (5,)),
        ]
        c = Circuit(self.N, [Instruction(gate, w) for gate, w in steps])
        expected = unitary_of(c)
        s = random_state(rng, self.N)
        np.testing.assert_allclose(apply(c, s).amplitudes, expected @ s.amplitudes, rtol=0, atol=1e-12)
        assert runs == [[(5,), (6, 7), (4,), (7,), (6,), (4, 7), (4,)], [(5,)]]

    def test_diagonal_runs_multiply_in_place(self, monkeypatch, rng, random_state):
        # T Z S T folds to a diagonal, and so does X S X, a product of
        # non-diagonal gates: neither runs a window, so a matmul is refused
        # once the plan is made (its fold may use one).
        steps = [(gates.T, 7), (gates.Z, 4), (gates.S, 6), (gates.T, 5)]
        diagonal = Circuit(self.N, [Instruction(gate, (w,)) for gate, w in steps])
        xsx = Circuit(self.N, [Instruction(gate, (6,)) for gate in (gates.X, gates.S, gates.X)])
        s = random_state(rng, self.N)

        def refuse(*args, **kwargs):
            raise AssertionError("a diagonal fold ran a window")

        for c in (diagonal, xsx):
            buf = s.amplitudes.copy()
            plan = engine._plan(c, self.N)
            with monkeypatch.context() as patch:
                patch.setattr(np, "matmul", refuse)
                engine._run(plan, buf)
            np.testing.assert_allclose(buf, unitary_of(c) @ s.amplitudes, rtol=0, atol=1e-12)

    def test_dense_one_qubit_gates_never_slice_blocks(self, monkeypatch, rng, random_state):
        def refuse(*args):
            raise AssertionError("a dense 1-qubit gate reached the block loop")

        monkeypatch.setattr(engine, "_blocks", refuse)
        instrs = [Instruction(gates.H, (w,)) for w in (0, 3, 5, 1, 7, 2, 4, 6)]
        self.check(Circuit(self.N, instrs), random_state(rng, self.N))

    @staticmethod
    def every_kernel(rng, n):
        """Circuits on ``n`` qubits, one per kernel, with user dense gates of 1-3 qubits."""
        def user(k):
            return gates.Gate("U", k, random_unitary(rng, 1 << k))

        steps = {
            "fold": [(gates.H, (n - 3,)), (gates.CNOT, (n - 2, n - 1)), (gates.H, (n - 4,)), (gates.T, (n - 1,))],
            "broadcast": [(gates.H, (w,)) for w in range(n - BLOCK_BITS)] + [(user(1), (0,)), (user(1), (n - 5,))],
            # X 0 comes after the SWAP on its wire, so it stays a lone one-wire move when the rest folds.
            "monomial": [(gates.CNOT, (3, 1)), (gates.SWAP, (0, n - 1)), (gates.Y, (1,)), (gates.S, (2,)), (gates.X, (0,))],
            "dense2": [(user(2), (1, 3)), (user(2), (n - 3, 0)), (user(2), (2, n - 2))],
            "dense3": [(user(3), (0, 2, 1)), (user(3), (3, n - 1, n - 4))],
        }
        return {name: Circuit(n, [Instruction(g, w) for g, w in run]) for name, run in steps.items()}

    @pytest.mark.parametrize("tile", [4, 16, 64])
    def test_every_kernel_in_pieces(self, tile, monkeypatch, rng, random_state):
        # One plan gives the same bits however it is cut. Each circuit's
        # plan is made once at the default tile and once at half the state,
        # and run whole and at a tile of 16 (4 is raised to a row of the
        # trailing window) or 64 entries: the trailing window into rows,
        # one-wire windows along the stride (wires 0-1) and along outer
        # (wires 2-3 at 64), monomial cycles and dense 2- and 3-qubit
        # blocks. A window of more wires is cut along outer only.
        s = random_state(rng, self.N)
        for name, c in self.every_kernel(rng, self.N).items():
            counts = []
            pieces = engine._pieces

            def spy(shape, limit):
                cut = pieces(shape, limit)
                counts.append(len(cut))
                return cut

            for plan_tile in (engine.TILE, 1 << (self.N - 1)):
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "TILE", plan_tile)
                    plan = engine._plan(c, self.N)
                whole = engine._run(plan, s.amplitudes.copy())
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "TILE", tile)
                    patch.setattr(engine, "_pieces", spy)
                    out = engine._run(plan, s.amplitudes.copy())
                np.testing.assert_allclose(out, unitary_of(c) @ s.amplitudes, rtol=0, atol=1e-12)
                np.testing.assert_array_equal(out, whole)
            assert max(counts) > 1, name

    @pytest.mark.parametrize("tile", [4, 16, 64])
    def test_unitary_and_density_in_pieces(self, tile, monkeypatch, rng, random_state):
        # At 6 qubits the matrices hold 4096 entries: the row passes run in
        # pieces, and apply_density's adjoint in square tiles of edge 2, 4
        # and 8, far smaller than the 64 x 64 matrix. Each plan is made
        # once, at the default tile, and run at the patched one.
        n = 6
        c = Circuit(n, [instr for run in self.every_kernel(rng, n).values() for instr in run.instructions])
        rho = to_density(random_state(rng, n))
        monkeypatch.setattr(engine, "_plan", functools.cache(engine._plan))
        whole = unitary(c), apply_density(c, rho).matrix
        with monkeypatch.context() as patch:
            patch.setattr(engine, "TILE", tile)
            u, out = unitary(c), apply_density(c, rho).matrix
        expected = unitary_of(c)
        np.testing.assert_allclose(u, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out, expected @ rho.matrix @ expected.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(u, whole[0])
        np.testing.assert_array_equal(out, whole[1])

    def test_large_state_in_pieces_matches_one_piece(self, monkeypatch, rng, random_state):
        # At 18 qubits the default tile cuts every kernel; the same plan run
        # with a tile as large as the state runs each in one piece, with the
        # same result to the bit.
        n = 18
        c = Circuit(n, [instr for run in self.every_kernel(rng, n).values() for instr in run.instructions])
        s = random_state(rng, n)
        plan = engine._plan(c, n)
        out = engine._run(plan, s.amplitudes.copy())
        monkeypatch.setattr(engine, "TILE", 1 << n)
        np.testing.assert_array_equal(out, engine._run(plan, s.amplitudes.copy()))

    @pytest.mark.parametrize("n", range(1, BLOCK_BITS + 1))
    def test_circuits_no_wider_than_the_block(self, n, rng, random_circuit, random_state):
        for _ in range(20):
            c = random_circuit(rng, num_qubits=n)
            if n >= 2:
                dense = gates.Gate("U", 2, random_unitary(rng, 4))
                wires = tuple(int(w) for w in rng.choice(n, 2, replace=False))
                c = Circuit(n, c.instructions + (Instruction(dense, wires),))
            s = random_state(rng, n)
            self.check(c, s)
            u = unitary_of(c)
            np.testing.assert_allclose(unitary(c), u, rtol=0, atol=1e-12)
            rho = to_density(s)
            expected = u @ rho.matrix @ u.conj().T
            np.testing.assert_allclose(apply_density(c, rho).matrix, expected, rtol=0, atol=1e-12)

    def test_peak_memory_is_two_states(self, rng):
        # Every kernel works in place through one tile of ``TILE`` entries:
        # the copy of the input is the only state-sized allocation. At 20
        # qubits the tile is 1/32 of a state (at 16 it would be half of one),
        # and wires 16-19 form the trailing block. The two user gates are
        # dense passes, whose gather lives in the tile too.
        n = 20
        steps = [(gates.H, (0,)), (gates.H, (8,)), (gates.S, (16,)), (gates.Y, (17,)), (gates.H, (19,))]
        steps += [(gates.Gate("U", 2, random_unitary(rng, 4)), (3, 17))]
        steps += [(gates.Gate("U", 3, random_unitary(rng, 8)), (16, 2, 9))]
        c = Circuit(n, [Instruction(gate, ws) for gate, ws in steps])
        assert sum(kernel == "dense" for kernel, _, _ in engine._plan(c, n)) == 2
        s = zero_state(n)
        tracemalloc.start()
        try:
            apply(c, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 2**n

    @pytest.mark.parametrize("n", [14, 16, 17])
    def test_peak_memory_is_a_state_and_a_tile(self, n):
        # Where the tile is a large share of the state, the peak is the copy
        # of the input plus the tile: two states at 14 qubits, where the tile
        # is as large as the state, 1.5 at 16 and 1.25 at 17.
        steps = [(gates.H, 0), (gates.H, n // 2), (gates.S, n - 4), (gates.Y, n - 3), (gates.H, n - 1)]
        c = Circuit(n, [Instruction(gate, (w,)) for gate, w in steps])
        s = zero_state(n)
        tracemalloc.start()
        try:
            apply(c, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (1.1 + min(engine.TILE, 2**n) / 2**n) * 16 * 2**n


class TestMonomialFold:
    """The scheduler and the monomial fold against ``unitary_of`` at 1e-12.

    At N = 8 with the trailing block cut to one bit, wires 0-6 lie above the
    block and a fold may span all ``FOLD_WIRES`` of them; at full size
    ``BLOCK_BITS`` keeps its value. The tile is cut below the 8-qubit state,
    so that every plan is made by the rule for states larger than the tile,
    the one that folds.
    """

    N = 8

    @pytest.fixture
    def small(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_BITS", 1)
        monkeypatch.setattr(engine, "TILE", 1 << (self.N - 1))

    @pytest.fixture
    def moves(self, monkeypatch):
        """The wires of every block move on the operand, leaving out ``_fold``'s moves on its identity."""
        moves, folding = [], []
        fold, move = engine._fold, engine._move

        def fold_spy(run, wires, *spread):
            folding.append(wires)
            try:
                return fold(run, wires, *spread)
            finally:
                folding.pop()

        def move_spy(buf, tile, cycles, wires):
            if not folding:
                moves.append(wires)
            move(buf, tile, cycles, wires)

        monkeypatch.setattr(engine, "_fold", fold_spy)
        monkeypatch.setattr(engine, "_move", move_spy)
        return moves

    def schedule(self, c):
        items = engine._schedule(c.instructions, self.N - 1, engine.FOLD_WIRES)
        return [(kind, sorted(ws), [instr.wires for instr in run]) for kind, ws, run in items]

    def check(self, c, s):
        u = unitary_of(c)
        np.testing.assert_allclose(apply(c, s).amplitudes, u @ s.amplitudes, rtol=0, atol=1e-12)
        np.testing.assert_allclose(unitary(c), u, rtol=0, atol=1e-12)
        rho = to_density(s)
        np.testing.assert_allclose(apply_density(c, rho).matrix, u @ rho.matrix @ u.conj().T, rtol=0, atol=1e-12)

    @staticmethod
    def run_on(rng, wires, diagonal):
        """Monomial gates covering ``wires``: library gates, a user 2-qubit gate and, from 3 wires, a user 3-qubit one."""
        if diagonal:
            one = [gates.Z, gates.S, gates.T]
            two = gates.Gate("D", 2, np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 4))))
            three = gates.Gate("D3", 3, np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, 8))))
        else:
            one = [gates.X, gates.Y, gates.T]
            two = gates.Gate("P", 2, np.diag([1j, -1, 1, np.exp(0.3j)])[[2, 0, 3, 1]])
            three = gates.Gate("C3", 3, np.eye(8)[[1, 2, 0, 3, 4, 5, 7, 6]])
        steps = [(one[k % 3], (w,)) for k, w in enumerate(wires)] + [(one[2], wires[:1])]
        if len(wires) >= 2:
            steps += [(two, (wires[-1], wires[0]))]
            steps += [] if diagonal else [(gates.CNOT, (wires[0], wires[-1])), (gates.SWAP, wires[:2])]
        if len(wires) >= 3:
            steps += [(three, (wires[1], wires[-1], wires[0]))]
        order = rng.permutation(len(steps))
        return [Instruction(*steps[k]) for k in order]

    @pytest.mark.parametrize("m", range(1, engine.FOLD_WIRES + 1))
    @pytest.mark.parametrize("spread", [False, True])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_fold_of_every_width(self, m, spread, diagonal, small, moves, rng, random_state):
        wires = tuple(sorted((0, 6, 2, 4, 1, 5)[:m])) if spread else tuple(range(7 - m, 7))
        c = Circuit(self.N, self.run_on(rng, wires, diagonal))
        assert self.schedule(c) == [("fold", list(wires), [instr.wires for instr in c.instructions])]
        self.check(c, random_state(rng, self.N))
        # A diagonal fold is one broadcast multiply, any other one call of
        # the block moves per row pass: apply, unitary, and apply_density's two.
        assert moves == ([] if diagonal else [list(wires)] * 4)

    @pytest.mark.parametrize("dense", [False, True])
    def test_fold_is_the_run_on_its_own_wires(self, dense, rng):
        # Non-adjacent wires, gates given them out of order: the fold is the
        # run's unitary with wire w renamed wires.index(w). A monomial run is
        # exact. Its one inexact phase is T's: unitary_of multiplies through
        # BLAS, which may round a product of two inexact phases an ulp apart
        # from numpy. With dense gates, as a trailing run may hold, the fold
        # sums, so it is within 1e-12.
        wires = [1, 4, 6, 9]
        phase_perm = gates.Gate("P", 2, np.diag([1j, -1, 1, -1j])[[2, 0, 3, 1]])
        cycle = gates.Gate("C3", 3, np.eye(8)[[1, 2, 0, 3, 4, 5, 7, 6]])
        steps = [(gates.CNOT, (9, 1)), (gates.T, (6,)), (phase_perm, (9, 4)), (gates.SWAP, (6, 1))]
        steps += [(cycle, (6, 1, 9)), (gates.Y, (4,)), (gates.S, (9,)), (gates.CNOT, (4, 6))]
        if dense:
            steps[2:2] = [(gates.H, (4,)), (gates.Gate("U", 2, random_unitary(rng, 4)), (9, 1))]
        run = [Instruction(g, w) for g, w in steps]
        expected = unitary_of(Circuit(len(wires), [Instruction(g, [wires.index(w) for w in ws]) for g, ws in steps]))
        folded = engine._fold(run, wires)
        if dense:
            np.testing.assert_allclose(folded, expected, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(folded, expected)

    def test_permutations_folding_to_a_diagonal_multiply(self, small, moves, rng, random_state):
        c = Circuit(self.N, [Instruction(g, w) for g, w in [(gates.X, (3,)), (gates.CNOT, (3, 0)), (gates.S, (0,)), (gates.CNOT, (3, 0)), (gates.X, (3,))]])
        assert self.schedule(c) == [("fold", [0, 3], [(3,), (3, 0), (0,), (3, 0), (3,)])]
        self.check(c, random_state(rng, self.N))
        assert moves == [], "a diagonal fold ran block moves"

    def test_gate_moves_back_past_disjoint_gates(self, small, rng, random_state):
        user = gates.Gate("U", 2, random_unitary(rng, 4))
        steps = [(gates.X, (0,)), (gates.H, (3,)), (user, (4, 5)), (gates.CNOT, (0, 1)), (gates.T, (7,)), (gates.Y, (1,)), (gates.S, (7,))]
        c = Circuit(self.N, [Instruction(g, w) for g, w in steps])
        assert self.schedule(c) == [
            ("fold", [0, 1], [(0,), (0, 1), (1,)]),
            (None, [3], [(3,)]),
            (None, [4, 5], [(4, 5)]),
            (7, [7], [(7,), (7,)]),
        ]
        self.check(c, random_state(rng, self.N))

    def test_shared_wire_splits_a_run(self, small, rng, random_state):
        # Y 6 finds the first fold full and opens a second. T 1 shares wire 1
        # with H 1, so it opens a third, which S 6 joins as the latest item
        # it fits. CNOT 6-7 crosses the block edge and splits the run on 6.
        steps = [(gates.X, (0,)), (gates.CNOT, (0, 1))] + [(gates.X, (w,)) for w in (2, 3, 4, 5)]
        steps += [(gates.Y, (6,)), (gates.H, (1,)), (gates.T, (1,)), (gates.S, (6,)), (gates.CNOT, (6, 7)), (gates.Z, (6,))]
        c = Circuit(self.N, [Instruction(g, w) for g, w in steps])
        assert self.schedule(c) == [
            ("fold", [0, 1, 2, 3, 4, 5], [(0,), (0, 1), (2,), (3,), (4,), (5,)]),
            ("fold", [6], [(6,)]),
            (None, [1], [(1,)]),
            ("fold", [1, 6], [(1,), (6,)]),
            (None, [6, 7], [(6, 7)]),
            ("fold", [6], [(6,)]),
        ]
        self.check(c, random_state(rng, self.N))

    @staticmethod
    def layout(n, copies, key):
        """Each library gate ``copies`` times, on wires drawn from the stream ``key``."""
        rng = np.random.default_rng(key)
        return [
            Instruction(gates.standard_gate(label), tuple(int(w) for w in rng.choice(n, gates.standard_gate(label).arity, replace=False)))
            for label in ("x", "y", "z", "s", "t", "h", "swap", "cnot")
            for _ in range(copies)
        ]

    def benchmark_circuits(self, n, copies, stream, seed=1):
        """A benchmark workload's circuits: its layout in seeded orders."""
        layout = self.layout(n, copies, stream)
        orders = np.random.default_rng([seed, stream])
        return [Circuit(n, [layout[k] for k in orders.permutation(len(layout))]) for _ in range(6)]

    def shots_circuits(self, seed=1):
        """The shots workload's circuits: a Hadamard on every wire, then 24 gates in seeded orders."""
        orders, circuits = np.random.default_rng([seed, 2]), []
        for n in (12, 13, 14, 12, 13, 14, 13):
            layout = self.layout(n, 3, [2, n])
            hadamards = [Instruction(gates.H, (w,)) for w in range(n)]
            circuits.append(Circuit(n, hadamards + [layout[k] for k in orders.permutation(len(layout))]))
            orders.integers(0, 2**63)  # the run's seed
        return circuits

    @staticmethod
    def one_by_one(c, buf):
        """``buf`` after each gate of ``c`` as its own pass."""
        return engine._run([engine._lone(instr.gate, instr.wires) for instr in c.instructions], buf)

    def test_benchmark_circuits_make_pinned_pass_counts(self, rng, random_state):
        # The seed-1 circuits of the statevector workload (20 qubits, 16
        # gates) and the row passes of the density workload's (9 qubits, 24
        # gates), as first scheduled.
        s = random_state(rng, 20)
        statevector = self.benchmark_circuits(20, copies=2, stream=1)
        assert [len(engine._plan(c, 20)) for c in statevector] == [6, 6, 7, 7, 7, 7]
        for c in statevector:
            np.testing.assert_allclose(apply(c, s).amplitudes, self.one_by_one(c, s.amplitudes.copy()), rtol=0, atol=1e-12)
        rho = to_density(random_state(rng, 9))
        density = self.benchmark_circuits(9, copies=3, stream=3)
        assert [len(engine._plan(c, 18)) for c in density] == [7, 6, 7, 6, 6, 6]
        for c in density:
            buf = rho.matrix.copy()
            for _ in range(2):
                buf = self.one_by_one(c, buf)
                engine._adjoint(buf)
            np.testing.assert_allclose(apply_density(c, rho).matrix, buf, rtol=0, atol=1e-12)

    def test_shots_circuits_make_pinned_pass_counts(self):
        # The seed-1 circuits of the shots workload (12-14 qubits, 36-38
        # gates) fit the tile, so a run in any group of four wires is one
        # window: 13-14 passes each, where one window, the trailing one,
        # left 20-31.
        shots = self.shots_circuits()
        assert [len(engine._plan(c, c.num_qubits)) for c in shots] == [13, 12, 13, 13, 13, 13, 14]
        for c in shots:
            zero = zero_state(c.num_qubits).amplitudes
            np.testing.assert_allclose(apply(c, zero_state(c.num_qubits)).amplitudes, self.one_by_one(c, zero.copy()), rtol=0, atol=1e-12)

    def test_below_the_size_threshold_gates_run_one_by_one(self, rng, random_state):
        # A 12-qubit state fits the tile, so no run folds: each monomial gate
        # across two groups is its own pass, bit for bit, even where a fold
        # would hold a pair on the same wires.
        n = 12
        phase_perm = gates.Gate("P", 2, np.diag([1j, -1, 1, np.exp(0.3j)])[[2, 0, 3, 1]])
        steps = [(gates.CNOT, (2, 5)), (gates.SWAP, (5, 2)), (gates.CNOT, (3, 4)), (phase_perm, (7, 1)), (gates.SWAP, (0, 9)), (phase_perm, (6, 2))]
        c = Circuit(n, [Instruction(g, w) for g, w in steps])
        assert [kernel for kernel, _, _ in engine._plan(c, n)] == ["move"] * len(steps)
        s = random_state(rng, n)
        assert np.array_equal(apply(c, s).amplitudes, self.one_by_one(c, s.amplitudes.copy()))

    @pytest.mark.parametrize("count", [1000, 4000])
    def test_schedule_work_per_gate_does_not_grow_with_length(self, count):
        # Line events run in _schedule and the comprehensions it defines, per
        # gate, for one-qubit library gates on random wires at 24 qubits: the
        # trailing window gathers gates from the whole circuit, so a walk back
        # through the items would grow with it (about 60 events a gate at
        # 1,000 gates and 230 at 4,000); the indexes keep it near 20.
        rng = np.random.default_rng(count)
        one = [g for g in gates.LIBRARY.values() if g.arity == 1]
        instrs = [Instruction(one[k], (int(w),)) for k, w in zip(rng.integers(len(one), size=count), rng.integers(24, size=count))]
        code = engine._schedule.__code__
        codes = {code} | {const for const in code.co_consts if isinstance(const, types.CodeType)}
        events = 0

        def local(frame, event, arg):
            nonlocal events
            events += event == "line"
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
        try:
            engine._schedule(instrs, 20, engine.FOLD_WIRES)
        finally:
            sys.settrace(previous)
        assert events / count < 25

    def test_fold_works_in_place(self):
        n = 20
        steps = [(gates.X, (0,)), (gates.CNOT, (3, 9)), (gates.Y, (15,)), (gates.SWAP, (0, 12)), (gates.T, (9,)), (gates.X, (6,))]
        c = Circuit(n, [Instruction(g, w) for g, w in steps])
        assert len(engine._schedule(c.instructions, n - BLOCK_BITS, engine.FOLD_WIRES)) == 1
        s = zero_state(n)
        tracemalloc.start()
        try:
            apply(c, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 2**n
