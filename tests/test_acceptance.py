"""End-to-end acceptance suite.

Each test pins one release criterion at its stated tolerance and prints a
PASS line when it holds; run with ``pytest -v -s tests/test_acceptance.py``
to see the per-criterion report alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from conftest import make_random_circuit, make_random_state
from oracles import apply_two_qubit_truth_table
from qsim import gates, qcf
from qsim.algorithms import (
    GroverSpec,
    grover_optimal_iterations,
    grover_run,
    grover_success_closed_form,
    grover_success_trajectory,
)
from qsim.circuit import Circuit, Instruction, apply, apply_density, unitary_of
from qsim.cli import main
from qsim.entangle import Bipartition, entanglement_entropy
from qsim.evolve import Hamiltonian, evolve
from qsim.measure import probabilities, sample
from qsim.numerics import eig_hermitian, is_unitary
from qsim.observables import Observable, robertson_check
from qsim.qstate import from_amplitudes, from_ensemble, inner_product, to_density, zero_state

SQRT2_INV = 1.0 / np.sqrt(2.0)
BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"
BELL_SEED = 7


def report(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {name}")


# Listed basis-ket behavior of every library gate; the S row follows its
# matrix (S|1> = i|1>), the documented resolution of the source's
# inconsistent application column.
SINGLE_QUBIT_ACTIONS = {
    "X": {"0": [0, 1], "1": [1, 0]},
    "Y": {"0": [0, 1j], "1": [-1j, 0]},
    "Z": {"0": [1, 0], "1": [0, -1]},
    "S": {"0": [1, 0], "1": [0, 1j]},
    "T": {"0": [1, 0], "1": [0, np.exp(1j * np.pi / 4)]},
    "H": {"0": [SQRT2_INV, SQRT2_INV], "1": [SQRT2_INV, -SQRT2_INV]},
}
TWO_QUBIT_ACTIONS = {
    "SWAP": {"00": "00", "01": "10", "10": "01", "11": "11"},
    "CNOT": {"00": "00", "01": "01", "10": "11", "11": "10"},
}


def test_criterion_1_gate_truth_tables():
    for label, cases in SINGLE_QUBIT_ACTIONS.items():
        gate = gates.standard_gate(label)
        for ket, expected in cases.items():
            basis = np.zeros(2, dtype=complex)
            basis[int(ket, 2)] = 1.0
            out = gate.matrix @ basis
            assert np.max(np.abs(out - np.asarray(expected, dtype=complex))) <= 1e-12, (
                f"{label}|{ket}>"
            )
    for label, cases in TWO_QUBIT_ACTIONS.items():
        gate = gates.standard_gate(label)
        for ket, expected in cases.items():
            out = apply_two_qubit_truth_table(gate, ket).amplitudes
            target = np.zeros(4, dtype=complex)
            target[int(expected, 2)] = 1.0
            assert np.max(np.abs(out - target)) <= 1e-12, f"{label}|{ket}>"
    report(1, "all eight library gates reproduce their basis-ket tables at 1e-12")


def test_criterion_2_superposition_probabilities():
    state = from_amplitudes([SQRT2_INV, SQRT2_INV])
    probs = probabilities(state).probabilities
    assert np.max(np.abs(probs - np.array([0.5, 0.5]))) <= 1e-12
    report(2, "equal-superposition state measures 50/50 at 1e-12")


def test_criterion_3_pure_state_density():
    state = from_amplitudes([SQRT2_INV, SQRT2_INV])
    rho = to_density(state).matrix
    assert np.max(np.abs(rho - np.full((2, 2), 0.5))) <= 1e-12
    report(3, "equal-superposition projector equals [[.5,.5],[.5,.5]] at 1e-12")


def test_criterion_4_mixed_ensemble_density():
    rho = from_ensemble(
        [(0.5, from_amplitudes([1, 0])), (0.5, from_amplitudes([0, 1]))]
    ).matrix
    assert np.max(np.abs(rho - np.diag([0.5, 0.5]))) <= 1e-12
    assert rho[0, 1] == 0 and rho[1, 0] == 0
    report(4, "50/50 ensemble builds diag(0.5, 0.5) with zero off-diagonals")


def test_criterion_5_bell_pipeline(tmp_path, capsys):
    circuit = qcf.parse(BELL_TEXT)
    hist = sample(circuit, 4096, BELL_SEED)
    assert set(hist.counts) <= {"00", "11"}
    for label in ("00", "11"):
        assert 1952 <= hist.counts[label] <= 2144, hist.counts

    # Re-run with the same seed: byte-identical serialization.
    again = sample(circuit, 4096, BELL_SEED)
    assert again.to_json() == hist.to_json()
    assert again.to_csv() == hist.to_csv()

    # Re-run with 8-way internal parallelism: byte-identical.
    parallel = sample(circuit, 4096, BELL_SEED, workers=8)
    assert parallel.to_json() == hist.to_json()

    # Same pipeline through the CLI, twice, compared as raw bytes.
    path = tmp_path / "bell.qcf"
    path.write_text(BELL_TEXT)
    argv = ["run", str(path), "--shots", "4096", "--seed", str(BELL_SEED), "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    report(5, "bell.qcf 4096-shot run hits only 00/11 within 3 sigma, reruns byte-identical")


def test_criterion_6_grover_closed_form():
    assert grover_run(GroverSpec(2, 3, 1)).success_probability == pytest.approx(
        1.0, abs=1e-9
    )
    rng = np.random.default_rng(6)
    for n in range(2, 13):
        k_max = 2 * grover_optimal_iterations(n)
        marked = int(rng.integers(1 << n))
        trajectory = grover_success_trajectory(GroverSpec(n, marked, k_max))
        for k, simulated in enumerate(trajectory):
            assert simulated == pytest.approx(
                grover_success_closed_form(n, k), abs=1e-9
            ), f"n={n}, k={k}"
    report(6, "search success matches sin^2((2k+1) asin(2^(-n/2))) at 1e-9 for n=2..12")


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(7)
    for _ in range(500):
        circuit = make_random_circuit(rng, max_qubits=3, max_instructions=20)
        state = make_random_state(rng, circuit.num_qubits)
        via_kernel = apply(circuit, state).amplitudes
        via_matrix = unitary_of(circuit) @ state.amplitudes
        assert np.max(np.abs(via_kernel - via_matrix)) <= 1e-10
        via_density = apply_density(circuit, to_density(state)).matrix
        via_vector = to_density(apply(circuit, state)).matrix
        assert np.max(np.abs(via_density - via_vector)) <= 1e-10
    report(7, "stride kernel matches brute-force unitaries on 500 random circuits at 1e-10")


def test_criterion_8_invariant_suite():
    rng = np.random.default_rng(8)

    # Unitarity: every library gate and random evolutions at 1e-10.
    for label in gates.GATE_LABELS:
        assert is_unitary(gates.standard_gate(label).matrix, 1e-10)
    for _ in range(50):
        dim = int(rng.integers(1, 9))
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (a + a.conj().T) / 2
        assert is_unitary(Hamiltonian(h).propagator(float(rng.standard_normal())), 1e-10)

    # Norm, trace, and positivity preservation through circuit execution.
    for _ in range(100):
        circuit = make_random_circuit(rng, max_qubits=3, max_instructions=20)
        state = make_random_state(rng, circuit.num_qubits)
        out = apply(circuit, state)
        assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10
        rho = apply_density(circuit, to_density(state))
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-10
        assert eig_hermitian(rho.matrix).eigenvalues[0] >= -1e-9

    # Robertson uncertainty product on 1000 random state/pair draws.
    paulis = [Observable(lbl, gates.standard_gate(lbl).matrix) for lbl in ("X", "Y", "Z")]
    for _ in range(1000):
        a, b = (paulis[int(i)] for i in rng.integers(0, 3, size=2))
        assert robertson_check(a, b, make_random_state(rng, 1)).holds

    # Inner products survive circuit execution (states cannot be copied).
    for _ in range(100):
        circuit = make_random_circuit(rng, max_qubits=3, max_instructions=20)
        a = make_random_state(rng, circuit.num_qubits)
        b = make_random_state(rng, circuit.num_qubits)
        assert abs(
            abs(inner_product(apply(circuit, a), apply(circuit, b)))
            - abs(inner_product(a, b))
        ) <= 1e-10

    # Entropy symmetry across the two sides of every bipartition.
    for _ in range(50):
        state = make_random_state(rng, 3)
        side_a = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
        part = Bipartition.split(3, [int(q) for q in side_a])
        flipped = Bipartition(part.subsystem_b, part.subsystem_a)
        assert entanglement_entropy(state, part) == pytest.approx(
            entanglement_entropy(state, flipped), abs=1e-9
        )

    # Parser round-trip on 500 random circuits.
    for _ in range(500):
        circuit = make_random_circuit(rng, max_qubits=3, max_instructions=20)
        assert qcf.parse(qcf.serialize(circuit)) == circuit

    report(8, "unitarity, norm/trace/PSD, uncertainty, overlap, entropy, round-trip all hold")


def test_criterion_9_performance_smoke():
    rng = np.random.default_rng(9)
    single_qubit = [g for g in gates.LIBRARY.values() if g.arity == 1]
    instructions = [
        Instruction(single_qubit[int(rng.integers(len(single_qubit)))], (int(rng.integers(20)),))
        for _ in range(100)
    ]
    circuit = Circuit(20, instructions)
    start = time.perf_counter()
    out = apply(circuit, zero_state(20))
    elapsed = time.perf_counter() - start
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10
    assert elapsed < 10.0, f"20-qubit/100-gate run took {elapsed:.2f}s"
    report(9, f"20-qubit circuit of 100 single-qubit gates ran in {elapsed:.2f}s (< 10s)")
