"""The CLI's stdout and ``normalize`` are the same bytes on 1 and 2 BLAS threads.

One child process per thread count runs every invocation in process through
``cli.main`` and pickles back the stdout bytes, plus the bytes of
``normalize`` on one fixed 2**16-entry array and of ``circuit.apply`` on one
fixed 18-qubit circuit of 2- and 3-qubit user dense gates. ``normalize``
took its norm with a BLAS dot product, which sums in a different order on 2
threads, and a dense pass is a zgemm, which BLAS may split over threads.
"""

import os
import pickle
import subprocess
import sys

import numpy as np

import qsim
from conftest import make_random_circuit
from qsim import gates, qcf
from qsim.circuit import Circuit, Instruction

CHILD = """
import contextlib, io, pickle, sys
import numpy as np
from qsim import circuit, cli, gates, qstate

invocations, dense = pickle.loads(sys.stdin.buffer.read())
results = {}
for argv in invocations:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    results[" ".join(argv)] = (code, out.getvalue().encode())
rng = np.random.default_rng(2016)
amps = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
results["normalize"] = qstate.normalize(amps).amplitudes.tobytes()
amps = rng.standard_normal(1 << 18) + 1j * rng.standard_normal(1 << 18)
state = qstate.StateVector(amps / np.sqrt(qstate._sumsq(amps)))
steps = [circuit.Instruction(gates.Gate("u", len(ws), m), ws) for ws, m in dense]
results["dense"] = circuit.apply(circuit.Circuit(18, steps), state).amplitudes.tobytes()
sys.stdout.buffer.write(pickle.dumps(results))
"""


def _circuit_file(directory, num_qubits):
    """A fixed circuit: H on every wire, then random library gates."""
    rng = np.random.default_rng(num_qubits)
    body = make_random_circuit(rng, num_qubits, max_instructions=4 * num_qubits).instructions
    hadamards = tuple(Instruction(gates.H, (w,)) for w in range(num_qubits))
    path = directory / f"q{num_qubits}.qcf"
    path.write_text(qcf.serialize(Circuit(num_qubits, hadamards + body)))
    return str(path)


def _dense_gates():
    """Fixed random unitaries on the wires of the child's dense circuit."""
    rng = np.random.default_rng(26)
    out = []
    for wires in [(3, 15), (0, 9, 17), (16, 1)]:
        d = 1 << len(wires)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        out.append((wires, q))
    return out


def _outputs(threads, invocations):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(qsim.__file__))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], input=pickle.dumps((invocations, _dense_gates())), env=env, capture_output=True
    )
    assert child.returncode == 0, child.stderr.decode()
    return pickle.loads(child.stdout)


def test_stdout_and_normalize_agree_on_1_and_2_threads(tmp_path):
    invocations = [
        ["run", _circuit_file(tmp_path, n), "--shots", "2000", "--seed", "7", "--format", fmt]
        for n in (14, 16, 18, 20)
        for fmt in ("json", "csv")
    ]
    invocations += [
        ["run", _circuit_file(tmp_path, n), "--backend", "density", "--format", fmt]
        for n in (9, 10)
        for fmt in ("json", "csv")
    ]
    invocations.append(["unitary", _circuit_file(tmp_path, 8)])
    one, two = _outputs(1, invocations), _outputs(2, invocations)
    assert len(one) == len(invocations) + 2
    assert all(code == 0 for code, _ in (one[" ".join(argv)] for argv in invocations))
    for key in one:
        assert one[key] == two[key], key
