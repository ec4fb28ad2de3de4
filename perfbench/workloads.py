"""The benchmark's four workloads.

Each workload builds its inputs from the seed, runs one operation at a time
through qsim's public functions, and checks each output against the
independent computations in :mod:`reference`. A round runs every input once,
in a fixed order; runs attempt whole rounds only.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import types

import numpy as np

from qsim import algorithms, circuit, cli, entangle, evolve, gates, measure, numerics, qstate

import reference

LABELS = ("x", "y", "z", "s", "t", "h", "swap", "cnot")
TWO_QUBIT = ("swap", "cnot")

# The gate classes of the per-gate probe; every label appears in one class.
GATE_CLASSES = {
    "dense1q": ("h",),
    "diag1q": ("z", "s", "t"),
    "perm1q": ("x", "y"),
    "twoq": ("cnot", "swap"),
}


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def gate_layout(n, copies, key):
    """``copies`` of each library gate on wires drawn from the fixed stream ``key``.

    The layout does not depend on the seed. A gate's cost depends on its
    wires (a two-qubit gate on 20 qubits takes 5 to 19 ms by wire pair), so
    seeds that drew their own wires would make the run-to-run spread measure
    the draw rather than qsim.
    """
    rng = np.random.default_rng(key)
    return [
        (label, tuple(int(w) for w in rng.choice(n, 2 if label in TWO_QUBIT else 1, replace=False)))
        for label in LABELS
        for _ in range(copies)
    ]


def shuffled(rng, layout, lead_h_on=0):
    """The layout's gates in a seeded order, after a Hadamard on each of ``lead_h_on`` wires.

    Every circuit of a workload holds the same gates on the same wires, so
    seeds change the order, and with it the output state, but not the work.
    """
    return [("h", (w,)) for w in range(lead_h_on)] + [layout[k] for k in rng.permutation(len(layout))]


def to_circuit(n, ops):
    return circuit.Circuit(
        n, [circuit.Instruction(gates.standard_gate(label), wires) for label, wires in ops]
    )


def to_qcf(n, ops):
    return f"qubits {n}\n" + "".join(f"{label} {' '.join(map(str, w))}\n" for label, w in ops)


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def require_close(actual, expected, tol, what):
    err = float(np.max(np.abs(np.asarray(actual) - np.asarray(expected))))
    require(err <= tol, f"{what}: deviation {err:.3g} exceeds {tol:g}")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class Workload:
    """Inputs for one run; subclasses define ``run`` and ``check``."""

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, self.STREAM])
        self.span = contextlib.nullcontext  # replaced by a tracer's span in traced runs

    def warm_up(self):
        self.run(0)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def write(self, name, text):
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def per_op_rates(self, per_op_ms):
        """Metrics computed from the traced per-operation times; none by default."""
        return {}

    def probe(self, tracer):
        """Metrics measured after the traced loop; none by default."""
        return {}


class Statevector(Workload):
    """Library ``apply`` of random circuits on 20 qubits, then ``probabilities``."""

    STREAM = 1
    QUBITS = 20
    CIRCUITS = 6
    COPIES = 2  # 16 gates per circuit
    PROBE_GATES = 12
    PROBE_REPEATS = 3
    CHUNK = 1 << 16  # reference amplitudes held at a time, 1 MiB

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        layout = gate_layout(self.QUBITS, self.COPIES, self.STREAM)
        self.ops = [shuffled(self.rng, layout) for _ in range(self.CIRCUITS)]
        self.circuits = [to_circuit(self.QUBITS, ops) for ops in self.ops]
        self.zero = qstate.zero_state(self.QUBITS)
        self.size = self.CIRCUITS
        self.reference_files = None

    def references(self):
        """Files of every circuit's reference amplitudes, written by a child process.

        The einsum simulator holds several 16 MiB states at once. Run in this
        process, it would set the ``peak_rss_mb`` that qsim's ``apply`` should set.
        """
        if self.reference_files is None:
            files = [str(self.workdir / f"reference{k}.c128") for k in range(self.CIRCUITS)]
            spec = {"qubits": self.QUBITS, "circuits": self.ops, "outputs": files}
            spec_file = self.write("reference.json", json.dumps(spec))
            subprocess.run([sys.executable, reference.__file__, spec_file], check=True, timeout=600)
            self.reference_files = files
        return self.reference_files

    def run(self, i):
        state = circuit.apply(self.circuits[i], self.zero)
        return state, measure.probabilities(state)

    def check(self, i, out, first):
        amps, probs = out[0].amplitudes, out[1].probabilities
        require(abs(np.vdot(amps, amps).real - 1.0) <= 1e-10, "state norm is not 1")
        require(abs(probs.sum() - 1.0) <= 1e-10, "probabilities do not sum to 1")
        if first:
            # In chunks, so the comparison adds no state-sized arrays either.
            with open(self.references()[i], "rb") as f:
                for start in range(0, amps.size, self.CHUNK):
                    part = slice(start, start + self.CHUNK)
                    ref = np.fromfile(f, dtype=np.complex128, count=self.CHUNK)
                    require(ref.size == amps[part].size, f"reference of circuit {i} is short")
                    require_close(amps[part], ref, 1e-10, f"amplitudes of circuit {i}")
                    require_close(probs[part], np.abs(ref) ** 2, 1e-10, f"probabilities of circuit {i}")
        return True

    def per_op_rates(self, per_op_ms):
        gates_per_op = len(self.ops[0])
        gate_ms = per_op_ms("circuit.apply", own=True) / gates_per_op
        # Computed traffic: one read and one write of the 16 * 2^n-byte state.
        return {"circuit.gate_gbps": 2 * 16 * 2**self.QUBITS / (gate_ms * 1e-3) / 1e9}

    def probe(self, tracer):
        rng = np.random.default_rng(0)
        metrics = {}
        for name, labels in GATE_CLASSES.items():
            ops = []
            for k in range(self.PROBE_GATES):
                label = labels[k % len(labels)]
                arity = 2 if label in TWO_QUBIT else 1
                ops.append((label, tuple(int(w) for w in rng.choice(self.QUBITS, arity, replace=False))))
            probe_circuit = to_circuit(self.QUBITS, ops)
            kernel_ms = []
            for rep in range(self.PROBE_REPEATS):
                with tracer.operation(("probe", name, rep)) as op:
                    circuit.apply(probe_circuit, self.zero)
                kernel_ms.append(tracer.own_ms(op, "circuit.apply"))
            metrics[f"circuit.gate_ms.{name}"] = float(np.median(kernel_ms)) / self.PROBE_GATES
        metrics["circuit.apply_peak_mb"] = tracer.peak_mb(lambda: circuit.apply(self.circuits[0], self.zero))
        return metrics


class Shots(Workload):
    """In-process ``qsim run FILE --shots 1000 --seed S --format json`` on 12-14 qubits."""

    STREAM = 2
    QUBITS = (12, 13, 14, 12, 13, 14, 13)
    COPIES = 3  # 24 gates after a Hadamard on every wire
    SHOTS = 1000
    # An odd seed in (2^63, 2^64 - 2^11): qsim turns it into a float64 key
    # today, so its histogram differs from the documented one. The op that
    # uses it has fixed inputs, so it fails on every run and every seed.
    HIGH_SEED = 2**63 + 2**40 + 12345
    HIGH_QUBITS = 13

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        layouts = {n: gate_layout(n, self.COPIES, [self.STREAM, n]) for n in set(self.QUBITS)}
        cases = [
            (n, shuffled(self.rng, layouts[n], lead_h_on=n), int(self.rng.integers(0, 2**63)))
            for n in self.QUBITS
        ]
        fixed = np.random.default_rng(2**32 + 1)
        high_ops = shuffled(fixed, layouts[self.HIGH_QUBITS], lead_h_on=self.HIGH_QUBITS)
        cases.append((self.HIGH_QUBITS, high_ops, self.HIGH_SEED))
        self.cases = [
            (n, ops, s, self.write(f"shots{k}.qcf", to_qcf(n, ops))) for k, (n, ops, s) in enumerate(cases)
        ]
        self.expected = {}
        self.size = len(self.cases)

    def run(self, i):
        _, _, seed, path = self.cases[i]
        return run_cli(["run", path, "--shots", str(self.SHOTS), "--seed", str(seed), "--format", "json"])

    def expected_counts(self, i, draw):
        if (i, draw) not in self.expected:
            n, ops, seed, _ = self.cases[i]
            probs = np.abs(reference.final_state(n, ops)) ** 2
            self.expected[i, draw] = reference.histogram(probs, self.SHOTS, seed, n, draw)
        return self.expected[i, draw]

    def check(self, i, out, first):
        code, text = out
        require(code == 0, f"qsim run exited with {code}")
        payload = json.loads(text)
        _, _, seed, _ = self.cases[i]
        require(payload["shots"] == self.SHOTS and payload["seed"] == seed, "shots or seed echoed wrongly")
        if payload["counts"] == self.expected_counts(i, reference.shot_draw):
            return True
        # The one known fault: a seed >= 2^63 reaches Philox as a float64 key.
        require(
            seed >= 2**63 and payload["counts"] == self.expected_counts(i, reference.float_key_draw),
            f"histogram of case {i} differs from the reference",
        )
        return False


class Density(Workload):
    """In-process ``qsim run FILE --backend density --format csv`` on 9 qubits."""

    STREAM = 3
    QUBITS = 9
    CIRCUITS = 6
    COPIES = 3  # 24 gates per circuit

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        layout = gate_layout(self.QUBITS, self.COPIES, self.STREAM)
        self.ops = [shuffled(self.rng, layout) for _ in range(self.CIRCUITS)]
        self.paths = [self.write(f"density{k}.qcf", to_qcf(self.QUBITS, ops)) for k, ops in enumerate(self.ops)]
        self.labels = [format(k, f"0{self.QUBITS}b") for k in range(2**self.QUBITS)]
        self.expected = {}
        self.size = self.CIRCUITS

    def run(self, i):
        return run_cli(["run", self.paths[i], "--backend", "density", "--format", "csv"])

    def check(self, i, out, first):
        code, text = out
        require(code == 0, f"qsim run exited with {code}")
        rows = [line.split(",") for line in text.splitlines()]
        require([r[0] for r in rows] == self.labels, "labels missing or out of order")
        probs = np.array([float(r[1]) for r in rows])
        require(abs(probs.sum() - 1.0) <= 1e-10, "probabilities do not sum to 1")
        if i not in self.expected:
            # From |0...0>, the diagonal of U rho U^dagger is |U psi|^2.
            self.expected[i] = np.abs(reference.final_state(self.QUBITS, self.ops[i])) ** 2
        require_close(probs, self.expected[i], 1e-10, f"probabilities of circuit {i}")
        return True

    def per_op_rates(self, per_op_ms):
        gate_ms = per_op_ms("circuit.apply_density") / len(self.ops[0])
        # Computed traffic: two kernel passes, each reading and writing the
        # 16 * 4^n-byte matrix.
        return {
            "circuit.density_gate_ms": gate_ms,
            "circuit.density_gate_gbps": 4 * 16 * 4**self.QUBITS / (gate_ms * 1e-3) / 1e9,
        }

    def probe(self, tracer):
        rho = qstate.to_density(qstate.zero_state(self.QUBITS))
        first = to_circuit(self.QUBITS, self.ops[0])
        return {"circuit.apply_density_peak_mb": tracer.peak_mb(lambda: circuit.apply_density(first, rho))}


class Analysis(Workload):
    """Entropy, evolution, a PSD-checked mixture and a Grover trajectory per op."""

    STREAM = 4
    INPUTS = 3
    QUBITS = 11
    SIDE_A = 5
    SMALL_QUBITS = 4  # Hamiltonian and mixture
    MIXED_STATES = 4
    GROVER_QUBITS = 12

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.iterations = algorithms.grover_optimal_iterations(self.GROVER_QUBITS)
        self.inputs = [self.make_input() for _ in range(self.INPUTS)]
        self.size = self.INPUTS

    def gaussian(self, *shape):
        return self.rng.normal(size=shape) + 1j * self.rng.normal(size=shape)

    def make_input(self):
        amps = self.gaussian(2**self.QUBITS)
        side_a = tuple(sorted(int(q) for q in self.rng.choice(self.QUBITS, self.SIDE_A, replace=False)))
        dim = 2**self.SMALL_QUBITS
        h = self.gaussian(dim, dim)
        h = (h + h.conj().T) / 2
        psi = self.gaussian(dim)
        mixed = [v / np.linalg.norm(v) for v in self.gaussian(self.MIXED_STATES, dim)]
        weights = self.rng.dirichlet(np.ones(self.MIXED_STATES))
        return types.SimpleNamespace(
            state=qstate.StateVector(amps / np.linalg.norm(amps)),
            side_a=side_a,
            part=entangle.Bipartition.split(self.QUBITS, side_a),
            h=h,
            hamiltonian=evolve.Hamiltonian(h),
            duration=float(self.rng.uniform(0.5, 2.0)),
            psi=qstate.StateVector(psi / np.linalg.norm(psi)),
            mixture=sum(w * np.outer(v, v.conj()) for w, v in zip(weights, mixed)),
            grover=algorithms.GroverSpec(
                self.GROVER_QUBITS, int(self.rng.integers(0, 2**self.GROVER_QUBITS)), self.iterations
            ),
        )

    def run(self, i):
        x = self.inputs[i]
        entropy = entangle.entanglement_entropy(x.state, x.part)
        entangled = entangle.is_entangled(x.state, x.part)
        evolved = evolve.evolve(x.hamiltonian, x.duration, x.psi)
        with self.span("qstate.psd_check"):
            rho = qstate.DensityMatrix(x.mixture)
        trajectory = algorithms.grover_success_trajectory(x.grover)
        return entropy, entangled, evolved, rho, trajectory

    def check(self, i, out, first):
        x = self.inputs[i]
        entropy, entangled, evolved, rho, trajectory = out
        ref_entropy = reference.schmidt_entropy(x.state.amplitudes, x.side_a, self.QUBITS)
        require_close(entropy, ref_entropy, 1e-9, "entanglement entropy")
        require(entangled == (ref_entropy > 1e-6), "is_entangled disagrees with the Schmidt spectrum")
        require_close(evolved.amplitudes, reference.propagate(x.h, x.duration, x.psi.amplitudes), 1e-10, "evolved state")
        require_close(rho.matrix, x.mixture, 0.0, "density matrix entries")
        if first:
            # The PSD check compares this eigenvalue with its floor.
            lowest = numerics.eig_hermitian(x.mixture).eigenvalues[0]
            require_close(lowest, reference.lowest_eigenvalue(x.mixture), 1e-10, "lowest eigenvalue")
        require(len(trajectory) == self.iterations + 1, "trajectory length")
        require_close(trajectory, reference.grover_trajectory(self.GROVER_QUBITS, self.iterations), 1e-9, "Grover trajectory")
        return True

    def probe(self, tracer):
        x = self.inputs[0]
        return {"entangle.entropy_peak_mb": tracer.peak_mb(lambda: entangle.entanglement_entropy(x.state, x.part))}


WORKLOADS = {"statevector": Statevector, "shots": Shots, "density": Density, "analysis": Analysis}
