"""The names the benchmark's traced run wraps, and the program under its wrappers.

``perfbench/run.py --trace 1`` replaces each name in ``perfbench/spans.TARGETS``
with a plain wrapper function. These tests read that list without changing
anything under ``perfbench/``.
"""

import importlib
import importlib.util
import pathlib

import numpy as np

from oracles import jacobi_eig_hermitian
from qsim import circuit, cli, entangle, evolve, measure, numerics, qstate

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    for module_name, attr, _ in load_spans().TARGETS:
        assert hasattr(importlib.import_module(f"qsim.{module_name}"), attr), f"qsim.{module_name}.{attr}"


def test_program_runs_under_the_tracer_wrappers(monkeypatch, capsys, tmp_path):
    path = tmp_path / "c.qcf"
    path.write_text("qubits 3\nh 0\ncnot 0 2\nt 2\nswap 1 2\ny 1\n", encoding="utf-8")
    c = cli._load_circuit(str(path))

    def outputs():
        state = circuit.apply(c, qstate.zero_state(3)).amplitudes
        hist = measure.sample(c, 50, 11)
        assert cli.main(["run", str(path), "--backend", "density", "--format", "csv"]) == 0
        return state, hist, capsys.readouterr().out

    plain = outputs()
    spans = load_spans()
    tracer = spans.Tracer()
    for module_name, attr, name in spans.TARGETS:
        module = importlib.import_module(f"qsim.{module_name}")
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    for wrapped in (circuit.StateVector, measure.apply, cli.apply_density, cli.to_density):
        assert type(wrapped).__name__ == "function"
    traced = outputs()
    np.testing.assert_array_equal(traced[0], plain[0])
    assert traced[1:] == plain[1:]
    assert {"circuit.apply", "measure.state", "circuit.apply_density", "qstate.to_density"} <= {
        span[1] for span in tracer.spans
    }


def test_analysis_runs_under_the_tracer_wrappers(monkeypatch, rng, random_state, random_hermitian):
    state = random_state(rng, 6)
    part = entangle.Bipartition.split(6, [0, 2, 5])
    h = evolve.Hamiltonian(random_hermitian(rng, 8))
    psi = random_state(rng, 3)
    mixture = sum(p * qstate.to_density(random_state(rng, 3)).matrix for p in (0.5, 0.3, 0.2))

    def outputs():
        return (
            entangle.entanglement_entropy(state, part),
            entangle.is_entangled(state, part),
            evolve.evolve(h, 0.7, psi).amplitudes,
            qstate.DensityMatrix(mixture).matrix,
        )

    plain = outputs()
    spans = load_spans()
    tracer = spans.Tracer()
    for module_name, attr, name in spans.TARGETS:
        module = importlib.import_module(f"qsim.{module_name}")
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    traced = outputs()
    assert traced[:2] == plain[:2]
    np.testing.assert_array_equal(traced[2], plain[2])
    np.testing.assert_array_equal(traced[3], plain[3])
    assert {"entangle.entropy", "entangle.is_entangled", "evolve.evolve"} <= {span[1] for span in tracer.spans}


def test_analysis_lowest_eigenvalue_matches_the_jacobi_oracle(rng):
    # A 16x16 mixture of four random pure states, as the benchmark's analysis input builds it.
    dim = 16
    vectors = rng.normal(size=(4, dim)) + 1j * rng.normal(size=(4, dim))
    weights = rng.dirichlet(np.ones(4))
    mixture = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in zip(weights, vectors))
    lowest = numerics.eig_hermitian(mixture).eigenvalues[0]
    assert abs(lowest - jacobi_eig_hermitian(mixture).eigenvalues[0]) <= 1e-10


def test_evolve_records_an_eig_hermitian_span(monkeypatch, rng, random_state, random_hermitian):
    h = evolve.Hamiltonian(random_hermitian(rng, 16))
    psi = random_state(rng, 4)
    plain = evolve.evolve(h, 0.7, psi).amplitudes
    spans = load_spans()
    tracer = spans.Tracer()
    for module_name, attr, name in spans.TARGETS:
        module = importlib.import_module(f"qsim.{module_name}")
        monkeypatch.setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    np.testing.assert_array_equal(evolve.evolve(h, 0.7, psi).amplitudes, plain)
    names = [span[1] for span in tracer.spans]
    assert names == ["evolve.evolve", "numerics.eig_hermitian"]
    assert tracer.spans[1][4] == 0  # the eigendecomposition is inside evolve's span
