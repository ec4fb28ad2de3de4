"""Each workload's check accepts qsim's real output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q

Run from the root of the checkout. A check that passed every input would
make the benchmark's ``correct`` flag meaningless, so every kind of output a
workload checks gets one corruption here.
"""

import json
import pathlib
import sys
import types

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def make(tmp_path):
    made = []

    def build(name, seed=7):
        workload = workloads.WORKLOADS[name](seed, tmp_path / f"{name}-{seed}")
        made.append(workload)
        return workload

    yield build
    for workload in made:
        workload.close()


def rejects(workload, i, out):
    with pytest.raises(workloads.CheckFailed):
        workload.check(i, out, True)


def test_statevector_check_rejects_corrupted_outputs(make):
    wl = make("statevector")
    state, dist = wl.run(0)
    assert wl.check(0, (state, dist), True)
    amps = state.amplitudes
    k = int(np.argmax(np.abs(amps)))
    phased = amps.copy()
    phased[k] *= 1j  # same norm and probabilities, wrong amplitude
    rejects(wl, 0, (types.SimpleNamespace(amplitudes=phased), dist))
    rejects(wl, 0, (types.SimpleNamespace(amplitudes=amps * (1 + 1e-6)), dist))
    moved = dist.probabilities.copy()
    moved[k] -= 1e-6
    moved[k ^ 1] += 1e-6  # sum unchanged
    rejects(wl, 0, (state, types.SimpleNamespace(probabilities=moved)))


def test_shots_check_rejects_corrupted_histograms(make):
    wl = make("shots")
    code, text = wl.run(0)
    assert wl.check(0, (code, text), True) is True
    payload = json.loads(text)
    first, second = sorted(payload["counts"])[:2]
    payload["counts"][first] -= 1
    payload["counts"][second] += 1  # one shot moved, total unchanged
    rejects(wl, 0, (code, json.dumps(payload)))
    rejects(wl, 0, (2, text))


def test_shots_high_seed_fails_in_the_known_way_only(make):
    wl = make("shots")
    high = wl.size - 1
    code, text = wl.run(high)
    assert wl.check(high, (code, text), True) is False
    payload = json.loads(text)
    payload["seed"] = 0
    rejects(wl, high, (code, json.dumps(payload)))
    reference_counts = wl.expected_counts(high, workloads.reference.shot_draw)
    assert payload["counts"] != reference_counts


def test_density_check_rejects_corrupted_probabilities(make):
    wl = make("density")
    code, text = wl.run(0)
    assert wl.check(0, (code, text), True)
    rows = [line.split(",") for line in text.splitlines()]
    rows[0][1] = repr(float(rows[0][1]) + 1e-8)
    rows[1][1] = repr(float(rows[1][1]) - 1e-8)
    rejects(wl, 0, (code, "".join(f"{a},{b}\n" for a, b in rows)))
    rejects(wl, 0, (code, "".join(f"{a},{b}\n" for a, b in rows[:-1])))


def test_analysis_check_rejects_each_corrupted_result(make, monkeypatch):
    wl = make("analysis")
    out = wl.run(0)
    assert wl.check(0, out, True)
    entropy, entangled, evolved, rho, trajectory = out
    rejects(wl, 0, (entropy + 1e-6, entangled, evolved, rho, trajectory))
    rejects(wl, 0, (entropy, not entangled, evolved, rho, trajectory))
    phased = types.SimpleNamespace(amplitudes=evolved.amplitudes * 1j)
    rejects(wl, 0, (entropy, entangled, phased, rho, trajectory))
    shifted = types.SimpleNamespace(matrix=rho.matrix + 1e-12)
    rejects(wl, 0, (entropy, entangled, evolved, shifted, trajectory))
    rejects(wl, 0, (entropy, entangled, evolved, rho, trajectory[:-1] + [trajectory[-1] + 1e-6]))

    solve = workloads.numerics.eig_hermitian

    def off_by_a_little(m):
        d = solve(m)
        return types.SimpleNamespace(eigenvalues=d.eigenvalues - 1e-8)

    monkeypatch.setattr(workloads.numerics, "eig_hermitian", off_by_a_little)
    rejects(wl, 0, out)


def test_inputs_follow_the_seed(make):
    a, b, c = make("shots", 7), make("shots", 7), make("shots", 8)
    assert [case[:3] for case in a.cases] == [case[:3] for case in b.cases]
    assert [case[:3] for case in a.cases[:-1]] != [case[:3] for case in c.cases[:-1]]
    assert a.cases[-1][:3] == c.cases[-1][:3]  # the known-fault case ignores the seed


def test_seeds_reorder_the_same_gates(make):
    a, b = make("density", 7), make("density", 8)
    assert a.ops != b.ops
    assert all(sorted(ops) == sorted(a.ops[0]) for ops in a.ops + b.ops)


def test_own_time_excludes_direct_children():
    tracer = spans.Tracer()
    with tracer.operation(0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    table = tracer.table()[0]
    (o_start, o_end), (i_start, i_end) = [(s[2], s[3]) for s in tracer.spans]
    assert table["outer"] == [o_end - o_start, (o_end - o_start) - (i_end - i_start), 1]
    assert table["inner"][1] == i_end - i_start
