import json
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

from qsim import circuit, cli, measure, qcf
from qsim.cli import main

BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"

# Circuits and the stdout qsim printed for them, committed before the gate
# engine's below-tile planning changed: three 1000-shot runs in the shape of
# the benchmark's shots workload (a Hadamard on every wire, then 24 library
# gates, an H on wire n-5 among them) and one 9-qubit density run.
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN_RUNS = {
    "shots12.json": ("shots12.qcf", "--shots", "1000", "--seed", "1531110822167931618", "--format", "json"),
    "shots13.json": ("shots13.qcf", "--shots", "1000", "--seed", "5937730311083052272", "--format", "json"),
    "shots14.json": ("shots14.qcf", "--shots", "1000", "--seed", "1470387076691373629", "--format", "json"),
    "density9.csv": ("density9.qcf", "--backend", "density", "--format", "csv"),
}


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.qcf"
    path.write_text(BELL_TEXT)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.qcf"
    path.write_text("qubits 1\nq 0\n")
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_json_histogram(self, capsys, bell_file):
        code, out, err = run_cli(
            capsys, "run", bell_file, "--shots", "4096", "--seed", "7", "--format", "json"
        )
        assert code == 0
        assert err == ""
        payload = json.loads(out)
        assert set(payload["counts"]) == {"00", "11"}
        assert sum(payload["counts"].values()) == 4096
        assert payload["shots"] == 4096
        assert payload["seed"] == 7

    def test_text_histogram_default(self, capsys, bell_file):
        code, out, err = run_cli(capsys, "run", bell_file, "--seed", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2  # default 1024 shots over labels 00 and 11
        total = sum(int(line.split()[1]) for line in lines)
        assert total == 1024

    def test_csv_histogram(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "run", bell_file, "--shots", "64", "--seed", "1", "--format", "csv"
        )
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()]
        assert all(len(row) == 2 for row in rows)
        assert sum(int(count) for _, count in rows) == 64

    def test_density_backend_exact(self, capsys, bell_file):
        code, out, _ = run_cli(capsys, "run", bell_file, "--backend", "density")
        assert code == 0
        values = {line.split()[0]: float(line.split()[1]) for line in out.splitlines()}
        assert values["00"] == pytest.approx(0.5, abs=1e-9)
        assert values["01"] == pytest.approx(0.0, abs=1e-9)
        assert values["10"] == pytest.approx(0.0, abs=1e-9)
        assert values["11"] == pytest.approx(0.5, abs=1e-9)

    def test_density_json(self, capsys, bell_file):
        code, out, _ = run_cli(
            capsys, "run", bell_file, "--backend", "density", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["num_qubits"] == 2
        assert payload["probabilities"]["00"] == pytest.approx(0.5, abs=1e-12)

    def test_density_text_has_no_negative_zero(self, capsys, tmp_path):
        # T T S = Z, so wire 1 gets H Z H = X; the engine leaves -9.8e-18
        # on four zero-probability outcomes.
        path = tmp_path / "roundoff.qcf"
        path.write_text("qubits 6\nh 3\nh 1\nt 1\nh 0\nt 1\ns 1\nh 1\n")
        code, out, _ = run_cli(capsys, "run", str(path), "--backend", "density")
        assert code == 0
        assert "-0.000000000" not in out
        assert out.splitlines()[0] == "000000 0.000000000"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_density_csv_and_json_have_no_negative_zero(self, capsys, tmp_path, fmt):
        # Z on a wire in |0> leaves exact -0.0 on outcomes 010, 011, 110, 111.
        path = tmp_path / "negzero.qcf"
        path.write_text("qubits 3\nh 0\nz 1\n")
        code, out, _ = run_cli(capsys, "run", str(path), "--backend", "density", "--format", fmt)
        assert code == 0
        assert "-0.0" not in out
        if fmt == "csv":
            assert out.splitlines()[2] == "010,0.0"
        else:
            assert '"110": 0.0,' in out

    def test_byte_identical_reruns(self, capsys, bell_file):
        first = run_cli(capsys, "run", bell_file, "--shots", "512", "--seed", "9")
        second = run_cli(capsys, "run", bell_file, "--shots", "512", "--seed", "9")
        assert first == second

    def test_parse_error_reported_on_stderr(self, capsys, bad_file):
        code, out, err = run_cli(capsys, "run", bad_file)
        assert code == 2
        assert out == ""
        assert "line 2" in err
        assert "UnknownGate" in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.qcf"))
        assert code == 2
        assert out == ""
        assert err != ""

    def test_non_utf8_file_is_a_located_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.qcf"
        path.write_bytes(b"qubits 2\nh 0\xff\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 2
        assert out == ""
        assert "line 2, column 4: BadEncoding" in err

    def test_lone_carriage_returns_end_lines(self, capsys, tmp_path):
        path = tmp_path / "cr.qcf"
        path.write_bytes(b"qubits 2\rh 0\rcnot 0 1\r")
        assert run_cli(capsys, "validate", str(path)) == (0, "OK\n", "")

    def test_usage_errors(self, capsys, bell_file):
        assert run_cli(capsys, "run", bell_file, "--shots", "0")[0] == 2
        assert run_cli(capsys, "run", bell_file, "--seed", "-4")[0] == 2
        assert run_cli(capsys, "run", bell_file, "--backend", "tensor")[0] == 2

    @pytest.mark.parametrize("backend", ["statevector", "density"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--shots", "0", "error: --shots must be at least 1\n"),
            ("--shots", "-3", "error: --shots must be at least 1\n"),
            ("--seed", "-1", "error: --seed must be an unsigned 64-bit integer\n"),
            ("--seed", str(2**64), "error: --seed must be an unsigned 64-bit integer\n"),
        ],
    )
    def test_shots_and_seed_rejected_on_both_backends(self, capsys, bell_file, backend, flag, value, message):
        assert run_cli(capsys, "run", bell_file, "--backend", backend, flag, value) == (2, "", message)

    def test_capacity_override_env(self, capsys, monkeypatch, bell_file):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "1")
        code, out, err = run_cli(capsys, "run", bell_file)
        assert code == 3
        assert out == ""
        monkeypatch.setenv("QSIM_MAX_QUBITS", "2")
        assert run_cli(capsys, "run", bell_file)[0] == 0

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_capacity_override_below_one(self, capsys, monkeypatch, bell_file, value):
        monkeypatch.setenv("QSIM_MAX_QUBITS", value)
        code, out, err = run_cli(capsys, "run", bell_file)
        assert code == 3
        assert out == ""
        assert f"QSIM_MAX_QUBITS must be at least 1, got '{value}'" in err

    @pytest.mark.parametrize("value", [" \u0665 ", "\u0665", "5_0", " 5", "5\n", "0x5", "", "+"])
    def test_capacity_override_not_ascii_decimal(self, capsys, monkeypatch, bell_file, value):
        # int() reads Arabic-Indic digits, underscores and surrounding whitespace.
        monkeypatch.setenv("QSIM_MAX_QUBITS", value)
        message = f"error: QSIM_MAX_QUBITS must be an integer, got {value!r}\n"
        assert run_cli(capsys, "run", bell_file) == (3, "", message)

    def test_capacity_override_beyond_int_digits(self, capsys, monkeypatch, bell_file):
        # int() refuses more than 4300 digits: a ValueError traceback and exit 1.
        monkeypatch.setenv("QSIM_MAX_QUBITS", "9" * 5000)
        message = "error: QSIM_MAX_QUBITS has too many digits (5000)\n"
        assert run_cli(capsys, "run", bell_file) == (3, "", message)

    @pytest.mark.parametrize(
        "qubits,backend,cap",
        [(63, "statevector", 24), (10**4, "statevector", 24)]
        + [(11, "density", 10), (63, "density", 10)],
    )
    def test_capacity_before_the_state_is_built(self, capsys, tmp_path, qubits, backend, cap):
        # 63 qubits exceed numpy's largest array: building |0...0> first was a traceback.
        path = tmp_path / "big.qcf"
        path.write_text(f"qubits {qubits}\nh 0\n")
        code, out, err = run_cli(capsys, "run", str(path), "--backend", backend)
        assert (code, out) == (3, "")
        assert err == f"error: {backend} path supports at most {cap} qubits, got {qubits}\n"

    def test_density_capacity_allocates_nothing_first(self, capsys, tmp_path):
        path = tmp_path / "big.qcf"
        path.write_text("qubits 11\nh 0\n")
        run_cli(capsys, "run", str(path), "--backend", "density")  # warm up imports and caches
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--backend", "density"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 2**20

    def test_density_holds_one_matrix(self, capsys, tmp_path):
        # |0...0><0...0| is built in the engine's buffer, not beside it: the
        # matrix, the engine's tile (1/32 of it at 10 qubits) and the output.
        n = 10
        path = tmp_path / "cap.qcf"
        path.write_text(f"qubits {n}\nh 0\nh 9\ncnot 0 9\nswap 3 8\nt 5\n")
        run_cli(capsys, "run", str(path), "--backend", "density", "--format", "csv")  # warm up imports
        tracemalloc.start()
        try:
            code = main(["run", str(path), "--backend", "density", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 1.5 * 16 * 4**n

    def test_out_of_memory_is_exit_3_without_traceback(self, capsys, monkeypatch, bell_file):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(measure, "sample", exhausted)
        code, out, err = run_cli(capsys, "run", bell_file)
        assert code == 3
        assert out == ""
        assert err == "error: out of memory\n"


# Exact stdout of ``qsim run``: the tests above parse it, these pin its layout.
BELL_SHOTS_10_SEED_7 = {
    "text": "00 5\n11 5\n",
    "csv": "00,5\n11,5\n",
    "json": '{\n  "shots": 10,\n  "seed": 7,\n  "counts": {\n    "00": 5,\n    "11": 5\n  }\n}\n',
}
# H on wire 0 and Z on wire 1 of |000>: exact zeros, four of them -0.0 in the engine.
DENSITY_ZEROS_TEXT = "qubits 3\nh 0\nz 1\n"
DENSITY_ZEROS = {
    "text": (
        "000 0.500000000\n001 0.000000000\n010 0.000000000\n011 0.000000000\n"
        "100 0.500000000\n101 0.000000000\n110 0.000000000\n111 0.000000000\n"
    ),
    "csv": (
        "000,0.4999999999999999\n001,0.0\n010,0.0\n011,0.0\n"
        "100,0.4999999999999999\n101,0.0\n110,0.0\n111,0.0\n"
    ),
    "json": (
        '{\n  "num_qubits": 3,\n  "probabilities": {\n'
        '    "000": 0.4999999999999999,\n    "001": 0.0,\n    "010": 0.0,\n    "011": 0.0,\n'
        '    "100": 0.4999999999999999,\n    "101": 0.0,\n    "110": 0.0,\n    "111": 0.0\n'
        "  }\n}\n"
    ),
}


class TestGoldenOutput:
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_histogram(self, capsys, bell_file, fmt):
        argv = ("run", bell_file, "--shots", "10", "--seed", "7", "--format", fmt)
        assert run_cli(capsys, *argv) == (0, BELL_SHOTS_10_SEED_7[fmt], "")

    def test_histogram_text_right_aligns_counts(self, capsys, tmp_path):
        path = tmp_path / "hh.qcf"
        path.write_text("qubits 2\nh 0\nh 1\n")
        argv = ("run", str(path), "--shots", "30", "--seed", "1")
        assert run_cli(capsys, *argv) == (0, "00  4\n01  6\n10  7\n11 13\n", "")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_density(self, capsys, tmp_path, fmt):
        path = tmp_path / "zeros.qcf"
        path.write_text(DENSITY_ZEROS_TEXT)
        argv = ("run", str(path), "--backend", "density", "--format", fmt)
        assert run_cli(capsys, *argv) == (0, DENSITY_ZEROS[fmt], "")

    @pytest.mark.parametrize("golden", sorted(GOLDEN_RUNS))
    def test_committed_stdout(self, capsys, golden):
        qcf_name, *flags = GOLDEN_RUNS[golden]
        expected = (DATA / golden).read_text(encoding="utf-8")
        assert run_cli(capsys, "run", str(DATA / qcf_name), *flags) == (0, expected, "")

    def test_hand_built_histogram(self):
        # Counts of 1 to 4 digits, and labels that csv.writer must quote.
        hist = measure.ShotHistogram(
            counts={"11": 7, "00": 1000, "0,1": 42, 'a"b': 1}, shots=1050, seed=2**64 - 1
        )
        assert hist.to_json() == (
            '{\n  "shots": 1050,\n  "seed": 18446744073709551615,\n  "counts": {\n'
            '    "0,1": 42,\n    "00": 1000,\n    "11": 7,\n    "a\\"b": 1\n  }\n}\n'
        )
        assert hist.to_csv() == '"0,1",42\n00,1000\n11,7\n"a""b",1\n'

    def test_empty_histogram(self):
        hist = measure.ShotHistogram(counts={}, shots=0, seed=3)
        assert hist.to_json() == '{\n  "shots": 0,\n  "seed": 3,\n  "counts": {}\n}\n'
        assert hist.to_csv() == ""


class TestUnitary:
    def test_identity_rows(self, capsys, tmp_path):
        path = tmp_path / "id.qcf"
        path.write_text("qubits 1\n")
        code, out, _ = run_cli(capsys, "unitary", str(path))
        assert code == 0
        assert out == (
            "1.000000+0.000000i 0.000000+0.000000i\n"
            "0.000000+0.000000i 1.000000+0.000000i\n"
        )

    def test_bell_matrix_values(self, capsys, bell_file):
        entry_format = re.compile(r"(-?\d+\.\d{6})([+-]\d+\.\d{6})i")

        code, out, _ = run_cli(capsys, "unitary", bell_file)
        assert code == 0
        rows = []
        for line in out.splitlines():
            parsed = [entry_format.fullmatch(entry) for entry in line.split()]
            assert all(parsed), line
            rows.append([complex(float(m.group(1)), float(m.group(2))) for m in parsed])
        # Cross-check against the expected first column: (e0 + e3)/sqrt(2).
        first_col = np.array([row[0] for row in rows])
        np.testing.assert_allclose(
            first_col, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)], atol=1e-6
        )

    def test_no_negative_zero_in_output(self, capsys, tmp_path):
        path = tmp_path / "phase.qcf"
        path.write_text("qubits 1\nh 0\nz 0\nh 0\n")  # equals X up to roundoff signs
        _, out, _ = run_cli(capsys, "unitary", str(path))
        assert "-0.000000" not in out

    def test_runs_without_the_oracle(self, capsys, monkeypatch, tmp_path):
        def oracle(*args, **kwargs):
            raise AssertionError("qsim unitary called the brute-force oracle")

        for name in ("unitary_of", "embed"):
            monkeypatch.setattr(circuit, name, oracle)
        monkeypatch.setattr(cli, "unitary_of", oracle, raising=False)
        path = tmp_path / "c.qcf"
        path.write_text("qubits 3\nh 0\ncnot 0 2\nt 1\nswap 1 2\nh 2\n")
        code, out, err = run_cli(capsys, "unitary", str(path))
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 8

    @pytest.mark.parametrize("seed", range(12))
    def test_output_is_the_oracle_formatted(self, capsys, tmp_path, random_circuit, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, num_qubits=1 + seed % 6, max_instructions=30)
        path = tmp_path / "c.qcf"
        path.write_text(qcf.serialize(c))

        def entry(x):
            return round(x, 6) + 0.0

        expected = "".join(
            " ".join(f"{entry(e.real):.6f}{entry(e.imag):+.6f}i" for e in row) + "\n"
            for row in circuit.unitary_of(c)
        )
        assert run_cli(capsys, "unitary", str(path)) == (0, expected, "")

    def test_rounding_edges_match_per_entry_formatting(self, capsys, monkeypatch, bell_file):
        # The row-at-a-time format rounds with numpy as round() rounds an
        # np.float64 entry: 2.5e-6 prints 0.000002, where '%.6f' alone gives
        # 0.000003, and a value that rounds to zero never prints a minus sign.
        parts = [0.0, -0.0]
        for edge in (5e-7, 2.5e-6):
            for x in (np.nextafter(edge, 0), edge, np.nextafter(edge, 1)):
                parts += [x, -x]
        entries = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
        entries[0] = complex(-0.0, -0.0)
        u = np.array([np.roll(entries, k) for k in range(entries.size)])
        monkeypatch.setattr(cli, "unitary", lambda c: u)

        def entry(x):
            return round(x, 6) + 0.0

        expected = "".join(
            " ".join(f"{entry(e.real):.6f}{entry(e.imag):+.6f}i" for e in row) + "\n"
            for row in u
        )
        assert run_cli(capsys, "unitary", bell_file) == (0, expected, "")
        pinned = np.array([[complex(2.5e-6, -0.0), complex(-5e-7, np.nextafter(5e-7, 1))],
                           [complex(-0.0, -2.5e-6), 1.0]])
        monkeypatch.setattr(cli, "unitary", lambda c: pinned)
        assert run_cli(capsys, "unitary", bell_file) == (
            0,
            "0.000002+0.000000i 0.000000+0.000001i\n0.000000-0.000002i 1.000000+0.000000i\n",
            "",
        )

    def test_capacity(self, capsys, tmp_path):
        path = tmp_path / "big.qcf"
        path.write_text("qubits 13\n")
        code, out, err = run_cli(capsys, "unitary", str(path))
        assert code == 3
        assert out == ""
        assert err != ""


class TestGrover:
    def test_two_qubit_certainty(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "2", "3")
        assert code == 0
        assert out == (
            "qubits 2\n"
            "marked 3\n"
            "iterations 1\n"
            "success_probability 1.000000000\n"
            "closed_form 1.000000000\n"
        )

    def test_three_qubit_default_iterations(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "3", "0")
        assert code == 0
        assert "iterations 2" in out
        assert "success_probability 0.945312500" in out
        assert "closed_form 0.945312500" in out

    def test_explicit_iterations(self, capsys):
        code, out, _ = run_cli(capsys, "grover", "2", "0", "--iterations", "0")
        assert code == 0
        assert "success_probability 0.250000000" in out

    def test_capacity(self, capsys):
        code, out, err = run_cli(capsys, "grover", "25", "0")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("qubits", ["2000", "2100", "5000"])
    def test_capacity_before_default_iterations(self, capsys, qubits):
        # The optimal count for 2100 qubits overflows a float and, for 5000,
        # divides by zero: the cap must come first.
        code, out, err = run_cli(capsys, "grover", qubits, "0")
        assert (code, out) == (3, "")
        assert err == f"error: grover path supports at most 20 qubits, got {qubits}\n"

    def test_capacity_with_explicit_iterations(self, capsys):
        # GroverSpec built 1 << qubits to bound the marked index: an OverflowError traceback.
        qubits = str(10**30)
        code, out, err = run_cli(capsys, "grover", qubits, "0", "--iterations", "1")
        assert (code, out) == (3, "")
        assert err == f"error: grover path supports at most 20 qubits, got {qubits}\n"

    def test_uncountable_iterations_above_a_raised_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("QSIM_MAX_QUBITS", "6000")
        code, out, err = run_cli(capsys, "grover", "5000", "0")
        assert (code, out) == (3, "")
        assert "exceeds the float range" in err

    def test_bad_marked_index(self, capsys):
        code, out, err = run_cli(capsys, "grover", "2", "4")
        assert code == 2
        assert err != ""


class TestValidate:
    def test_ok(self, capsys, bell_file):
        code, out, err = run_cli(capsys, "validate", bell_file)
        assert (code, out, err) == (0, "OK\n", "")

    def test_truncated_file(self, capsys, tmp_path):
        path = tmp_path / "trunc.qcf"
        path.write_text("qubits 2\ncnot 0\n")
        code, out, err = run_cli(capsys, "validate", str(path))
        assert code == 2
        assert out == ""
        assert "BadArity" in err

    def test_unknown_gate_named_in_message(self, capsys, bad_file):
        code, _, err = run_cli(capsys, "validate", bad_file)
        assert code == 2
        assert "UnknownGate" in err


@pytest.mark.parametrize("value", ["١٢", "1_0", " 7"])
def test_integers_are_ascii_digits_only(capsys, bell_file, value):
    # int() also takes Unicode digits, underscores and surrounding blanks;
    # the qcf grammar takes ASCII digits only, and so does every CLI integer.
    for argv in (
        ["run", bell_file, "--shots", value],
        ["run", bell_file, "--seed", value],
        ["grover", value, "0"],
        ["grover", "4", value],
        ["grover", "2", "0", "--iterations", value],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"invalid int value: '{value}'" in err
    assert run_cli(capsys, "run", bell_file, "--shots", "+12", "--seed", "-0")[0] == 0


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_parser_is_built_once(capsys, monkeypatch, bell_file):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    assert run_cli(capsys, "validate", bell_file) == (0, "OK\n", "")
    assert run_cli(capsys, "run", bell_file, "--shots", "5")[0] == 0
    assert calls == []


def test_reused_parser_prints_the_same_help_and_usage_errors(capsys, bell_file):
    first = [run_cli(capsys, "--help"), run_cli(capsys, "run", bell_file, "--format", "xml")]
    assert run_cli(capsys, "run", bell_file, "--shots", "5")[0] == 0
    assert [run_cli(capsys, "--help"), run_cli(capsys, "run", bell_file, "--format", "xml")] == first
    assert first[0] == (0, cli.build_parser().format_help(), "")
    assert first[1][0] == 2 and "invalid choice: 'xml'" in first[1][2]
