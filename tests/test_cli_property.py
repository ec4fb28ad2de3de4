"""Property test: ``cli.main`` exits 0, 2 or 3 and raises nothing, whatever a shell can pass it."""

import contextlib
import io
import os

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qsim import capacity, cli  # noqa: E402
from test_qcf_property import _INSTRUCTION, _NEWLINES, _TEXT  # noqa: E402

# Every cap is 6 inside the test, so runs stay short: 7 is just over it, and
# 63 and 10**4 qubits are past numpy's largest array. Lines come from the
# parse test's alphabet, or are valid on three qubits, so that some files run.
CAP = "6"
_QUBITS = st.sampled_from(("1", "2", "3", "6", "7", "63", "10000"))
_LINE = st.one_of(_INSTRUCTION, st.sampled_from(("h 0", "cnot 0 1", "S 1", "y 2", "swap 2 0", "t 1")))
_QCF = st.one_of(
    _TEXT,
    st.tuples(_QUBITS, st.lists(st.tuples(_NEWLINES, _LINE), max_size=6)).map(
        lambda t: f"qubits {t[0]}" + "".join(newline + line for newline, line in t[1]) + "\n"
    ),
)

# Words that are no integer, and Unicode digits (3 and 12), which int() takes
# but the CLI refuses, as the qcf grammar does.
_NON_NUMBERS = st.sampled_from(("", "x", "1e3", "0x10", "nan", "--", "٣", "१२"))


def _numbers(low, high):
    """Integers in [1, high], in [low, 0], and words that are no integer, a third each."""
    return st.one_of(st.integers(1, high).map(str), st.integers(low, 0).map(str), _NON_NUMBERS)


# Positive counts stay small: an unbounded --shots or --iterations is a long
# run, not a crash.
_SHOTS = _numbers(-(2**64), 10**4)
_ITERATIONS = _numbers(-(2**64), 10**3)
_SEEDS = _numbers(-(2**64), 2**64 + 1)
_GROVER_QUBITS = st.one_of(_numbers(-3, 8), st.sampled_from(("63", "2100", "5000", "10000", str(2**64))))
_MARKED = _numbers(-1, 2**64)
_RUN_OPTIONS = (
    ("--shots", _SHOTS),
    ("--seed", _SEEDS),
    ("--backend", st.sampled_from(("statevector", "density", "tensor", ""))),
    ("--format", st.sampled_from(("text", "csv", "json", "xml"))),
)
_STRAY = st.lists(st.sampled_from(("--shots", "--iterations", "5", "-h", "--trace")), max_size=2)


@st.composite
def _argv(draw, file, missing, directory):
    command = draw(st.sampled_from(("run", "unitary", "grover", "validate", "frobnicate")))
    if command == "grover":
        argv = [command, draw(_GROVER_QUBITS), draw(_MARKED)]
        if draw(st.booleans()):
            argv += ["--iterations", draw(_ITERATIONS)]
    else:
        argv = [command, draw(st.sampled_from((file, missing, directory)))]
        for flag, values in _RUN_OPTIONS if command == "run" else ():
            if draw(st.booleans()):
                argv += [flag, draw(values)]
    return argv + (draw(_STRAY) if draw(st.integers(0, 3)) == 0 else [])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_property")


@hypothesis.settings(max_examples=500, deadline=None)
@hypothesis.given(data=st.data(), text=_QCF)
def test_exit_code_is_0_2_or_3_and_nothing_raises(workdir, data, text):
    file = workdir / "c.qcf"
    file.write_bytes(text.encode("utf-8"))
    argv = data.draw(_argv(str(file), str(workdir / "missing.qcf"), str(workdir)))
    saved = os.environ.get(capacity.ENV_OVERRIDE)
    os.environ[capacity.ENV_OVERRIDE] = CAP
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        if saved is None:
            del os.environ[capacity.ENV_OVERRIDE]
        else:
            os.environ[capacity.ENV_OVERRIDE] = saved
    assert code in (0, 2, 3), (argv, err.getvalue())
    if any(ch.isdigit() and not ch.isascii() for arg in argv for ch in arg):
        assert code == 2, (argv, err.getvalue())
