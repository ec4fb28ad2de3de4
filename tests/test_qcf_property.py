"""Property tests: parse reads text and the bytes of a file alike, and fails only with ParseError."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qsim.qcf import ParseError, decode, parse  # noqa: E402

# Lines are a word and up to three numbers, over the alphabet of the grammar:
# gate names in both cases, the header word, comments, spaces and digits,
# among them the Arabic-Indic three, which the grammar rejects, and one digit
# more than int() converts by default. Lines end in LF, CR or CRLF.
_SPACES = st.sampled_from(("", " ", "  "))
_GAPS = st.sampled_from((" ", "  "))
_NUMBERS = st.sampled_from(("0", "1", "2", "3", "10", "٣", "7" * 4301, "h"))
_NEWLINES = st.sampled_from(("\n", "\r", "\r\n"))


def _line(words):
    return st.tuples(_SPACES, words, st.lists(st.tuples(_GAPS, _NUMBERS), max_size=3)).map(
        lambda t: t[0] + t[1] + "".join(gap + number for gap, number in t[2])
    )


_HEADER = _line(st.sampled_from(("qubits", "QUBITS", "h", "#", "")))
_INSTRUCTION = _line(
    st.sampled_from(("x", "Y", "z", "s", "t", "H", "swap", "CNOT", "bad", "qubits", "#", ""))
)
_TEXT = st.tuples(
    _HEADER,
    st.lists(st.tuples(_NEWLINES, _INSTRUCTION), max_size=8),
    st.sampled_from(("", "\n", "\r", "\r\n")),
).map(lambda t: t[0] + "".join(newline + line for newline, line in t[1]) + t[2])


def _outcome(text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.line, exc.column, exc.kind)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(text=_TEXT)
def test_text_and_file_bytes_parse_alike(text):
    assert _outcome(text) == _outcome(decode(text.encode("utf-8")))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(text=_TEXT)
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass
