"""The qcf circuit file format: a tiny line-oriented text language.

Grammar (UTF-8; LF, CRLF and a lone CR each end a line, as in a text-mode
``open``, for :func:`parse` and :func:`decode` alike):

    file        := header line*
    header      := "qubits" INT          -- INT >= 1, must be the first line
    line        := comment | instruction | blank
    comment     := "#" ...               -- full-line only
    instruction := GATE INT{arity}       -- one per line
    GATE        := x | y | z | s | t | h | swap | cnot   -- case-insensitive
    INT         := [0-9]+                -- ASCII digits only, at most 4300

cnot wires read control then target. Canonical output (``serialize``) uses
lowercase gate labels, single spaces, one instruction per line, and a
trailing newline; it refuses a gate that is not the library gate of its
label, so parse(serialize(c)) == c for every circuit it writes.

Errors carry a 1-based line and column pointing at the offending token,
and the first error wins.
"""

import enum
import re

from .circuit import Circuit, Instruction
from .errors import QsimError, UnknownGateError
from .gates import LIBRARY


class ParseErrorKind(enum.Enum):
    UNKNOWN_GATE = "UnknownGate"
    BAD_ARITY = "BadArity"
    WIRE_OUT_OF_RANGE = "WireOutOfRange"
    BAD_INTEGER = "BadInteger"
    MISSING_HEADER = "MissingHeader"
    TRAILING_GARBAGE = "TrailingGarbage"
    BAD_ENCODING = "BadEncoding"


class ParseError(QsimError):
    """A rejection with a precise source location."""

    def __init__(self, line: int, column: int, kind: ParseErrorKind, message: str):
        super().__init__(f"line {line}, column {column}: {kind.value}: {message}")
        self.line = line
        self.column = column
        self.kind = kind
        self.message = message


_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[0-9]+\Z")  # ASCII only: \d would take any Unicode digit

_GATES = {label.lower(): gate for label, gate in LIBRARY.items()}


def _tokens(line: str) -> list[tuple[str, int]]:
    """(text, 1-based column) for each whitespace-separated token."""
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _parse_int(text: str, line_no: int, column: int, what: str) -> int:
    if not _INT.match(text):
        raise ParseError(
            line_no, column, ParseErrorKind.BAD_INTEGER, f"{what} must be an unsigned integer, got {text!r}"
        )
    try:
        return int(text)
    except ValueError:  # more digits than int() converts (4300 by default)
        raise ParseError(
            line_no, column, ParseErrorKind.BAD_INTEGER, f"{what} has too many digits ({len(text)})"
        ) from None


def _universal_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode(data: bytes) -> str:
    """The text of a qcf file's bytes, as a text-mode ``open`` reads it.

    Strict UTF-8 with universal newlines (a lone CR also ends a line). A
    byte that is not UTF-8 raises a located :class:`ParseError`.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = _universal_newlines(data[: exc.start].decode("utf-8"))
        raise ParseError(
            before.count("\n") + 1,
            len(before) - before.rfind("\n"),
            ParseErrorKind.BAD_ENCODING,
            f"byte 0x{data[exc.start]:02x} is not valid UTF-8",
        ) from None
    return _universal_newlines(text)


def parse(source: str) -> Circuit:
    """Parse qcf text into a circuit."""
    lines = _universal_newlines(source).split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # trailing newline produces no extra line

    header_tokens = _tokens(lines[0]) if lines else []
    if not header_tokens or header_tokens[0][0].lower() != "qubits":
        found_col = header_tokens[0][1] if header_tokens else 1
        raise ParseError(
            1, found_col, ParseErrorKind.MISSING_HEADER, "file must start with 'qubits N'"
        )
    if len(header_tokens) < 2:
        raise ParseError(
            1, header_tokens[0][1], ParseErrorKind.BAD_INTEGER, "header needs a qubit count"
        )
    count_text, count_col = header_tokens[1]
    num_qubits = _parse_int(count_text, 1, count_col, "qubit count")
    if num_qubits < 1:
        raise ParseError(
            1, count_col, ParseErrorKind.BAD_INTEGER, "qubit count must be at least 1"
        )
    if len(header_tokens) > 2:
        text, col = header_tokens[2]
        raise ParseError(
            1, col, ParseErrorKind.TRAILING_GARBAGE, f"unexpected token {text!r} after header"
        )

    instructions = []
    for line_no, raw in enumerate(lines[1:], start=2):
        stripped = raw.lstrip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokens(raw)
        label, label_col = toks[0]
        gate = _GATES.get(label.lower())
        if gate is None:
            raise ParseError(
                line_no, label_col, ParseErrorKind.UNKNOWN_GATE, f"unknown gate {label!r}"
            )
        arity = gate.arity
        if len(toks) - 1 < arity:
            raise ParseError(
                line_no,
                label_col,
                ParseErrorKind.BAD_ARITY,
                f"gate {label!r} expects {arity} wire(s), got {len(toks) - 1}",
            )
        if len(toks) - 1 > arity:
            text, col = toks[1 + arity]
            raise ParseError(
                line_no, col, ParseErrorKind.TRAILING_GARBAGE, f"unexpected token {text!r}"
            )
        wires = []
        for text, col in toks[1 : 1 + arity]:
            wire = _parse_int(text, line_no, col, "wire index")
            if wire >= num_qubits:
                raise ParseError(
                    line_no,
                    col,
                    ParseErrorKind.WIRE_OUT_OF_RANGE,
                    f"wire {wire} out of range for {num_qubits} qubit(s)",
                )
            if wire in wires:
                raise ParseError(
                    line_no,
                    col,
                    ParseErrorKind.WIRE_OUT_OF_RANGE,
                    f"wire {wire} listed twice in one instruction",
                )
            wires.append(wire)
        instructions.append(Instruction(gate, tuple(wires)))

    return Circuit(num_qubits, instructions)


def serialize(circuit: Circuit) -> str:
    """Canonical text form of a circuit of library gates; any other gate raises :class:`UnknownGateError`."""
    out = [f"qubits {circuit.num_qubits}"]
    for instr in circuit.instructions:
        if LIBRARY.get(instr.gate.label) != instr.gate:
            raise UnknownGateError(f"qcf has no name for {instr.gate!r}: it is not the library gate of its label")
        out.append(" ".join([instr.gate.label.lower(), *map(str, instr.wires)]))
    return "\n".join(out) + "\n"
