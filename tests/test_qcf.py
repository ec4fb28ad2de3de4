import pytest

from qsim import gates
from qsim.algorithms import bell_circuit
from qsim.circuit import Circuit, Instruction
from qsim.errors import UnknownGateError
from qsim.qcf import ParseError, ParseErrorKind, decode, parse, serialize

BELL_TEXT = "qubits 2\nh 0\ncnot 0 1\n"


def err(source: str) -> ParseError:
    with pytest.raises(ParseError) as excinfo:
        parse(source)
    return excinfo.value


class TestParse:
    def test_bell_file(self):
        assert parse(BELL_TEXT) == bell_circuit()

    def test_header_only(self):
        c = parse("qubits 3\n")
        assert c.num_qubits == 3
        assert c.instructions == ()

    def test_comments_and_blanks(self):
        c = parse("qubits 2\n\n# prepare\nh 0\n   # indented comment\n\ncnot 0 1\n")
        assert c == bell_circuit()

    def test_case_insensitive_gates(self):
        assert parse("qubits 2\nH 0\nCNOT 0 1\n") == bell_circuit()
        assert parse("qubits 2\nSwap 0 1\n").instructions[0].gate is gates.SWAP

    def test_crlf_normalized(self):
        assert parse("qubits 2\r\nh 0\r\ncnot 0 1\r\n") == bell_circuit()

    def test_lone_cr_ends_a_line(self):
        # The same rule as decode: the bytes of a file and its text parse alike.
        assert parse("qubits 1\rh 0\r") == Circuit(1, [Instruction(gates.H, (0,))])
        assert parse("qubits 2\rh 0\r\ncnot 0 1") == bell_circuit()

    def test_no_trailing_newline(self):
        assert parse("qubits 2\nh 0\ncnot 0 1") == bell_circuit()

    def test_all_gates_parse(self):
        src = "qubits 2\nx 0\ny 1\nz 0\ns 1\nt 0\nh 1\nswap 0 1\ncnot 1 0\n"
        c = parse(src)
        assert [i.gate.label for i in c.instructions] == [
            "X", "Y", "Z", "S", "T", "H", "SWAP", "CNOT",
        ]
        assert c.instructions[-1].wires == (1, 0)


class TestParseErrors:
    def test_missing_header(self):
        e = err("h 0\n")
        assert (e.line, e.kind) == (1, ParseErrorKind.MISSING_HEADER)

    def test_empty_file(self):
        e = err("")
        assert (e.line, e.column, e.kind) == (1, 1, ParseErrorKind.MISSING_HEADER)

    def test_integer_beyond_int_conversion(self):
        # int() converts at most 4300 digits by default; more is a located error.
        many = "9" * 5000
        for source, where in ((f"qubits {many}\n", (1, 8)), (f"qubits 2\nh {many}\n", (2, 3))):
            e = err(source)
            assert (e.line, e.column, e.kind) == (*where, ParseErrorKind.BAD_INTEGER)

    def test_blank_first_line(self):
        assert err("\nqubits 1\n").kind == ParseErrorKind.MISSING_HEADER

    def test_header_without_count(self):
        assert err("qubits\n").kind == ParseErrorKind.BAD_INTEGER

    def test_header_bad_count(self):
        assert err("qubits two\n").kind == ParseErrorKind.BAD_INTEGER
        assert err("qubits -1\n").kind == ParseErrorKind.BAD_INTEGER
        assert err("qubits 0\n").kind == ParseErrorKind.BAD_INTEGER

    def test_header_trailing_garbage(self):
        e = err("qubits 2 3\n")
        assert (e.line, e.column, e.kind) == (1, 10, ParseErrorKind.TRAILING_GARBAGE)

    def test_unknown_gate(self):
        e = err("qubits 1\nq 0\n")
        assert (e.line, e.column, e.kind) == (2, 1, ParseErrorKind.UNKNOWN_GATE)

    def test_wire_out_of_range(self):
        e = err("qubits 1\nh 5\n")
        assert (e.line, e.column, e.kind) == (2, 3, ParseErrorKind.WIRE_OUT_OF_RANGE)

    def test_missing_wires(self):
        e = err("qubits 2\ncnot 0\n")
        assert (e.line, e.kind) == (2, ParseErrorKind.BAD_ARITY)

    def test_extra_wires(self):
        e = err("qubits 2\nh 0 1\n")
        assert (e.line, e.column, e.kind) == (2, 5, ParseErrorKind.TRAILING_GARBAGE)

    def test_negative_wire(self):
        assert err("qubits 2\nh -1\n").kind == ParseErrorKind.BAD_INTEGER

    def test_fractional_wire(self):
        assert err("qubits 2\nh 1.5\n").kind == ParseErrorKind.BAD_INTEGER

    def test_non_ascii_digit_wire(self):
        e = err("qubits 4\nh \u0663\n")  # ARABIC-INDIC DIGIT THREE
        assert (e.line, e.column, e.kind) == (2, 3, ParseErrorKind.BAD_INTEGER)

    def test_duplicate_wire(self):
        e = err("qubits 2\ncnot 0 0\n")
        assert (e.line, e.kind) == (2, ParseErrorKind.WIRE_OUT_OF_RANGE)
        assert "twice" in e.message

    def test_first_error_wins(self):
        e = err("qubits 1\nh 5\nq 0\n")
        assert e.line == 2

    def test_message_carries_location_and_kind(self):
        e = err("qubits 1\nq 0\n")
        text = str(e)
        assert "line 2" in text
        assert "UnknownGate" in text

    def test_every_rejection_is_located(self):
        bad_sources = [
            "", "x 0\n", "qubits\n", "qubits 2 2\n", "qubits 1\nbad 0\n",
            "qubits 1\nh 9\n", "qubits 2\nswap 1\n", "qubits 2\nh zero\n",
        ]
        for source in bad_sources:
            e = err(source)
            assert e.line >= 1 and e.column >= 1


class TestDecode:
    def test_text_mode_newlines(self):
        assert decode(b"qubits 2\r\nh 0\rx 1\n") == "qubits 2\nh 0\nx 1\n"

    def test_invalid_byte_is_located(self):
        with pytest.raises(ParseError) as excinfo:
            decode("qubits 2\r\n\u00e9h 0\xff\n".encode("utf-8").replace(b"\xc3\xbf", b"\xff"))
        e = excinfo.value
        assert (e.line, e.column, e.kind) == (2, 5, ParseErrorKind.BAD_ENCODING)
        assert "0xff" in e.message


class TestSerialize:
    def test_bell_canonical_form(self):
        assert serialize(bell_circuit()) == BELL_TEXT

    def test_empty_circuit(self):
        assert serialize(Circuit(3)) == "qubits 3\n"

    def test_lowercase_canonicalization(self):
        c = Circuit(2, [Instruction(gates.SWAP, (1, 0))])
        assert serialize(c) == "qubits 2\nswap 1 0\n"

    def test_round_trip_random(self, rng, random_circuit):
        for _ in range(200):
            c = random_circuit(rng)
            assert parse(serialize(c)) == c

    def test_serialize_idempotent_through_parse(self, rng, random_circuit):
        for _ in range(100):
            text = serialize(random_circuit(rng))
            assert serialize(parse(text)) == text

    @pytest.mark.parametrize(
        "gate",
        [
            gates.Gate("H", 1, gates.X.matrix),  # a library label on another matrix
            gates.Gate("h", 1, gates.H.matrix),  # parse would name it "H"
            gates.Gate("U", 1, gates.H.matrix),  # a label qcf does not know
            gates.Gate("CNOT", 2, gates.SWAP.matrix),
        ],
        ids=["H-of-X", "lowercase-h", "U", "CNOT-of-SWAP"],
    )
    def test_refuses_a_gate_that_would_not_parse_back(self, gate):
        # Writing the label alone would change the circuit or give text parse refuses.
        c = Circuit(2, [Instruction(gates.H, (0,)), Instruction(gate, tuple(range(gate.arity)))])
        with pytest.raises(UnknownGateError):
            serialize(c)
