"""Command-line front end.

Subcommands:
    run FILE        execute a .qcf circuit (sampled or exact output)
    unitary FILE    print the circuit's full unitary matrix
    grover N MARKED run the search demonstrator
    validate FILE   check that a file parses

Data goes to stdout, diagnostics to stderr; ``run`` prints through the
``render`` of its result in :mod:`qsim.measure`. Exit codes: 0 success,
2 parse/usage error, 3 capacity/runtime error, running out of memory
included. Identical invocations (same flags, same seed) produce
byte-identical stdout.
"""

import argparse
import sys

import numpy as np

from . import capacity, measure, qcf
from .algorithms import (
    GroverSpec,
    grover_optimal_iterations,
    grover_run,
    grover_success_closed_form,
)
from .circuit import Circuit, apply_density, unitary
from .errors import QsimError
from .qcf import ParseError
from .qstate import to_density, zero_state  # noqa: F401  to_density: perfbench/spans.py wraps it by name

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _integer(text: str) -> int:
    """An ASCII decimal integer by ``capacity``'s rule; argparse turns the ValueError into a usage error."""
    if not capacity._INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


_integer.__name__ = "int"  # argparse names the type in its message: "invalid int value"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsim",
        description="Desk-scale quantum circuit simulator for .qcf files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a circuit file")
    run.add_argument("file", help="path to a .qcf circuit")
    run.add_argument("--shots", type=_integer, default=1024, help="samples to draw (default 1024)")
    run.add_argument("--seed", type=_integer, default=0, help="64-bit sampling seed (default 0)")
    run.add_argument(
        "--backend",
        choices=("statevector", "density"),
        default="statevector",
        help="statevector samples shots; density prints the exact distribution "
        "(default statevector)",
    )
    run.add_argument(
        "--format",
        choices=("json", "csv", "text"),
        default="text",
        help="output format (default text)",
    )
    run.set_defaults(func=_cmd_run)

    unitary_cmd = sub.add_parser("unitary", help="print the circuit unitary")
    unitary_cmd.add_argument("file", help="path to a .qcf circuit")
    unitary_cmd.set_defaults(func=_cmd_unitary)

    grover = sub.add_parser("grover", help="run the search demonstrator")
    grover.add_argument("qubits", type=_integer, help="number of qubits")
    grover.add_argument("marked", type=_integer, help="marked basis index")
    grover.add_argument(
        "--iterations", type=_integer, default=None, help="loop count (default: optimal)"
    )
    grover.set_defaults(func=_cmd_grover)

    validate = sub.add_parser("validate", help="check that a file parses")
    validate.add_argument("file", help="path to a .qcf circuit")
    validate.set_defaults(func=_cmd_validate)

    return parser


def _load_circuit(path: str) -> Circuit:
    with open(path, "rb") as handle:
        data = handle.read()
    return qcf.parse(qcf.decode(data))


def _format_density(circuit: Circuit, fmt: str) -> str:
    # Checked before |0...0> is built: zero_state checks the larger statevector cap.
    capacity.check("density", circuit.num_qubits)
    rho = apply_density(circuit, zero_state(circuit.num_qubits))
    return measure.probabilities_density(rho).render(fmt)


def _cmd_run(args, out, err) -> int:
    try:
        measure.check_sampling(args.shots, args.seed)
    except QsimError as exc:
        err.write(f"error: --{exc}\n")
        return EXIT_USAGE
    circuit = _load_circuit(args.file)
    if args.backend == "density":
        out.write(_format_density(circuit, args.format))
    else:
        out.write(measure.sample(circuit, args.shots, args.seed).render(args.format))
    return EXIT_OK


def _cmd_unitary(args, out, err) -> int:
    u = unitary(_load_circuit(args.file))
    row_format = " ".join(["%.6f%+.6fi"] * len(u)) + "\n"
    # The real and imaginary parts of a row, interleaved, rounded as round()
    # rounds an np.float64, -0.0 cleared: one vector pass, one format per row.
    for parts in u.view(np.float64):
        out.write(row_format % tuple((np.round(parts, 6) + 0.0).tolist()))
    return EXIT_OK


def _cmd_grover(args, out, err) -> int:
    iterations = args.iterations
    if iterations is None:
        if args.qubits < 1:
            err.write("error: qubits must be at least 1\n")
            return EXIT_USAGE
        capacity.check("grover", args.qubits)
        iterations = grover_optimal_iterations(args.qubits)
    try:
        spec = GroverSpec(num_qubits=args.qubits, marked=args.marked, iterations=iterations)
    except QsimError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    result = grover_run(spec)
    out.write(f"qubits {spec.num_qubits}\n")
    out.write(f"marked {spec.marked}\n")
    out.write(f"iterations {spec.iterations}\n")
    out.write(f"success_probability {result.success_probability:.9f}\n")
    out.write(
        f"closed_form {grover_success_closed_form(spec.num_qubits, spec.iterations):.9f}\n"
    )
    return EXIT_OK


def _cmd_validate(args, out, err) -> int:
    _load_circuit(args.file)
    out.write("OK\n")
    return EXIT_OK


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args, sys.stdout, sys.stderr)
    except ParseError as exc:
        sys.stderr.write(f"{getattr(args, 'file', 'input')}: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        sys.stderr.write("error: out of memory\n")
        return EXIT_CAPACITY
    except QsimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
