"""Qubit-count limits for the different execution paths.

Defaults keep every operation desk-scale: state vectors up to 24 qubits
(16M amplitudes), density matrices up to 10, explicit circuit unitaries up
to 12 (the same limit caps a Hamiltonian at dimension 2**12), and the
search demonstrator up to 20. Setting the environment
variable ``QSIM_MAX_QUBITS`` to a positive integer, written in ASCII
digits with an optional sign, overrides all four caps at once.
"""

import os
import re

from .errors import CapacityError

ENV_OVERRIDE = "QSIM_MAX_QUBITS"

# An ASCII decimal integer, as the qcf grammar and the CLI read one: int()
# alone would also take Unicode digits, underscores and surrounding whitespace.
_INTEGER = re.compile(r"[+-]?[0-9]+")

STATEVECTOR_QUBITS = 24
DENSITY_QUBITS = 10
UNITARY_QUBITS = 12
GROVER_QUBITS = 20

_DEFAULTS = {
    "statevector": STATEVECTOR_QUBITS,
    "density": DENSITY_QUBITS,
    "unitary": UNITARY_QUBITS,
    "grover": GROVER_QUBITS,
}


def limit(kind: str) -> int:
    """Current qubit cap for ``kind``, honoring the environment override."""
    raw = os.environ.get(ENV_OVERRIDE)
    if raw is not None:
        if not _INTEGER.fullmatch(raw):
            raise CapacityError(f"{ENV_OVERRIDE} must be an integer, got {raw!r}")
        try:
            cap = int(raw)
        except ValueError:  # more digits than int() converts (4300 by default)
            raise CapacityError(f"{ENV_OVERRIDE} has too many digits ({len(raw)})") from None
        if cap < 1:
            raise CapacityError(f"{ENV_OVERRIDE} must be at least 1, got {raw!r}")
        return cap
    return _DEFAULTS[kind]


def check(kind: str, num_qubits: int) -> None:
    """Raise :class:`CapacityError` when ``num_qubits`` exceeds the cap."""
    cap = limit(kind)
    if num_qubits > cap:
        raise CapacityError(
            f"{kind} path supports at most {cap} qubits, got {num_qubits}"
        )
