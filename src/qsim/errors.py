"""Exception hierarchy shared across the package.

Every error raised by qsim derives from :class:`QsimError`, so callers can
catch one type at the API boundary. The subclasses mirror the distinct
failure modes of the library: shape conflicts, capacity limits, validation
of matrix/state invariants, and wire bookkeeping.
"""

__all__ = [
    "QsimError",
    "DimensionMismatchError",
    "CapacityError",
    "NotSquareError",
    "NotHermitianError",
    "NotUnitaryError",
    "NotPowerOfTwoError",
    "NotNormalizedError",
    "PositivityError",
    "ProbabilityError",
    "UnknownGateError",
    "ArityError",
    "WireOutOfRangeError",
    "DuplicateWireError",
    "SubsystemError",
]


class QsimError(Exception):
    """Base class for all qsim errors."""


class DimensionMismatchError(QsimError):
    """Operands have incompatible shapes or qubit counts."""


class CapacityError(QsimError):
    """A requested operation exceeds the configured size limits."""


class NotSquareError(QsimError):
    """A square matrix was required."""


class NotHermitianError(QsimError):
    """A Hermitian matrix was required."""


class NotUnitaryError(QsimError):
    """A gate matrix is not unitary."""


class NotPowerOfTwoError(QsimError):
    """An amplitude array or matrix dimension is not a power of two."""


class NotNormalizedError(QsimError):
    """State amplitudes do not satisfy the normalization condition."""


class PositivityError(QsimError):
    """A density matrix has an eigenvalue below the allowed floor."""


class ProbabilityError(QsimError):
    """Ensemble probabilities are out of range or do not sum to one."""


class UnknownGateError(QsimError):
    """Gate label is not in the fixed gate library."""


class ArityError(QsimError):
    """Wire count does not match the gate arity."""


class WireOutOfRangeError(QsimError):
    """A wire index is outside the circuit, or wires collide."""


class DuplicateWireError(WireOutOfRangeError):
    """The same wire was listed twice in one instruction."""


class SubsystemError(QsimError):
    """A qubit subset is empty, not strict, or out of range."""
