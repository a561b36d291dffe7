"""Exception hierarchy shared across the package: one class per kind of fault.

Every domain error derives from :class:`SchmidtForgeError` so callers (and the
CLI) can catch one base class and report the concrete error name; the message
says which value was at fault. Each class is an error a command can print,
except ``InfeasibleError``, the planners' underflow guard. The verifiers in
``oracle`` reject bad arguments with a plain ``ValueError``.
"""

#: largest dimension exhaustive enumeration accepts
MAX_ENUM_DIM = 14
#: smallest dimension ``oracle.run_validation`` draws
MIN_VALIDATION_DIM = 3


class SchmidtForgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpectrumError(SchmidtForgeError):
    """Coefficients that are no spectrum: empty, non-finite, negative, not
    normalized, not 1-D or fewer than two."""


class OutOfRangeError(SchmidtForgeError):
    """A parameter outside its valid range: a reference, p_fix, xi or a
    sampled dimension."""


class RankDeficientError(SchmidtForgeError):
    """A request that a spectrum with a zero coefficient cannot meet."""


class InfeasibleError(SchmidtForgeError):
    """A planner's water level underflowed to 0 (guarded; unreachable for valid inputs)."""


class ParseError(SchmidtForgeError):
    """A file is not UTF-8 text or not valid JSON; the message gives the position."""


class SchemaError(SchmidtForgeError):
    """A file parsed as JSON but does not match the expected schema."""


class IoError(SchmidtForgeError):
    """An underlying filesystem operation failed."""
