"""Exception hierarchy and input guards shared across the package.

Every domain error derives from :class:`SchmidtForgeError` so callers (and the
CLI) can catch one base class and report the concrete error name. Each class
is an error a command can print, except ``InfeasibleError``, the planners'
underflow guard. The verifiers in ``oracle`` reject bad arguments with a plain
``ValueError``.
"""

#: largest dimension exhaustive enumeration accepts
MAX_ENUM_DIM = 14
#: smallest dimension ``oracle.run_validation`` draws
MIN_VALIDATION_DIM = 3


class SchmidtForgeError(Exception):
    """Base class for all errors raised by this package."""


class EmptyInputError(SchmidtForgeError):
    """A coefficient list was empty."""


class NegativeEntryError(SchmidtForgeError):
    """A squared Schmidt coefficient was negative."""


class NonFiniteEntryError(SchmidtForgeError):
    """A squared Schmidt coefficient was NaN or infinite."""


class NotNormalizedError(SchmidtForgeError):
    """Squared coefficients do not sum to one within tolerance."""


class InvalidSpectrumError(SchmidtForgeError):
    """A spectrum violated a structural invariant (e.g. dim < 2)."""


class XiOutOfRangeError(SchmidtForgeError):
    """Interpolation parameter outside [0, 1]."""


class RankDeficientError(SchmidtForgeError):
    """An operation required a strictly positive smallest coefficient."""


class RankDeficientFullConcentrationError(RankDeficientError):
    """The requested reference entanglement exceeds what the spectrum's rank
    can support; the payoff supremum is attained only by zero-probability
    plans."""


class OutOfRangeError(SchmidtForgeError):
    """A reference value lies outside its valid range for the dimension."""


class PFixOutOfRangeError(SchmidtForgeError):
    """Fixed success probability outside (0, 1]."""


class InfeasibleError(SchmidtForgeError):
    """A planner's water level underflowed to 0 (guarded; unreachable for valid inputs)."""


class DimensionTooLargeError(SchmidtForgeError):
    """Sampling was requested above its dimension cap."""


class ParseError(SchmidtForgeError):
    """A file is not valid JSON. Carries ``lineno`` and ``colno``."""

    def __init__(self, message: str, lineno: int | None = None, colno: int | None = None):
        super().__init__(message)
        self.lineno = lineno
        self.colno = colno


class SchemaError(SchmidtForgeError):
    """A file parsed as JSON but does not match the expected schema."""


class IoError(SchmidtForgeError):
    """An underlying filesystem operation failed."""
