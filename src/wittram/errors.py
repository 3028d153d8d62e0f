"""Shared exception types.

Every error raised on purpose by this package derives from WittramError,
so callers can catch the package's failures without catching bugs.
"""


class WittramError(Exception):
    """Base class for all deliberate failures raised by wittram."""


class SpecMismatch(WittramError):
    """Operands live over two different residue fields."""


class ShapeMismatch(WittramError):
    """Vector lengths or component kinds do not line up."""


class DivisionByZero(WittramError, ZeroDivisionError):
    """Division or inversion of an exact zero."""


class PrecisionExhausted(WittramError):
    """The answer depends on coefficients beyond the tracked precision."""


class UnsupportedInput(WittramError):
    """The value is outside the decidable fragment of this operation."""


class ResidueTooSmall(WittramError):
    """The residue field has no room for the requested construction."""


class InternalInexactDivision(WittramError):
    """An integer division that must be exact left a remainder (a bug guard)."""


class RuleViolation(WittramError):
    """A rewrite rule was applied to a symbol that fails its side condition."""


class HypothesisViolation(WittramError):
    """A stated hypothesis of the operation fails on the given input."""


class HypothesisNotVerified(WittramError):
    """A hypothesis could not be confirmed; names the failing check."""

    def __init__(self, hypothesis, message=""):
        self.hypothesis = hypothesis
        super().__init__(f"{hypothesis}: {message}" if message else hypothesis)


class UnsupportedCase(WittramError):
    """A case the implementation deliberately does not handle."""


class NoRootError(WittramError):
    """A required p-th root does not exist."""


class DegenerateExtension(WittramError):
    """The defining vector produces a degenerate (non-field) extension."""


class LimitExceeded(WittramError):
    """A size cap (a command-line literal's exponents or precision, vector
    length, prime bound) was exceeded."""


class ParseError(WittramError):
    """Text input rejected; carries the offset and the expected tokens."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = tuple(expected)
        detail = f"at offset {position}: {message}"
        if self.expected:
            detail += " (expected " + ", ".join(self.expected) + ")"
        super().__init__(detail)
