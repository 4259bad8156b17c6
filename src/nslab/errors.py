"""Exception hierarchy.

Validation errors mean the input was malformed before any numerics ran;
numeric errors mean a well-formed computation hit a mathematical obstruction
(singular matrix, vanishing denominator, lost convergence).
"""


class NslabError(Exception):
    """Base class for all package errors."""


class NslabValidationError(NslabError):
    """Malformed or inconsistent input."""


class NslabNumericError(NslabError):
    """A numeric operation failed on mathematically bad data.

    A failure at one point of a batch names that point: `index` is its
    position in the batch and `x`, `p` are its coordinates, all repeated at
    the end of the message.
    """

    def __init__(self, message, index=None, x=None, p=None):
        super().__init__(message)
        self.reason = message
        self.index = index
        self.x = x
        self.p = p

    def __str__(self):
        if self.index is None:
            return self.reason
        return f"{self.reason} at point {self.index}: x={self.x}, p={self.p}"


class ParseError(NslabValidationError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownSymbol(NslabValidationError):
    pass


class ValidationError(NslabValidationError):
    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field


class RepresentationMismatch(NslabValidationError):
    pass


class DimensionTooSmall(NslabValidationError):
    pass


class NonConvergence(NslabNumericError):
    pass


class SingularJacobian(NslabNumericError):
    pass


class DegenerateOmega(NslabNumericError):
    pass


class ZeroMomentum(NslabNumericError):
    pass


class ZeroNu(NslabNumericError):
    pass


class VanishingNu(NslabNumericError):
    pass


class RankDeficient(NslabNumericError):
    pass


class InsufficientSamples(NslabValidationError):
    pass
