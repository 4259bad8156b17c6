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
    position in the batch and `y` (surface parameters), `x`, `p` are those of
    its coordinates the failing computation had, all repeated at the end of
    the message.
    """

    def __init__(self, message, index=None, x=None, p=None, y=None):
        super().__init__(message)
        self.reason = message
        self.index = index
        self.x = x
        self.p = p
        self.y = y

    def __str__(self):
        if self.index is None:
            return self.reason
        coords = ", ".join(f"{name}={value}" for name, value in
                           (("y", self.y), ("x", self.x), ("p", self.p))
                           if value is not None)
        return f"{self.reason} at point {self.index}" + (f": {coords}" if coords else "")


class ParseError(NslabValidationError):
    def __init__(self, message, line=1, column=0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.reason = message
        self.line = line
        self.column = column


class UnknownSymbol(NslabValidationError):
    pass


class NonFiniteConstant(NslabValidationError):
    """A constant, or an operation on constants folded at construction, is
    not a finite real number."""


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


class NonFinite(NslabNumericError):
    pass


class InsufficientSamples(NslabValidationError):
    pass
