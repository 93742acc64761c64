"""Exception types shared across the package."""


class SpreadRankError(Exception):
    """Base class for all package errors."""


class SingularMatrix(SpreadRankError):
    """Inverse requested for a matrix with zero determinant."""


class NotRankOne(SpreadRankError):
    """Rank-one factorisation requested for a matrix of rank != 1."""


class NotInvertible(SpreadRankError):
    """A group element was built from a singular matrix."""


class NotIrreducible(SpreadRankError):
    """Extension field modulus factors over the base field."""


class NotNonsingular(SpreadRankError):
    """A matrix space expected to be nonsingular contains a singular nonzero element."""


class BadParameters(SpreadRankError):
    """Construction parameters violate a stated precondition."""


class DimensionMismatch(SpreadRankError):
    """Operands have incompatible dimensions."""


class BadSlot(SpreadRankError):
    """Tensor slot index out of range."""


class EncodingOverflow(SpreadRankError):
    """Integer encoding does not fit the declared (q, n)."""


class ParseError(SpreadRankError):
    """Malformed input file.  Carries the offending 1-based line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class NotContained(SpreadRankError):
    """Span-containment precondition failed."""


class DependentGenerators(SpreadRankError):
    """A list of matrices expected to be independent is linearly dependent."""


class TooLarge(SpreadRankError):
    """Exhaustive enumeration would exceed the supported size."""


class NotFound(SpreadRankError):
    """Unknown atlas entry name."""


class RankExceedsCap(SpreadRankError):
    """Tensor rank search exceeded the caller-supplied cap."""


class UnknownBound(SpreadRankError):
    """The bound table has no entry and exhaustive search is infeasible."""
