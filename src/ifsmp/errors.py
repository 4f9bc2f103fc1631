"""Exception types shared across the library."""


class IfsmpError(Exception):
    """Base class for all library errors."""


class NotSymmetric(IfsmpError):
    """Input matrix violates the symmetry tolerance."""


class NotPositiveDefinite(IfsmpError):
    """A Cholesky pivot was non-positive."""


class SingularInput(IfsmpError):
    """An upper-triangular input has a (numerically) zero diagonal entry."""


class PreconditionViolated(IfsmpError):
    """A documented call precondition does not hold."""


class DimensionTooLarge(IfsmpError):
    """Problem dimension exceeds the guard of an exponential-cost routine."""


class InvalidPower(IfsmpError):
    """Transmit power must be strictly positive."""


class ZeroVector(IfsmpError):
    """A nonzero coefficient vector was required."""


class SingularCoefficientMatrix(IfsmpError):
    """Integer coefficient matrix has zero determinant."""


class CoefficientOverflow(IfsmpError, OverflowError):
    """An exact integer result does not fit the int64 array it is returned in."""


class SearchBudgetExceeded(IfsmpError, RuntimeError):
    """A search or reduction reached its step cap, or ended without the
    result it is bound to find."""


class ConfigError(IfsmpError):
    """Benchmark configuration violates its invariants."""
