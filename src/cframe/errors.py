"""Exception types shared across the package."""

from __future__ import annotations


class CFrameError(Exception):
    """Base class for every error this library raises on purpose."""


class SpaceMismatch(CFrameError):
    """Operands live over different algebras, spaces, or fiber shapes."""


class NotPositive(CFrameError):
    """A positive operator or algebra element was required."""


class NotHermitian(CFrameError):
    """Matrix fails the Hermitian symmetry check."""


class NotDefinite(CFrameError):
    """Matrix fails the positive-definiteness check."""


class NotPSD(CFrameError):
    """Matrix fails the positive-semidefiniteness check."""


class NotCommuting(CFrameError):
    """A commutation hypothesis fails its residual check."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class LengthMismatch(CFrameError):
    """Coefficient sequence length differs from the operator family size."""


class SingularFrameOperator(CFrameError):
    """Frame operator is not invertible, reconstruction impossible."""


class ZeroOperator(CFrameError):
    """A nonzero operator was required."""


class NotSurjective(CFrameError):
    """An operator with full range was required."""


class NotGLPlus(CFrameError):
    """A positive invertible operator was required."""


class NotInvertible(CFrameError):
    """An invertible operator was required."""


class NotIncluded(CFrameError):
    """Range inclusion fails: the least-squares factor leaves a residual.

    `residual` holds the relative defect of the best factorization.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IntertwiningViolated(CFrameError):
    """A map fails the inner-product or operator intertwining identity."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class PreconditionUnverified(CFrameError):
    """A hypothesis that must be certified beforehand is not."""


class NotFinite(CFrameError):
    """A computed product overflowed; the message names the operator."""


class BadParameters(CFrameError):
    """Scalar parameters outside their admissible domain."""


class ParseError(CFrameError):
    """Input file is not syntactically valid; message carries the position."""


class ValidationError(CFrameError):
    """Input file parsed but violates the schema; message names the field."""
