"""Exception types shared across the toolkit."""


class EpkitError(Exception):
    """Base class for all epkit errors."""


class DimensionMismatch(EpkitError):
    """Operands have incompatible shapes."""


class NotSquare(EpkitError):
    """A square matrix was required."""


class NotHermitian(EpkitError):
    """A Hermitian matrix was required."""


class ConvergenceFailure(EpkitError):
    """A factorization iteration did not converge within its budget."""


class InvalidExponent(EpkitError):
    """Fractional powers require a strictly positive exponent."""


class InvalidDimension(EpkitError):
    """Matrix dimensions outside the supported range."""


class InvalidSpec(EpkitError):
    """A generator or model specification is inconsistent."""


class UnknownTheorem(EpkitError):
    """Requested theorem id is not in the verifier dispatch table."""


class MatrixFileError(EpkitError):
    """A matrix or report file failed schema validation."""
