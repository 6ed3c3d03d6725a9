"""Exception types shared across the package."""


class QdccaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QdccaError, ValueError):
    """Invalid analysis configuration (bad q, scale, window plan, ...)."""


class ScaleTooLargeError(QdccaError, ValueError):
    """Series too short for the requested box scale (needs T >= 2s)."""


class DegenerateFitError(QdccaError, ValueError):
    """Box too short for the detrending polynomial (needs s >= m + 2)."""


class ZeroVarianceError(QdccaError, ValueError):
    """A series has no detrended variance at this scale; the correlation
    coefficient is undefined (constant input is the typical cause)."""

    def __init__(self, message: str, label: str | None = None):
        super().__init__(message)
        self.label = label


class ShapeMismatchError(QdccaError, ValueError):
    """Operands disagree in length, box count or dimension."""


class EigensolverError(QdccaError, RuntimeError):
    """Symmetric eigensolver failed to converge; carries matrix diagnostics."""


class InsufficientSupportError(QdccaError, ValueError):
    """Too few distinct degree values to fit a power-law slope."""


class EmptyIntersectionError(QdccaError, ValueError):
    """Timestamp grids of the input series share no common samples."""


class QuoteParseError(QdccaError, ValueError):
    """Malformed quote file; carries the file path and 1-based line number."""

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        loc = ""
        if path is not None:
            loc = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line

