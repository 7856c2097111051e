"""Error types shared across the toolkit."""


class GdmsError(Exception):
    """Base class for all toolkit errors."""


class InputError(GdmsError):
    """Bad argument values: unknown edge ids, negative exponents, bad flags."""


class SpecError(GdmsError):
    """A system spec file cannot be parsed or validated."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class DomainError(GdmsError):
    """A point lies outside the vertex space it must belong to."""


class ResourceGuardError(GdmsError):
    """An enumeration would exceed the configured count guard."""


class NotApplicableError(GdmsError):
    """The requested analysis is undefined for this system."""


class UnsupportedAnalysisError(GdmsError):
    """The system falls outside what this operation can analyse."""


class ConvergenceError(UnsupportedAnalysisError):
    """A numerical solver did not converge or could not certify its result."""
