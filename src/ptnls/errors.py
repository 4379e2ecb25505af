"""Exception types shared across the package."""


class PtnlsError(Exception):
    """Base class for all package-specific errors."""


class BrokenPhase(PtnlsError):
    """Raised when an operation requires the unbroken phase (kappa > gamma)."""


class RegimeViolation(PtnlsError):
    """Raised when nonlinear coefficients fall outside a criterion's regime."""


class NotManakov(PtnlsError):
    """Raised when g1, g2, g are not all equal."""


class SolverDiverged(PtnlsError):
    """Raised when the time stepper produces non-finite values."""


class ConfigInvalid(PtnlsError):
    """Raised for semantically invalid run configurations."""


class ParseError(PtnlsError):
    """Raised for malformed config documents; carries line number and reason."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(PtnlsError):
    """Raised when a parsed config violates a named constraint."""
