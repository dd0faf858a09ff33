"""Exception types shared across the package."""


class DrivenDeltaError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DrivenDeltaError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ToleranceError(DrivenDeltaError, RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    Carries the best available estimate so callers can decide whether the
    achieved accuracy is still usable, and the incoming energy ``eps_i``
    when the failure belongs to one energy of a batched solve.
    """

    def __init__(self, message, value=None, error_estimate=None, eps_i=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.eps_i = eps_i


class RegimeError(DrivenDeltaError, ValueError):
    """A limiting formula was requested outside its regime of validity."""


class ZeroNotFoundError(DrivenDeltaError, RuntimeError):
    """No transmission zero was found inside the search bracket."""

    def __init__(self, message, scan_trace=None):
        super().__init__(message)
        self.scan_trace = scan_trace
