"""Exception types shared across the package, and the one argument check
(:func:`check_domain`) that every public function runs on its momenta,
energies, couplings and tolerances before any arithmetic."""

import math

__all__ = [
    "DrivenDeltaError",
    "DomainError",
    "ToleranceError",
    "RegimeError",
    "ZeroNotFoundError",
]


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


def check_domain(*, non_negative=(), **args) -> None:
    """Raise :class:`DomainError` naming the first of ``args`` that is not
    positive and finite (non-negative and finite for the names in
    ``non_negative``); an array is named by its first bad element."""
    for name, value in args.items():
        zero_ok = name in non_negative
        if getattr(value, "ndim", 0):
            bad = ~((value >= 0 if zero_ok else value > 0) & (abs(value) < math.inf))
            if not bad.any():
                continue
            value = value[bad][0]
        if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
            rule = "non-negative" if zero_ok else "positive"
            raise DomainError(f"{name} must be {rule} and finite, got {value}")
