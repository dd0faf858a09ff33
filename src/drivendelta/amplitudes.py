"""Transition amplitudes between instantaneous-basis states.

Closed-form Fourier coefficients of the continuum/continuum (A) and
continuum/bound (B) transitions of the sinusoidally driven barrier, the
instantaneous matrix elements they derive from, and a quadrature oracle for
the defining Fourier transforms.

Conventions: the driving is g(tau) = g0 sin(tau); Fourier coefficients are
(1/2pi) int_0^{2pi} f(tau) e^{i n tau} d tau.  The diagonal c/c direction
carries no delta contribution (renormalized convention A(0) = 0), so the
elastic channel is never fed through these amplitudes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, ToleranceError, check_domain
from .model import _q_base
from .quadrature import QuadratureResult

__all__ = [
    "phi_cc",
    "phi_cb_mean",
    "a_coefficient",
    "b_coefficient",
    "fourier_oracle",
]


def _g(tau, g0):
    return g0 * np.sin(tau)


def _gdot(tau, g0):
    return g0 * np.cos(tau)


def _phase(tau) -> np.ndarray:
    """``tau`` as a float array; a non-finite phase raises :class:`DomainError`
    naming it (an array by its first bad element).  Any sign is valid."""
    tau = np.asarray(tau, dtype=float)
    bad = tau[~np.isfinite(tau)]
    if bad.size:
        raise DomainError(f"tau must be finite, got {bad[0]}")
    return tau


def phi_cc(k: float, kp: float, tau, g0: float):
    """Instantaneous c/c transition element from momentum ``kp`` to ``k``.

    The diagonal k == kp is excluded: the renormalized convention removes
    the delta contribution there, so callers never need it on-shell.
    """
    check_domain(k=k, kp=kp, g0=g0, non_negative=("g0",))
    if k == kp:
        raise DomainError("diagonal element excluded by renormalization")
    tau = _phase(tau)
    g = _g(tau, g0)
    gdot = _gdot(tau, g0)
    theta_k = np.arctan2(g, k)
    theta_kp = np.arctan2(g, kp)
    denom = k * k - kp * kp
    out = (
        (1j / math.pi) * gdot
        * np.exp(1j * (theta_kp - theta_k))
        / np.sqrt((g * g + k * k) * (g * g + kp * kp))
        * (k * kp) / denom
    )
    return out[()] if out.ndim == 0 else out


def phi_cb_mean(k: float, tau, g0: float):
    """Mean-coupling c <- b transition element (effective coupling g0/2).

    Smooth over the whole period; this is the form whose Fourier transform
    has the closed coefficients of :func:`b_coefficient`.
    """
    check_domain(k=k, g0=g0, non_negative=("g0",))
    tau = _phase(tau)
    g = _g(tau, g0)
    gdot = _gdot(tau, g0)
    theta_k = np.arctan2(g, k)
    out = (
        2j * k * math.sqrt(g0 / (4.0 * math.pi))
        * gdot / (k - 0.5j * g0)
        * np.exp(-2j * theta_k) / (k * k + g * g)
    )
    return out[()] if out.ndim == 0 else out


def a_factor(k_out, k_in, scale):
    """A's momentum factor ``scale`` k_out k_in / ((k_out**2 - k_in**2)(k_out + k_in))."""
    return scale * (k_out * k_in / (k_out * k_out - k_in * k_in)) / (k_out + k_in)


def a_kernel(k_out, k_in, m, pow_out, pow_in):
    """A_{k_out k_in}(m) / i, real: :func:`a_factor` at scale 1/pi times a q-power bracket.

    Broadcasts over arrays.  ``pow_out`` and ``pow_in`` are the q-factors
    q(k_out)**|m| and q(k_in)**|m|, so a caller evaluating many channels
    at the same momenta raises each q-base (``model._q_base``) to one
    table of powers.  Every m must be nonzero.  No argument or pole
    guards: quadrature callers keep their nodes off the
    k_out**2 == k_in**2 lines.
    """
    sign, parity = a_signs(m)
    return a_factor(k_out, k_in, 1.0 / math.pi) * (pow_in - parity * pow_out) * sign


def a_signs(m):
    """Step sign s(m) and parity (-1)**m of the c/c kernel, over arrays.

    s(m) is +1 for m > 0 and -(-1)**m for m < 0; A(m) is proportional to
    s(m) (q(k_in)**|m| - (-1)**m q(k_out)**|m|).
    """
    sign = np.where((m < 0) & (m % 2 == 0), -1.0, 1.0)
    parity = np.where(m % 2 == 0, 1.0, -1.0)
    return sign, parity


def a_coefficient(k_f: float, k_i: float, n: int, g0: float) -> complex:
    """Sideband-n Fourier coefficient of the dressed c/c transition.

    Identically zero for n = 0 (renormalized diagonal).  Off-shell
    evaluation with k_f**2 == k_i**2 and n != 0 hits the removed pole and
    is rejected.  The checked edge of :func:`a_kernel`.
    """
    check_domain(k_f=k_f, k_i=k_i, g0=g0, non_negative=("g0",))
    if n == 0:
        return 0.0 + 0.0j
    if k_f == k_i:
        raise DomainError("pole: k_f**2 == k_i**2 with n != 0")
    return 1j * float(a_kernel(k_f, k_i, n, _q_base(k_f, g0) ** abs(n),
                               _q_base(k_i, g0) ** abs(n)))


def b_coefficient(k: float, n: int, g0: float) -> complex:
    """Sideband-n Fourier coefficient of the dressed c <- b transition.

    Vanishes for all even n.  The b <- c coefficient is
    ``b_coefficient(k, -n, g0).conjugate()``.
    """
    check_domain(k=k, g0=g0, non_negative=("g0",))
    if n % 2 == 0:
        return 0.0 + 0.0j
    return b_kernel(k, _q_base(k, g0) ** abs(n), g0)


def b_kernel(k, pow_k, g0: float):
    """B_{k b}(m) for odd m from the q-factor ``pow_k`` = q(k)**|m|.

    Broadcasts over ``pow_k``; no argument guards and no parity check, so
    callers summing over odd sidebands raise q(k) to their own powers.
    """
    return 1j * math.sqrt(g0 / (4.0 * math.pi)) / (k - 0.5j * g0) * pow_k * 2.0


def fourier_oracle(integrand: Callable, n: int, tol: float = 1e-12) -> QuadratureResult:
    """Quadrature evaluation of (1/2pi) int_0^{2pi} integrand e^{i n tau} d tau.

    Independent check of the closed coefficient formulas.  Composite
    trapezoid on uniform panels, 64 doubled up to 2**16; panel counts stay
    even so tau = 0 and tau = pi (the bound-state window edges) always fall
    on panel boundaries.  Trapezoid is spectrally accurate for smooth
    periodic integrands; the refinement loop certifies the result, and
    raises :class:`ToleranceError` if it has not settled to ``tol`` at
    2**16 panels.
    """
    check_domain(tol=tol)

    def approx(m):
        tau = np.arange(m) * (2.0 * math.pi / m)
        vals = np.asarray(integrand(tau)) * np.exp(1j * n * tau)
        return np.sum(vals) / m

    m = 64
    prev = approx(m)
    evals = m
    while m < 1 << 16:
        m *= 2
        cur = approx(m)
        evals += m
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return QuadratureResult(value=cur, error_estimate=err, evaluations=evals)
        prev = cur
    raise ToleranceError(f"Fourier refinement stalled at {m} panels, change {err:.3e}",
                         value=cur, error_estimate=err)
