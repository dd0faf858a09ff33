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

import cmath
import math
from typing import Callable

import numpy as np

from .errors import DomainError, NoBoundStateError
from .model import _q_base, q_factor
from .quadrature import QuadratureResult, fourier_coefficient

__all__ = [
    "phi_cc",
    "phi_cb",
    "phi_cb_mean",
    "a_coefficient",
    "b_coefficient",
    "b_coefficient_bc",
    "fourier_oracle",
]


def _g(tau, g0):
    return g0 * np.sin(tau)


def _gdot(tau, g0):
    return g0 * np.cos(tau)


def phi_cc(k: float, kp: float, tau, g0: float, eta: float = 0.0):
    """Instantaneous c/c transition element from momentum ``kp`` to ``k``.

    The diagonal k == kp is excluded: the renormalized convention removes
    the delta contribution there, so callers never need it on-shell.
    ``eta`` keeps the box regulator explicit; the production pipeline uses
    eta = 0 off-diagonal.
    """
    if k <= 0 or kp <= 0:
        raise DomainError(f"wavenumbers must be positive, got ({k}, {kp})")
    if eta < 0:
        raise DomainError(f"eta must be >= 0, got {eta}")
    if k == kp:
        raise DomainError("diagonal element excluded by renormalization")
    tau = np.asarray(tau, dtype=float)
    g = _g(tau, g0)
    gdot = _gdot(tau, g0)
    theta_k = np.arctan2(g, k)
    theta_kp = np.arctan2(g, kp)
    denom = k * k - (kp + 1j * eta) ** 2
    out = (
        (1j / math.pi) * gdot
        * np.exp(1j * (theta_kp - theta_k))
        / np.sqrt((g * g + k * k) * (g * g + kp * kp))
        * (k * kp) / denom
    )
    return out[()] if out.ndim == 0 else out


def phi_cb(k: float, tau: float, g0: float) -> complex:
    """Exact instantaneous b <- c transition element at phase ``tau``.

    Requires the bound state to exist, i.e. tau mod 2pi in (0, pi).  The
    c <- b element is the complex conjugate.
    """
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    g = g0 * math.sin(tau)
    if g <= 0:
        raise NoBoundStateError(f"no bound state at tau = {tau} (g = {g})")
    gdot = g0 * math.cos(tau)
    theta_k = math.atan2(g, k)
    return (
        -2j * k * math.sqrt(g / (2.0 * math.pi))
        * gdot / (g * g + k * k) ** 1.5
        * cmath.exp(1j * theta_k)
    )


def phi_cb_mean(k: float, tau, g0: float):
    """Mean-coupling c <- b transition element (effective coupling g0/2).

    Smooth over the whole period; this is the form whose Fourier transform
    has the closed coefficients of :func:`b_coefficient`.
    """
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    tau = np.asarray(tau, dtype=float)
    g = _g(tau, g0)
    gdot = _gdot(tau, g0)
    theta_k = np.arctan2(g, k)
    out = (
        2j * k * math.sqrt(g0 / (4.0 * math.pi))
        * gdot / (k - 0.5j * g0)
        * np.exp(-2j * theta_k) / (k * k + g * g)
    )
    return out[()] if out.ndim == 0 else out


def a_kernel(k_out, k_in, m, pow_out, pow_in):
    """Imaginary part of A_{k_out k_in}(m), which is purely imaginary.

    Broadcasts over arrays.  ``pow_out`` and ``pow_in`` are the q-factors
    q(k_out)**|m| and q(k_in)**|m|, so a caller evaluating many channels
    at the same momenta raises each q-base (``model._q_base``) to one
    table of powers.  Every m must be nonzero.  No argument or pole
    guards: quadrature callers keep their nodes off the
    k_out**2 == k_in**2 lines.
    """
    # step combination s(m): +1 for m > 0, -(-1)**m for m < 0
    sign = np.where((m < 0) & (m % 2 == 0), -1.0, 1.0)
    parity = np.where(m % 2 == 0, 1.0, -1.0)
    return ((1.0 / math.pi) * (k_out * k_in / (k_out * k_out - k_in * k_in))
            / (k_out + k_in) * (pow_in - parity * pow_out) * sign)


def a_coefficient(k_f: float, k_i: float, n: int, g0: float) -> complex:
    """Sideband-n Fourier coefficient of the dressed c/c transition.

    Identically zero for n = 0 (renormalized diagonal).  Off-shell
    evaluation with k_f**2 == k_i**2 and n != 0 hits the removed pole and
    is rejected.  The checked edge of :func:`a_kernel`.
    """
    if k_f <= 0 or k_i <= 0:
        raise DomainError(f"wavenumbers must be positive, got ({k_f}, {k_i})")
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
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    if n % 2 == 0:
        return 0.0 + 0.0j
    return (
        1j * math.sqrt(g0 / (4.0 * math.pi))
        / (k - 0.5j * g0)
        * q_factor(k, abs(n), g0)
        * 2.0
    )


def b_coefficient_bc(k: float, n: int, g0: float) -> complex:
    """Sideband-n coefficient of the b -> c direction, conj(B_cb(-n))."""
    return b_coefficient(k, -n, g0).conjugate()


def fourier_oracle(integrand: Callable, n: int, tol: float = 1e-12) -> QuadratureResult:
    """Quadrature evaluation of (1/2pi) int_0^{2pi} integrand e^{i n tau} d tau.

    Independent check of the closed coefficient formulas; see
    :func:`drivendelta.quadrature.fourier_coefficient` for the refinement
    scheme and failure mode.
    """
    return fourier_coefficient(integrand, n, tol=tol)
