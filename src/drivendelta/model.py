"""Dimensionless model of the delta barrier with sinusoidally oscillating strength.

All downstream computations work in the dimensionless units fixed by the
driving frequency: lengths in units of l0 = sqrt(hbar / (m * omega)), energies
in units of eps0 = hbar * omega, time through the phase tau = omega * t.  The
instantaneous coupling is g(tau) = g0 * sin(tau); for g > 0 the frozen barrier
supports a single bound state at energy -g**2 / 2.

Every input and output of the package is in these units; converting
physical driving parameters is left to the caller (g0 = g_phys
sqrt(m omega / hbar) / (hbar omega)).  Sideband n at incoming energy
eps_i has k_n**2 = 2 (eps_i + n) (:func:`_sideband_ksq`) and, where open,
k_n = sqrt(k_n**2) (:func:`_sideband_k`); this channel rule, its flux and
the reflection rule are each stated here once, for both solvers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, check_domain

__all__ = ["q_factor"]


def _sideband_ksq(eps_i, n):
    """Squared wavenumber k_n**2 = 2 (eps_i + n) of sideband ``n``.

    A sideband is open, and carries flux, exactly where this value is > 0;
    at an exact threshold (0) it is closed.  Scalars or broadcasting arrays.
    """
    return 2.0 * (eps_i + n)


def _sideband_k(eps_i: float, n: int) -> float:
    """Wavenumber k_n = sqrt(:func:`_sideband_ksq`) of the open sideband ``n``;
    a closed one, its exact threshold included, raises :class:`DomainError`."""
    ksq = _sideband_ksq(eps_i, n)
    if not ksq > 0:
        raise DomainError(f"sideband n = {n} is closed at eps_i = {eps_i}")
    return math.sqrt(ksq)


def _channel_flux(k_f, k_i, amp):
    """Flux (k_f / k_i)|amp|**2 of a channel of wavenumber k_f; none where Re k_f = 0.

    Scalars give an ``np.float64`` of the builtin ``abs`` (``np.abs`` of a
    complex can differ in the last bit).  Arrays broadcast, in Fortran order,
    so ``sum(axis=0)`` adds each energy's channels pairwise, however many share it.
    """
    return np.multiply(k_f / k_i, abs(amp) ** 2, order="F")


def _reflection(n: int, amp):
    """Reflection r_n = t_n - delta_{n0} of sideband ``n``'s transmission ``amp``."""
    return amp - 1.0 if n == 0 else amp


def q_factor(k, n: int, g0: float):
    """Sideband suppression factor q(k)**n, q(k) = (sqrt(k**2 + g0**2) - k) / g0.

    Evaluated as :func:`_q_base` ** n.  Lies in (0, 1] for k > 0 and is
    strictly decreasing in n when g0 > 0; g0 = 0 gives 0 for n >= 1.
    Accepts a real array ``k``; complex ``k`` is refused.
    """
    if n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    k = np.asarray(k)
    if np.iscomplexobj(k):
        raise DomainError(f"k must be real, got dtype {k.dtype}")
    check_domain(k=k, g0=g0, non_negative=("g0",))
    out = _q_base(k, g0) ** n
    return out[()] if out.ndim == 0 else out


def _q_base(k, g0: float):
    """Base q(k) of :func:`q_factor`, without guards, evaluated in the
    cancellation-free form g0 / (sqrt(k**2 + g0**2) + k): exact to
    rounding for k >> g0, and 0 at g0 = 0.  Every perturbative layer reads
    q here and raises it to its own power tables.
    """
    return g0 / (np.sqrt(k * k + g0 * g0) + k)
