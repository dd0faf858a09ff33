"""Dimensionless model of the delta barrier with sinusoidally oscillating strength.

All downstream computations work in the dimensionless units fixed by the
driving frequency: lengths in units of l0 = sqrt(hbar / (m * omega)), energies
in units of eps0 = hbar * omega, time through the phase tau = omega * t.  The
instantaneous coupling is g(tau) = g0 * sin(tau); for g > 0 the frozen barrier
supports a single bound state at energy -g**2 / 2.

Every input and output of the package is in these units; converting
physical driving parameters is left to the caller (g0 = g_phys
sqrt(m omega / hbar) / (hbar omega)).  Sideband n is open from incoming
wavenumber k_i when k_i**2 + 2 n > 0; callers test that where they need it.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, check_domain


def q_factor(k, n: int, g0: float):
    """Sideband suppression factor ((sqrt(k**2 + g0**2) - k) / g0)**n.

    Lies in (0, 1] for k > 0 and is strictly decreasing in n when g0 > 0.
    The g0 = 0 limit is taken continuously: 1 for n = 0, else 0.  Accepts
    a real array ``k`` for vectorized evaluation; complex ``k`` is refused.
    """
    if n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    k = np.asarray(k)
    if np.iscomplexobj(k):
        raise DomainError(f"k must be real, got dtype {k.dtype}")
    check_domain(k=k, g0=g0, non_negative=("g0",))
    if n == 0:
        out = np.ones_like(k, dtype=float)
        return out[()] if out.ndim == 0 else out
    out = _q_base(k, g0) ** n
    return out[()] if out.ndim == 0 else out


def _q_base(k, g0: float):
    """Base (sqrt(k**2 + g0**2) - k) / g0 of :func:`q_factor`, without guards.

    Returns 0 at g0 = 0, the continuous limit, so q**n is 0 for n >= 1.
    Vectorized callers raise this base to their own power tables.
    """
    if g0 == 0:
        return np.zeros_like(k, dtype=float)
    return (np.sqrt(k * k + g0 * g0) - k) / g0
