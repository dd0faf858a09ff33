"""Dimensionless model of the delta barrier with sinusoidally oscillating strength.

All downstream computations work in the dimensionless units fixed by the
driving frequency: lengths in units of l0 = sqrt(hbar / (m * omega)), energies
in units of eps0 = hbar * omega, time through the phase tau = omega * t.  The
instantaneous coupling is g(tau) = g0 * sin(tau); for g > 0 the frozen barrier
supports a single bound state at energy -g**2 / 2.

Physical-unit inputs are converted exactly once, at the boundary
(:func:`to_dimensionless`); everything else is unit-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

from .errors import DomainError, NoBoundStateError

HBAR = 1.054571817e-34  # J s (2019 SI exact-derived value)


@dataclass(frozen=True)
class ModelParams:
    """Driving parameters, dimensionless plus optional physical provenance.

    Attributes:
        g0: dimensionless driving amplitude, >= 0.
        mass: particle mass in kg, if constructed from physical inputs.
        omega: driving angular frequency in 1/s, if known.
        g_phys: physical strength amplitude in J m, if known.
        length_scale: l0 in metres (physical inputs only).
        energy_scale: eps0 in joules (physical inputs only).
    """

    g0: float
    mass: Optional[float] = None
    omega: Optional[float] = None
    g_phys: Optional[float] = None
    length_scale: Optional[float] = None
    energy_scale: Optional[float] = None

    def __post_init__(self):
        if self.g0 < 0:
            raise DomainError(f"g0 must be >= 0, got {self.g0}")


@dataclass(frozen=True)
class Channel:
    """One Floquet sideband of the scattering problem.

    An open channel propagates with wavenumber ``k = sqrt(k_i**2 + 2 n)``;
    a closed channel is evanescent with decay constant ``kappa``.
    """

    n: int
    status: Literal["open", "closed"]
    k: Optional[float] = None
    kappa: Optional[float] = None

    @property
    def is_open(self) -> bool:
        return self.status == "open"


@dataclass(frozen=True)
class BasisPoint:
    """Snapshot of the instantaneous barrier at phase ``tau``."""

    tau: float
    g_tau: float
    bound_present: bool


def to_dimensionless(mass: float, omega: float, g_phys: float) -> ModelParams:
    """Convert physical driving parameters to the dimensionless model.

    g0 = g_phys * sqrt(m * omega / hbar) / (hbar * omega), with the scales
    l0 = sqrt(hbar / (m * omega)) and eps0 = hbar * omega.
    """
    if mass <= 0:
        raise DomainError(f"mass must be positive, got {mass}")
    if omega <= 0:
        raise DomainError(f"omega must be positive, got {omega}")
    g0 = g_phys * math.sqrt(mass * omega / HBAR) / (HBAR * omega)
    return ModelParams(
        g0=g0,
        mass=mass,
        omega=omega,
        g_phys=g_phys,
        length_scale=math.sqrt(HBAR / (mass * omega)),
        energy_scale=HBAR * omega,
    )


def sideband_channel(k_i: float, n: int) -> Channel:
    """Classify the sideband ``n`` reached from incoming wavenumber ``k_i``.

    The degenerate threshold k_i**2 + 2 n == 0 is reported closed with
    kappa = 0; its flux weight vanishes either way.
    """
    if k_i <= 0:
        raise DomainError(f"k_i must be positive, got {k_i}")
    ksq = k_i * k_i + 2 * n
    if ksq > 0:
        return Channel(n=n, status="open", k=math.sqrt(ksq))
    return Channel(n=n, status="closed", kappa=math.sqrt(-ksq))


def bound_energy(g: float) -> float:
    """Energy -g**2/2 of the frozen barrier's bound state (requires g > 0)."""
    if g <= 0:
        raise NoBoundStateError(f"no bound state for coupling g = {g}")
    return -0.5 * g * g


def mean_bound_energy(g0: float) -> float:
    """Period average of the bound-state energy, -g0**2 / 8."""
    if g0 < 0:
        raise DomainError(f"g0 must be >= 0, got {g0}")
    return -g0 * g0 / 8.0


def theta(k: float, g: float) -> float:
    """Phase angle arctan(g / k) of a continuum state, in (-pi/2, pi/2)."""
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    return math.atan2(g, k)


def q_factor(k, n: int, g0: float):
    """Sideband suppression factor ((sqrt(k**2 + g0**2) - k) / g0)**n.

    Lies in (0, 1] for k > 0 and is strictly decreasing in n when g0 > 0.
    The g0 = 0 limit is taken continuously: 1 for n = 0, else 0.  Accepts
    array ``k`` for vectorized evaluation.
    """
    if n < 0:
        raise DomainError(f"n must be a non-negative integer, got {n}")
    k = np.asarray(k)
    if np.any(np.real(k) <= 0) and not np.iscomplexobj(k):
        raise DomainError("k must be positive")
    if n == 0:
        out = np.ones_like(k, dtype=complex if np.iscomplexobj(k) else float)
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


def basis_point(tau: float, g0: float) -> BasisPoint:
    """Instantaneous coupling and bound-state presence at phase ``tau``."""
    g_tau = g0 * math.sin(tau)
    return BasisPoint(tau=tau, g_tau=g_tau, bound_present=g_tau > 0)


def basis_wavefunction(xi, state, g: float, k: float = 0.0, branch: int = +1):
    """Instantaneous eigenfunction of the frozen barrier at coupling ``g``.

    ``state`` is "continuum" (needs k > 0, branch +-1) or "bound" (needs
    g > 0).  Continuum states are the delta-barrier scattering states
    normalized to delta(k - k'); the bound state is sqrt(g) e^{-g |xi|}.
    """
    xi = np.asarray(xi, dtype=float)
    if state == "bound":
        if g <= 0:
            raise NoBoundStateError(f"no bound state for coupling g = {g}")
        out = np.sqrt(g) * np.exp(-g * np.abs(xi))
        return out[()] if out.ndim == 0 else out
    if state != "continuum":
        raise DomainError(f"unknown state kind {state!r}")
    if k <= 0:
        raise DomainError(f"continuum state needs k > 0, got {k}")
    if branch not in (+1, -1):
        raise DomainError(f"branch must be +1 or -1, got {branch}")
    plane = np.exp(1j * branch * k * xi)
    scatter = (g / (g + 1j * k)) * np.exp(1j * k * np.abs(xi))
    out = (plane - scatter) / math.sqrt(2.0 * math.pi)
    return out[()] if out.ndim == 0 else out


def berry_phase(k: float, tau: float, g0: float) -> float:
    """Diagonal geometric phase rate -dg/dtau * k / (g**2 + k**2).

    Equals -d(theta_k)/dtau; a total derivative, so it integrates to zero
    over any whole number of driving periods.
    """
    if k <= 0:
        raise DomainError(f"k must be positive, got {k}")
    g_tau = g0 * math.sin(tau)
    g_dot = g0 * math.cos(tau)
    return -g_dot * k / (g_tau * g_tau + k * k)
