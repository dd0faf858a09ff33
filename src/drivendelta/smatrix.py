"""Assembly of transmission/reflection amplitudes and the zero locator.

Elastic and inelastic amplitudes are built from the three sub-process
families: the free term, the single c/c transition (A), the
continuum-bound-continuum route (B or its renormalized form B^R), and the
two-transition continuum loop (Gamma):

    T(0) = 1 - (2 pi i / k_i) B^R(0) - (4 pi i / k_i) Gamma(0)
    T(n) = (2 pi i / |k_f|) A(n) - (2 pi i / |k_f|) B^R(n)
           - (4 pi i / |k_f|) Gamma(n)        for open n != 0

Every B^R(n) and the energy's near/far regime come from :func:`renorm._bound_routes`.
Reflection uses the same coefficient tables under k_f -> -k_f, which for
the symmetric barrier reduces to R(n) = T(n) - delta_{n0}, the identity
the continuity condition imposes on the exact sideband solver
(:func:`model._reflection` states it for both).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .amplitudes import a_coefficient, b_coefficient
from .errors import DomainError, RegimeError, ZeroNotFoundError, check_domain
from .model import _channel_flux, _reflection, _sideband_k, _sideband_ksq
from .quadrature import _golden, _scan_bracket
from .renorm import (LoopValue, _NEAR_DISTANCE, _bound_routes, _bound_series, _resonance,
                     alpha_shift, gamma_loop, renorm_factors)

__all__ = [
    "DiagramTerm",
    "SMatrixDecomposition",
    "assemble",
    "w0",
    "find_transmission_zero",
    "near_zero_amplitudes",
]

_ORDERS = ("first", "renormalized")
_REGIME_FACTOR = 10.0     # pole-dominance gate of the limiting near-zero forms
_NO_LOOP = LoopValue(re=0.0, im=0.0, n=0)


@dataclass(frozen=True)
class DiagramTerm:
    """One sub-process contribution, labeled (nt, mc, lb)."""

    label: Tuple[int, int, int]
    value: complex
    sideband: int

    def __post_init__(self):
        nt, mc, lb = self.label
        if lb % 2 != 0:
            raise DomainError(f"bound-state transition count must be even: {self.label}")
        if nt != mc + lb:
            raise DomainError(f"inconsistent transition count: {self.label}")


@dataclass(frozen=True)
class SMatrixDecomposition:
    """Amplitudes of one energy point with their diagram decomposition.

    ``T`` and ``flux`` map each open sideband n to its amplitude and its
    transmitted flux (:func:`model._channel_flux`); ``T_total`` sums the fluxes.
    """

    eps_i: float
    g0: float
    terms: List[DiagramTerm] = field(repr=False)
    T: Dict[int, complex] = field(repr=False)
    flux: Dict[int, float] = field(repr=False)
    T_total: float = 0.0
    diagnostics: Dict = field(default_factory=dict, repr=False)
    w0: float = 0.0                 # :func:`w0` of this expansion; 0 without a bound route
    loop: LoopValue = _NO_LOOP      # its elastic loop Gamma(0); 0 without one

    @property
    def R(self) -> Dict[int, complex]:
        """Reflection amplitudes R(n) = T(n) - delta_{n0}."""
        return {n: _reflection(n, t) for n, t in self.T.items()}


def _check_point(eps_i: float, g0: float) -> None:
    """Reject an energy or coupling that no amplitude is defined at."""
    check_domain(eps_i=eps_i, g0=g0, non_negative=("g0",))
    _resonance(eps_i, g0)


def assemble(eps_i: float, g0: float, order: str = "renormalized",
             n_max: int = 6, tol: float = 1e-8) -> SMatrixDecomposition:
    """Build all amplitudes at one energy for the requested diagram order.

    first: free term plus single c/c transitions; renormalized adds the
    bound route B^R of each sideband, in the regime of the energy's pole
    distance (:func:`renorm._bound_routes`), and the continuum loop.  ``tol``
    is the quadrature tolerance of the loop and of the pole shift.
    """
    _check_point(eps_i, g0)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    if order not in _ORDERS:
        raise DomainError(f"order must be one of {_ORDERS}, got {order!r}")
    check_domain(tol=tol)
    k_i = _sideband_k(eps_i, 0)
    sidebands = [n for n in range(-n_max, n_max + 1) if _sideband_ksq(eps_i, n) > 0]
    terms: List[DiagramTerm] = []
    T: Dict[int, complex] = {}
    flux: Dict[int, float] = {}
    diagnostics: Dict = {"order": order}
    routes, weight, loop = None, 0.0, _NO_LOOP
    if order == "renormalized" and g0 > 0:
        routes, route_diagnostics = _bound_routes(eps_i, g0, tol, sidebands)
        diagnostics.update(route_diagnostics)
        loop = gamma_loop(k_i, k_i, 0, g0, tol)
        weight = abs(2.0 * math.pi * routes[0].real) / abs(k_i + 4.0 * math.pi * loop.im)

    for n in sidebands:
        k_f = _sideband_k(eps_i, n)
        sub: List[DiagramTerm] = []
        if n == 0:
            sub.append(DiagramTerm(label=(0, 0, 0), value=1.0 + 0.0j, sideband=0))
        else:
            a_val = a_coefficient(k_f, k_i, n, g0)
            sub.append(DiagramTerm(label=(1, 1, 0),
                                   value=(2j * math.pi / k_f) * a_val, sideband=n))
        if routes is not None:
            sub.append(DiagramTerm(label=(2, 0, 2),
                                   value=-(2j * math.pi / k_f) * routes[n], sideband=n))
            loop_n = loop if n == 0 else gamma_loop(k_f, k_i, n, g0, tol)
            sub.append(DiagramTerm(label=(2, 2, 0),
                                   value=-(4j * math.pi / k_f) * loop_n.value,
                                   sideband=n))
        terms.extend(sub)
        T[n] = sum(t.value for t in sub)
        flux[n] = _channel_flux(k_f, k_i, T[n])

    T_total = flux[0] + sum(f for n, f in flux.items() if n != 0)
    return SMatrixDecomposition(eps_i=eps_i, g0=g0, terms=terms, T=T, flux=flux,
                                T_total=float(T_total), diagnostics=diagnostics,
                                w0=weight, loop=loop)


def w0(eps_i: float, g0: float, tol: float = 1e-8) -> float:
    """Relative weight of the bound route against the continuum route.

    |2 pi Re B^R(0)| / |k_i + 4 pi Im Gamma(0)| with the renormalized
    elastic quantities of :func:`assemble`, at quadrature tolerance ``tol``.
    """
    return assemble(eps_i, g0, n_max=0, tol=tol).w0


def _pole_estimate(g0: float, tol: float, eps: Optional[float] = None) -> float:
    """Pole position 1 - g0**2/8 - alpha(1, eps) of the n0 = 1 resonance,
    with the shift taken at ``eps``: by default at the bare pole 1 - g0**2/8."""
    bare = 1.0 - g0 * g0 / 8.0
    return bare - alpha_shift(1, bare if eps is None else eps, g0, tol)


def find_transmission_zero(g0: float, tol: float = 1e-8) -> Tuple[float, Dict]:
    """Locate the elastic transmission zero of the renormalized amplitude.

    The zero sits within a few widths eta_R ~ g0**3 of the self-consistent
    pole position eps = 1 - g0**2/8 - alpha(1, eps), far too narrow for
    blind scanning.  Over that window the slow coefficients (alpha, eta_R,
    Z, the off-resonant bound terms, the loop) are constant to relative
    O(eta_R), so the interference condition T(0) = 0 reduces to a linear
    equation for the resonant denominator, solved in closed form: the
    analytic zero eps_z.  The search then takes two steps.  A coarse scan
    of the window (9 points over eps_z +- 3 eta_R, or 33 below the
    threshold when eps_z is not below it) samples that frozen resonant
    form, |background - (2 pi i / k_c) Z |B_{k b}|**2 / (eps + g0**2/8 +
    alpha - 1 + i eta_R)|**2 with every slow coefficient taken at the
    pole centre, and picks a bracket as :func:`quadrature.bracket_min`
    does; golden section then polishes the zero on the full amplitude
    |T(0)|**2 of :func:`assemble` inside that bracket only.  A minimum
    above 0.5 raises :class:`ZeroNotFoundError`.  ``tol`` is the
    quadrature tolerance of every loop and shift it evaluates.
    """
    if not 0 < g0 <= 1:
        raise DomainError(f"need 0 < g0 <= 1, got {g0}")
    check_domain(tol=tol)
    bare = 1.0 - g0 * g0 / 8.0
    eps_c = bare
    for _ in range(4):
        nxt = _pole_estimate(g0, tol, eps_c)
        eps_c = 0.5 * (eps_c + min(max(nxt, 0.5), 1.0 - 1e-9))
    k_c = _sideband_k(eps_c, 0)
    fac = renorm_factors(0, 1, eps_c, g0, tol)
    loop0 = gamma_loop(k_c, k_c, 0, g0, tol)
    rest = _bound_series(k_c, k_c, 0, g0, _resonance(eps_c, g0)[0], resonant=(1, 0.0))
    background = 1.0 - (2j * math.pi / k_c) * rest \
        - (4j * math.pi / k_c) * loop0.value
    resonant_denom = (2j * math.pi / k_c) * fac.Z * abs(b_coefficient(k_c, 1, g0)) ** 2 \
        / background
    eps_z = bare - fac.alpha + resonant_denom.real

    def objective(eps):
        return abs(assemble(eps, g0, order="renormalized", n_max=0,
                            tol=tol).T[0]) ** 2

    eta = max(fac.eta_R, 1e-9)
    if eps_z < 1.0 - 1e-12:
        lo = eps_z - 3.0 * eta
        hi = min(eps_z + 3.0 * eta, 1.0 - 1e-12)
        points = 9
    else:
        # the self-consistent pole sits at or above the one-quantum
        # threshold; look for a residual interference minimum in the
        # remaining sub-threshold window instead of extrapolating, cut at
        # the edge of the near window (no golden step reaches that edge)
        lo = max(1.0 - max(0.5 * g0 * g0, 20.0 * eta), bare - _NEAR_DISTANCE)
        hi = 1.0 - 1e-12
        points = 33
    xs = np.linspace(lo, hi, points)
    frozen = np.abs(background * (1.0 - resonant_denom
                                  / (xs - bare + fac.alpha + 1j * fac.eta_R))) ** 2
    bracket_lo, bracket_hi, warnings = _scan_bracket(xs, frozen)
    x_min, f_min = _golden(objective, bracket_lo, bracket_hi, 1e-3 * eta)
    if f_min > 0.5:
        raise ZeroNotFoundError(
            f"no transmission minimum below 0.5 near eps = {eps_z} for g0 = {g0}",
            scan_trace={"bracket": (lo, hi), "f_min": f_min},
        )
    diagnostics = {"bracket": (lo, hi), "min_value": f_min,
                   "warnings": warnings, "analytic_zero": eps_z,
                   "pole_center": eps_c, "eta_R": fac.eta_R}
    return float(x_min), diagnostics


def near_zero_amplitudes(eps_i: float, g0: float, tol: float = 1e-8) -> Dict:
    """Channel amplitudes in the immediate vicinity of the transmission zero.

    Valid only where the pole term dominates (|eps_R(1) - 1| small against
    eta_R(1)); outside that window a RegimeError is raised instead of
    extrapolating.  Returns the limiting inelastic amplitudes T(n), n >= 1
    (there R(n) = T(n)), their flux coefficients, and the elastic
    reflection check value; ``tol`` is the quadrature tolerance of the
    loops and the shift.
    """
    _check_point(eps_i, g0)
    fac = renorm_factors(0, 1, eps_i, g0, tol)      # checks tol before any quadrature
    k_i = _sideband_k(eps_i, 0)
    if abs(fac.eps_R - 1.0) > _REGIME_FACTOR * fac.eta_R:
        raise RegimeError(
            f"|eps_R - 1| = {abs(fac.eps_R - 1.0):.3e} exceeds "
            f"{_REGIME_FACTOR} * eta_R = {_REGIME_FACTOR * fac.eta_R:.3e}")
    elastic = assemble(eps_i, g0, order="renormalized", n_max=0, tol=tol)
    bracket = 1.0 + (2.0 * math.pi / k_i) * elastic.loop.im
    b1 = b_coefficient(k_i, 1, g0)
    out: Dict = {"T": {}, "flux": {}}
    for n in range(1, 7):     # every n >= 1 is open
        k_n = _sideband_k(eps_i, n)
        num = b_coefficient(k_n, n + 1, g0)
        t_n = -(k_i / k_n) * (num / b1) * bracket
        out["T"][n] = t_n
        out["flux"][n] = _channel_flux(k_n, k_i, t_n)
    out["R0_sq"] = abs(elastic.R[0]) ** 2
    return out
