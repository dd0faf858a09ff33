"""Assembly of transmission/reflection amplitudes and the zero locator.

Elastic and inelastic amplitudes are built from the three sub-process
families: the free term, the single c/c transition (A), the
continuum-bound-continuum route (B or its renormalized form B^R), and the
two-transition continuum loop (Gamma):

    T(0) = 1 - (2 pi i / k_i) B^R(0) - (4 pi i / k_i) Gamma(0)
    T(n) = (2 pi i / |k_f|) A(n) - (2 pi i / |k_f|) B^R(n)
           - (4 pi i / |k_f|) Gamma(n)        for open n != 0

Reflection uses the same coefficient tables under k_f -> -k_f, which for
the symmetric barrier reduces to R(n) = T(n) - delta_{n0} (the same
identity the continuity condition imposes on the exact sideband solver).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .amplitudes import a_coefficient, b_coefficient
from .errors import DomainError, RegimeError, ZeroNotFoundError
from .model import sideband_channel
from .quadrature import bracket_min
from .renorm import (_nearest_odd, alpha_shift, b_bare, b_renorm, gamma_loop,
                     renorm_factors)

__all__ = [
    "DiagramTerm",
    "SMatrixDecomposition",
    "assemble",
    "w0",
    "find_transmission_zero",
    "near_zero_amplitudes",
]

_ORDERS = ("first", "second_bare", "renormalized")
_NEAR_DISTANCE = 0.45     # full renormalized form within this bare pole distance
_REGIME_FACTOR = 10.0     # pole-dominance gate of the limiting near-zero forms


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
    """Amplitudes of one energy point with their diagram decomposition."""

    eps_i: float
    g0: float
    terms: List[DiagramTerm] = field(repr=False)
    T: Dict[int, complex] = field(repr=False)
    R: Dict[int, complex] = field(repr=False)
    T_total: float = 0.0
    diagnostics: Dict = field(default_factory=dict, repr=False)


def _open_sidebands(eps_i: float, n_max: int) -> List[int]:
    """Open sideband indices within |n| <= n_max (plus the elastic 0)."""
    return [n for n in range(-n_max, n_max + 1)
            if sideband_channel(math.sqrt(2.0 * eps_i), n).is_open]


def _b_term_regime(eps_i: float, g0: float) -> Tuple[str, float, float]:
    """Pick the bound-route evaluation regime at this energy.

    Returns (regime, distance to the dominant pole, eta_R there); the full
    renormalized form is used within _NEAR_DISTANCE of the pole in bare
    effective energy, the real-denominator approximation beyond.
    """
    eps_t = eps_i + g0 * g0 / 8.0
    n0 = _nearest_odd(eps_t)
    k_i = math.sqrt(2.0 * eps_i)
    dist0 = abs(eps_t - n0)
    if dist0 >= _NEAR_DISTANCE:
        # unambiguously far: skip the shift/width integrals entirely (they
        # can hit channel thresholds at generic energies, which can never
        # happen inside the near window) and report a zero width
        return "far", dist0, 0.0
    fac = renorm_factors(0, n0, k_i, k_i, eps_i, g0)
    return "near", abs(fac.eps_R - n0), fac.eta_R


def _b_far_elastic(k_i: float, eps_i: float, g0: float) -> complex:
    """Far-from-pole elastic bound route: the dominant-pole approximation.

    Keeps only the n0 = +-1 terms with the bare real denominators
    eps_i - n0; valid when the distance to the nearest pole dominates the
    width, where the dropped width, shift, and normalization corrections
    are higher order.
    """
    total = 0.0 + 0.0j
    for n0 in (1, -1):
        denom = eps_i - n0
        if denom == 0.0:
            raise RegimeError(f"on-pole energy eps_i = {eps_i} in far regime")
        total += abs(b_coefficient(k_i, n0, g0)) ** 2 / denom
    return total


def _b_far(k_f: float, k_i: float, n: int, eps_i: float, g0: float) -> complex:
    """Far-from-pole bound-route amplitude: real denominators, no Z.

    The eta -> 0 limit of the bare sum; valid when the distance to the
    nearest pole dominates the width.
    """
    eps_t = eps_i + g0 * g0 / 8.0
    total = 0.0 + 0.0j
    for a in range(1, 33):
        for n0 in (a, -a):
            if (n + n0) % 2 == 0 or n0 % 2 == 0:
                continue
            denom = eps_t - n0
            if denom == 0.0:
                raise RegimeError(f"on-pole energy eps_i = {eps_i} in far regime")
            total += (b_coefficient(k_f, n + n0, g0)
                      * b_coefficient(k_i, n0, g0).conjugate() / denom)
    return total


def assemble(eps_i: float, g0: float, order: str = "renormalized",
             n_max: int = 6) -> SMatrixDecomposition:
    """Build all amplitudes at one energy for the requested diagram order.

    first: free term plus single c/c transitions; second_bare adds the
    bare bound route (finite regulator) and the continuum loop;
    renormalized replaces the bound route by B^R with automatic regime
    switching (both branches are evaluated and their mismatch recorded in
    a validation band around the switching threshold).
    """
    if eps_i <= 0:
        raise DomainError(f"eps_i must be positive, got {eps_i}")
    if order not in _ORDERS:
        raise DomainError(f"order must be one of {_ORDERS}, got {order!r}")
    k_i = math.sqrt(2.0 * eps_i)
    terms: List[DiagramTerm] = []
    T: Dict[int, complex] = {}
    diagnostics: Dict = {"order": order}

    if g0 > 0 and order == "renormalized":
        regime, dist, eta_R = _b_term_regime(eps_i, g0)
        diagnostics["regime"] = regime
        diagnostics["pole_distance"] = dist
        if regime == "near":
            try:
                near = b_renorm(k_i, k_i, 0, eps_i, g0)
                far = _b_far_elastic(k_i, eps_i, g0)
                diagnostics["branch_mismatch"] = abs(near - far)
            except RegimeError:
                pass  # the far form is on its bare pole here
    else:
        regime = None

    for n in _open_sidebands(eps_i, n_max):
        k_f = math.sqrt(k_i * k_i + 2 * n)
        sub: List[DiagramTerm] = []
        if n == 0:
            sub.append(DiagramTerm(label=(0, 0, 0), value=1.0 + 0.0j, sideband=0))
        else:
            a_val = a_coefficient(k_f, k_i, n, g0)
            sub.append(DiagramTerm(label=(1, 1, 0),
                                   value=(2j * math.pi / k_f) * a_val, sideband=n))
        if order in ("second_bare", "renormalized") and g0 > 0:
            if order == "second_bare":
                b_val = b_bare(k_f, k_i, n, eps_i, g0, eta=1e-8)
            elif regime == "near":
                b_val = b_renorm(k_f, k_i, n, eps_i, g0)
            elif n == 0:
                # dominant-pole bound route; the loop below stays complete,
                # since Re Gamma(0) is of order g0**2 (the bound route is
                # g0**3) and carries the exact closed-channel term
                # i g0**2 / (4 k_0 kappa) below threshold
                b_val = _b_far_elastic(k_i, eps_i, g0)
            else:
                b_val = _b_far(k_f, k_i, n, eps_i, g0)
            sub.append(DiagramTerm(label=(2, 0, 2),
                                   value=-(2j * math.pi / k_f) * b_val, sideband=n))
            sub.append(DiagramTerm(label=(2, 2, 0),
                                   value=-(4j * math.pi / k_f)
                                   * gamma_loop(k_f, k_i, n, g0).value,
                                   sideband=n))
        terms.extend(sub)
        T[n] = sum(t.value for t in sub)

    R = {n: (T[n] - 1.0 if n == 0 else T[n]) for n in T}
    T_total = abs(T[0]) ** 2 + sum(
        math.sqrt(k_i * k_i + 2 * n) / k_i * abs(T[n]) ** 2
        for n in T if n != 0)
    return SMatrixDecomposition(eps_i=eps_i, g0=g0, terms=terms, T=T, R=R,
                                T_total=float(T_total), diagnostics=diagnostics)


def w0(eps_i: float, g0: float) -> float:
    """Relative weight of the bound route against the continuum route.

    |2 pi Re B^R(0)| / |k_i + 4 pi Im Gamma(0)| with the renormalized
    elastic quantities.
    """
    if eps_i <= 0:
        raise DomainError(f"eps_i must be positive, got {eps_i}")
    if g0 == 0:
        return 0.0
    k_i = math.sqrt(2.0 * eps_i)
    regime, _, _ = _b_term_regime(eps_i, g0)
    b_val = (b_renorm(k_i, k_i, 0, eps_i, g0) if regime == "near"
             else _b_far_elastic(k_i, eps_i, g0))
    loop = gamma_loop(k_i, k_i, 0, g0)
    return abs(2.0 * math.pi * b_val.real) / abs(k_i + 4.0 * math.pi * loop.im)


def find_transmission_zero(g0: float) -> Tuple[float, Dict]:
    """Locate the elastic transmission zero of the renormalized amplitude.

    The zero sits within a few widths eta_R ~ g0**3 of the self-consistent
    pole position eps = 1 - g0**2/8 - alpha(1, eps), far too narrow for
    blind scanning.  Over that window the slow coefficients (alpha, eta_R,
    Z, the off-resonant bound terms, the loop) are constant to relative
    O(eta_R), so the interference condition T(0) = 0 reduces to a linear
    equation for the resonant denominator, solved in closed form and then
    polished on the full amplitude.
    """
    if not 0 < g0 <= 1:
        raise DomainError(f"need 0 < g0 <= 1, got {g0}")
    eps_c = 1.0 - g0 * g0 / 8.0
    for _ in range(4):
        nxt = 1.0 - g0 * g0 / 8.0 - alpha_shift(1, eps_c, g0)
        eps_c = 0.5 * (eps_c + min(max(nxt, 0.5), 1.0 - 1e-9))
    k_c = math.sqrt(2.0 * eps_c)
    fac = renorm_factors(0, 1, k_c, k_c, eps_c, g0)
    loop0 = gamma_loop(k_c, k_c, 0, g0)
    eps_tc = eps_c + g0 * g0 / 8.0
    rest = sum(abs(b_coefficient(k_c, n0, g0)) ** 2 / (eps_tc - n0)
               for n0 in range(-31, 32, 2) if n0 != 1)
    b1sq = abs(b_coefficient(k_c, 1, g0)) ** 2
    background = 1.0 - (2j * math.pi / k_c) * rest \
        - (4j * math.pi / k_c) * loop0.value
    resonant_denom = (2j * math.pi / k_c) * fac.Z * b1sq / background
    eps_z = 1.0 - g0 * g0 / 8.0 - fac.alpha + resonant_denom.real

    def objective(eps):
        return abs(assemble(eps, g0, order="renormalized", n_max=0).T[0]) ** 2

    eta = max(fac.eta_R, 1e-9)
    if eps_z < 1.0 - 1e-12:
        lo = eps_z - 3.0 * eta
        hi = min(eps_z + 3.0 * eta, 1.0 - 1e-12)
        points = 9
    else:
        # the self-consistent pole sits at or above the one-quantum
        # threshold; look for a residual interference minimum in the
        # remaining sub-threshold window instead of extrapolating
        lo = 1.0 - max(0.5 * g0 * g0, 20.0 * eta)
        hi = 1.0 - 1e-12
        points = 33
    x_min, f_min, warnings = bracket_min(objective, lo, hi, tol=1e-3 * eta,
                                         scan_points=points)
    if f_min > 0.5:
        raise ZeroNotFoundError(
            f"no transmission minimum below 0.5 near eps = {eps_z} for g0 = {g0}",
            scan_trace={"bracket": (lo, hi), "f_min": f_min},
        )
    diagnostics = {"bracket": (lo, hi), "min_value": f_min,
                   "warnings": warnings, "analytic_zero": eps_z,
                   "pole_center": eps_c, "eta_R": fac.eta_R}
    return float(x_min), diagnostics


def near_zero_amplitudes(eps_i: float, g0: float) -> Dict:
    """Channel amplitudes in the immediate vicinity of the transmission zero.

    Valid only where the pole term dominates (|eps_R(1) - 1| small against
    eta_R(1)); outside that window a RegimeError is raised instead of
    extrapolating.  Returns the limiting inelastic T(n) = R(n) amplitudes,
    their flux coefficients, and the elastic reflection check value.
    """
    k_i = math.sqrt(2.0 * eps_i)
    fac = renorm_factors(0, 1, k_i, k_i, eps_i, g0)
    if abs(fac.eps_R - 1.0) > _REGIME_FACTOR * fac.eta_R:
        raise RegimeError(
            f"|eps_R - 1| = {abs(fac.eps_R - 1.0):.3e} exceeds "
            f"{_REGIME_FACTOR} * eta_R = {_REGIME_FACTOR * fac.eta_R:.3e}")
    loop = gamma_loop(k_i, k_i, 0, g0)
    bracket = 1.0 + (2.0 * math.pi / k_i) * loop.im
    b1 = b_coefficient(k_i, 1, g0)
    out: Dict = {"T": {}, "R": {}, "flux": {}}
    for n in range(1, 7):
        ch = sideband_channel(k_i, n)
        if not ch.is_open:
            continue
        num = b_coefficient(ch.k, n + 1, g0)
        t_n = -(k_i / ch.k) * (num / b1) * bracket
        out["T"][n] = t_n
        out["R"][n] = t_n
        out["flux"][n] = (ch.k / k_i) * abs(t_n) ** 2
    elastic = assemble(eps_i, g0, order="renormalized", n_max=2)
    out["R0_sq"] = abs(elastic.R[0]) ** 2
    return out
