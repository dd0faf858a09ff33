"""Second-order loop amplitude and the virtual-exchange renormalization stack.

The continuum loop Gamma_{k_f k_i}(n) collects two dressed c/c transitions
with an intermediate continuum propagation; its imaginary part is a finite
residue sum over open channels and its real part a principal-value integral.
The bound-state route is described by the continuum-bound-continuum
amplitude B_{k_f k_i}(n), whose pole at integer effective energy is tamed
by summing virtual multi-photon exchange processes: the pole position
shifts by alpha, acquires the width eta_R = beta * (1 + gamma), and the
residue is normalized by Z.

All series over sideband indices truncate adaptively (geometric decay of
the q-factors); truncation caps are recorded in diagnostics rather than
silently ignored.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from numpy.polynomial import polynomial as npoly

from .amplitudes import a_kernel, b_coefficient, b_coefficient_bc
from .errors import DomainError
from .model import _q_base, q_factor
from .quadrature import adaptive_quad, pv_integral

__all__ = [
    "LoopValue",
    "RenormFactors",
    "gamma_loop",
    "gamma_elastic_closed",
    "b_bare",
    "alpha_shift",
    "beta_width",
    "renorm_factors",
    "b_renorm",
]

_SERIES_CAP = 64       # hard cap on series terms
_SERIES_EPS = 1e-15    # relative cutoff for geometric series tails


@dataclass(frozen=True)
class LoopValue:
    """Real/imaginary parts of a loop amplitude with bookkeeping.

    ``im`` comes from the finite open-channel residue sum; ``re`` carries
    the principal-value quadrature error estimate in diagnostics.
    """

    re: float
    im: float
    n: int
    diagnostics: Dict = field(default_factory=dict, repr=False)

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)


@dataclass(frozen=True)
class RenormFactors:
    """Corrected pole parameters of the c/b/c amplitude."""

    alpha: float
    beta: float
    gamma_factor: float
    eta_R: float
    eps_R: float
    Z: complex
    n0: int


def _loop_products(k_f: float, k_i: float, n: int, ls, k, g0: float):
    """Table of Re[A_{k_f k}(n - l) A_{k k_i}(l)], channels ``ls`` by nodes ``k``.

    Each momentum's q-base is raised once to every power the channels
    need, and the channels pick their rows of that table.  No pole guards.
    """
    ls = np.asarray(ls)[:, None]
    m_out, m_in = np.abs(n - ls), np.abs(ls)
    powers = np.arange(max(m_out.max(), m_in.max()) + 1)
    q_k = _q_base(k, g0) ** powers[:, None]
    q_f, q_i = _q_base(k_f, g0) ** powers, _q_base(k_i, g0) ** powers
    # both factors are purely imaginary: Re[(i a)(i b)] = -a b
    return -(a_kernel(k_f, k, n - ls, q_f[m_out], q_k[m_out[:, 0]])
             * a_kernel(k, k_i, ls, q_k[m_in[:, 0]], q_i[m_in]))


def _loop_integrand(k_f: float, k_i: float, n: int, ls, g0: float):
    """Channel sum of the Re Gamma integrand, one broadcast per call."""
    eps_i = 0.5 * k_i * k_i
    ls = np.asarray(ls)
    col = ls[:, None]

    def integrand(k):
        k = np.asarray(k, dtype=float)
        terms = _loop_products(k_f, k_i, n, ls, k, g0)
        return (terms / (eps_i - 0.5 * k * k + col)).sum(axis=0)

    return integrand


def _decay_count(q: float, cap: int = _SERIES_CAP // 2, floor: int = 10) -> int:
    """Number of sideband orders until q**m underflows the series cutoff."""
    if q <= 0.0:
        return floor
    if q >= 1.0:
        return cap
    need = int(math.ceil(math.log(1e-18) / math.log(q)))
    return min(cap, max(floor, need))


def _loop_l_max(k_i: float, n: int, g0: float) -> int:
    """Channel cutoff |l| <= L of the loop sums (quadrature and closed form)."""
    q_i = float(q_factor(k_i, 1, g0))
    return max(_decay_count(q_i), abs(n) + 2, int(math.floor(0.5 * k_i * k_i)) + 2)


def _pv_over_halfline(f, poles: List[float], split: float, tol: float):
    """PV integral of ``f`` over [0, inf) with simple poles inside (0, split).

    Partitions [0, split] at midpoints between consecutive poles, applies
    residue-subtraction PV on each piece, and adds the tan-transformed
    tail from ``split``.  Returns (value, error_estimate, evaluations).
    """
    poles = sorted(poles)
    value, err, evals = 0.0, 0.0, 0
    if poles:
        cuts = [0.0]
        cuts.extend(0.5 * (p1 + p2) for p1, p2 in zip(poles, poles[1:]))
        cuts.append(split)
        for (a, b), p in zip(zip(cuts, cuts[1:]), poles):
            res = pv_integral(f, p, a, b, tol=tol)
            value += res.value.real if np.iscomplexobj(res.value) else res.value
            err += res.error_estimate
            evals += res.evaluations
    else:
        res = adaptive_quad(f, 0.0, split, tol=tol)
        value += complex(res.value).real
        err += res.error_estimate
        evals += res.evaluations

    def tail(u):
        x = np.tan(u)
        return np.asarray(f(x)) * (1.0 + x * x)

    res = adaptive_quad(tail, math.atan(split), 0.5 * math.pi, tol=tol)
    value += complex(res.value).real
    err += res.error_estimate
    evals += res.evaluations
    return value, err, evals


@functools.lru_cache(maxsize=4096)
def gamma_loop(k_f: float, k_i: float, n: int, g0: float, tol: float = 1e-8) -> LoopValue:
    """Second-order continuum loop amplitude Gamma_{k_f k_i}(n).

    im = -pi * sum over open channels l of A_{k_f k_l}(n-l) A_{k_l k_i}(l) / k_l;
    re = principal value over the intermediate momentum of the full
    channel sum, with the propagator poles at open k_l and the transition
    poles at k_i (and k_f for n != 0) all treated symmetrically.  The
    l-truncation is adaptive with a diagnostics flag on cap hit.
    """
    if k_f <= 0 or k_i <= 0:
        raise DomainError(f"wavenumbers must be positive, got ({k_f}, {k_i})")
    diag: Dict = {}
    if g0 == 0:
        return LoopValue(re=0.0, im=0.0, n=n, diagnostics={"channels": []})

    L = _loop_l_max(k_i, n, g0)
    diag["l_max"] = L
    diag["truncation_capped"] = L >= _SERIES_CAP // 2
    ls = [l for l in range(-L, L + 1) if l != 0 and l != n]
    diag["channels"] = ls

    # finite residue sum over open intermediate channels: channel l at its
    # own k_l, the diagonal of the channels-by-momenta table
    l_open = np.array([l for l in ls if k_i * k_i + 2 * l > 0])
    k_open = np.sqrt(k_i * k_i + 2 * l_open)
    im_total = -math.pi * float(np.sum(
        np.diagonal(_loop_products(k_f, k_i, n, l_open, k_open, g0)) / k_open))

    pole_set = {k_i}
    if n != 0:
        pole_set.add(k_f)
    for l in ls:
        kl2 = k_i * k_i + 2 * l
        # channels within 1e-6 of threshold are left to the plain panels:
        # their principal-value weight scales like k_l ln k_l and the
        # residue extraction degenerates there
        if kl2 > 1e-12:
            pole_set.add(math.sqrt(kl2))
    poles = sorted(pole_set)
    split = max(4.0 * k_i, 4.0 * k_f, 4.0 * g0, 8.0, 1.5 * poles[-1])
    re_total, err, evals = _pv_over_halfline(
        _loop_integrand(k_f, k_i, n, ls, g0), poles, split, tol)
    diag["error_estimate"] = err
    diag["evaluations"] = evals
    diag["poles"] = poles
    return LoopValue(re=re_total, im=im_total, n=n, diagnostics=diag)


def _inverse_q(kbar: complex) -> complex:
    """Root lambda = sqrt(kbar**2 + 1) - kbar of lambda**2 + 2 kbar lambda = 1.

    This is the q-factor base q(k) at kbar = k / g0, written in the form
    free of cancellation for real kbar > 0.  Closed channels pass the
    imaginary kbar = i |k| / g0; the quartic (lambda**2 - lambda_l**2)
    (lambda**2 - lambda_l**-2) built from it does not depend on the branch.
    """
    return 1.0 / (cmath.sqrt(kbar * kbar + 1.0) + kbar)


def _cauchy_moments(p: complex, order: int, n_max: int) -> np.ndarray:
    """Moments M[j - 1, n] = FP int_0^1 lam**n / (lam - p)**j d lam.

    Rows j = 1..order, columns n = 0..n_max.  For real p inside (0, 1)
    the j = 1 row is the principal value and the higher rows are Hadamard
    finite parts.  Where |p|**n_max stays moderate the moments come from
    the upward recursion M_j[n] = M_{j-1}[n-1] + p M_j[n-1] with
    M_0[n] = 1 / (n + 1); beyond that the recursion would amplify rounding
    like |p|**n, and the expansion (lam - p)**-j = (-p)**-j
    sum_m C(m + j - 1, j - 1) (lam / p)**m, convergent for |p| > 1, is
    integrated term by term instead.
    """
    p = complex(p)
    ns = np.arange(n_max + 1)
    out = np.empty((order, n_max + 1), dtype=complex)
    mod = abs(p)
    if mod > 1.0 and n_max * math.log(mod) > math.log(1e4):
        ms = np.arange(int(math.ceil(60.0 / math.log(mod))) + 1)
        decay = p ** -ms
        kernel = 1.0 / (ns[:, None] + ms[None, :] + 1.0)
        for j in range(1, order + 1):
            weights = np.array([math.comb(m + j - 1, j - 1) for m in ms]) * decay
            out[j - 1] = (-p) ** (-j) * (kernel @ weights)
        return out
    if p.imag == 0.0:
        x = p.real
        log_term = math.log(abs(1.0 - x) / abs(x))
    else:
        log_term = cmath.log(1.0 - p) - cmath.log(-p)
    prev = 1.0 / (ns + 1.0)
    for j in range(1, order + 1):
        row = np.empty(n_max + 1, dtype=complex)
        row[0] = log_term if j == 1 else \
            ((1.0 - p) ** (1 - j) - (-p) ** (1 - j)) / (1 - j)
        for m in range(1, n_max + 1):
            row[m] = prev[m - 1] + p * row[m - 1]
        out[j - 1] = row
        prev = row
    return out


def _partial_fractions(numer: np.ndarray, roots) -> List[np.ndarray]:
    """Partial fractions of numer(lam) / prod_r (lam - r)**e_r.

    ``numer`` holds ascending polynomial coefficients of lower degree than
    the denominator; ``roots`` lists the distinct pairs (r, e_r).  Returns,
    per root, the coefficients c[j - 1] of 1 / (lam - r)**j, j = 1..e_r:
    the Taylor coefficients at r of numer times the cofactor.
    """
    out = []
    for idx, (r, e) in enumerate(roots):
        ks = np.arange(e)
        series = np.zeros(e, dtype=complex)
        taylor = npoly.Polynomial(numer)(npoly.Polynomial([r, 1.0])).coef[:e]
        series[:len(taylor)] = taylor
        for jdx, (s, f) in enumerate(roots):
            if jdx == idx:
                continue
            d = r - s
            # (t + d)**-f = d**-f sum_k C(f + k - 1, k) (-t / d)**k
            taylor = np.array([math.comb(f + k - 1, k) for k in ks]) \
                * (-1.0 / d) ** ks * d ** (-f)
            series = np.convolve(series, taylor)[:e]
        out.append(series[::-1])
    return out


def _fp_rational_integral(numer: np.ndarray, roots) -> complex:
    """FP int_0^1 numer(lam) / prod_r (lam - r)**e_r d lam, no quadrature.

    ``numer`` holds ascending polynomial coefficients and ``roots`` the
    distinct pairs (r, e_r).  Expanding the whole integrand in partial
    fractions is ill-conditioned both ways: roots far outside the unit
    disk carry residues that cancel against a huge polynomial part, and a
    cluster of small roots carries residues that cancel over the bulk of
    [0, 1].  So the numerator is first divided by the inner factor
    C_in = prod_{|r| <= 1} (lam - r)**e_r (stable for such roots),
    numer = Q C_in + R.  The proper part R / (C_in C_out) is expanded in
    partial fractions and integrated in closed form; Q / C_out keeps only
    roots outside the unit disk, whose partial fractions are integrated
    monomial by monomial with :func:`_cauchy_moments`.
    """
    inner = [(r, e) for r, e in roots if abs(r) <= 1.0]
    outer = [(r, e) for r, e in roots if abs(r) > 1.0]
    c_in = np.ones(1, dtype=complex)
    for r, e in inner:
        for _ in range(e):
            c_in = np.convolve(c_in, [-r, 1.0])
    quot, rem = npoly.polydiv(np.asarray(numer, dtype=complex), c_in)
    total = 0.0 + 0.0j
    for (r, e), coeffs in zip(roots, _partial_fractions(rem, roots)):
        total += np.dot(coeffs, _cauchy_moments(r, e, 0)[:, 0])
    for (r, e), coeffs in zip(outer, _partial_fractions(np.ones(1), outer)):
        total += np.dot(coeffs, _cauchy_moments(r, e, len(quot) - 1) @ quot)
    return total


def gamma_elastic_closed(k_i: float, g0: float,
                         include_closed: bool = False) -> LoopValue:
    """Closed-form elastic loop: finite channel sums, no quadrature.

    Uses the channel set of :func:`gamma_loop` at n = 0.  Im is the
    open-channel residue sum, unchanged by ``include_closed`` because
    closed channels carry no flux.  Re is the principal-value integral of
    the channel sum, evaluated per channel after the substitution
    lambda = q(k), i.e. k = g0 (1 - lambda**2) / (2 lambda).  With
    kbar = k / g0 and lambda_p = q(k_p), channel l becomes the rational
    integral

        -(64 k_i**2 / (pi**2 g0**5)) FP int_0^1 lambda**4 (1 + lambda**2)
        (1 - lambda**2)**2 (lambda**|l| - (-1)**l lambda_i**|l|)**2
        / [(lambda - lambda_i)**2 (lambda + 1/lambda_i)**2
           (lambda + lambda_i)**4 (lambda - 1/lambda_i)**4
           (lambda**2 - lambda_l**2)(lambda**2 - lambda_l**-2)] d lambda

    which :func:`_fp_rational_integral` evaluates exactly.  Close to a
    channel threshold (|kbar_l| < 1) the roots +-lambda_l and
    +-1/lambda_l crowd together, so the identity
    (1 - lambda**2)**2 / (...) = 1 + 4 kbar_l**2 lambda**2 / (...) is used
    instead; it needs no special case at kbar_l = 0.  The double pole at
    lambda_i cancels between the channels +l and -l, so the sum of
    per-channel finite parts is the principal value.  ``re`` sums all
    channels with ``include_closed`` and the open ones only without it.
    """
    if k_i <= 0:
        raise DomainError(f"k_i must be positive, got {k_i}")
    if g0 <= 0:
        raise DomainError(f"g0 must be positive, got {g0}")
    lam_i = _inverse_q(k_i / g0).real
    L = _loop_l_max(k_i, 0, g0)
    inner = [(lam_i, 2), (-1.0 / lam_i, 2), (-lam_i, 4), (1.0 / lam_i, 4)]
    scale = -64.0 * k_i * k_i / (math.pi ** 2 * g0 ** 5)
    re_total, im_total = 0.0, 0.0
    for l in range(-L, L + 1):
        kl2 = k_i * k_i + 2 * l
        if l == 0 or (kl2 <= 0 and not include_closed):
            continue
        am, sign = abs(l), (-1) ** l
        # lambda**4 (1 + lambda**2) (lambda**|l| - sign lambda_i**|l|)**2
        numer = np.zeros(2 * am + 7)
        for power, coeff in ((2 * am, 1.0), (am, -2.0 * sign * lam_i ** am),
                             (0, lam_i ** (2 * am))):
            numer[power + 4] += coeff
            numer[power + 6] += coeff
        kbl2 = kl2 / g0 ** 2
        lam_l = _inverse_q(cmath.sqrt(kbl2))
        if abs(lam_l * lam_l + 1.0) < 1e-7:
            # closed channel with |k_l| = g0: lambda_l and -1/lambda_l
            # merge at -+i (the merge changes the integrand by ~1e-14)
            channel = [(1j, 2), (-1j, 2)]
        else:
            channel = [(lam_l, 1), (-lam_l, 1), (1.0 / lam_l, 1), (-1.0 / lam_l, 1)]
        if abs(kbl2) >= 1.0:
            value = _fp_rational_integral(
                npoly.polymul(numer, [1.0, 0.0, -2.0, 0.0, 1.0]), inner + channel)
        else:
            value = _fp_rational_integral(numer, inner)
            if kl2 != 0:
                value += 4.0 * kbl2 * _fp_rational_integral(
                    npoly.polymulx(npoly.polymulx(numer)), inner + channel)
        re_total += scale * value.real
        if kl2 > 0:
            kl = math.sqrt(kl2)
            bracket = lam_l.real ** am - sign * lam_i ** am
            im_total -= (k_i * k_i / (4.0 * math.pi)) * (kl / l ** 2) \
                / (k_i + kl) ** 2 * bracket ** 2
    return LoopValue(re=re_total, im=im_total, n=0,
                     diagnostics={"l_max": L, "include_closed": include_closed})


def _b_pair(k_f: float, k_i: float, m_out: int, m_in: int, g0: float) -> complex:
    """Product B_{k_f b}(m_out) * B_{b k_i}(m_in); zero for even indices."""
    if m_out % 2 == 0 or m_in % 2 == 0:
        return 0.0 + 0.0j
    return b_coefficient(k_f, m_out, g0) * b_coefficient_bc(k_i, m_in, g0)


def b_bare(k_f: float, k_i: float, n: int, eps_i: float, g0: float,
           eta: float) -> complex:
    """Bare c/b/c amplitude with the convergence regulator ``eta`` > 0.

    Sum over intermediate sideband offsets n0 of
    B_{k_f b}(n + n0) B_{b k_i}(-n0) / (eps_i + g0**2/8 - n0 + i eta);
    only odd n + n0 and odd n0 contribute, so the amplitude vanishes for
    odd n.  The n0-series truncates on geometric decay.
    """
    if eta <= 0:
        raise DomainError(f"eta must be positive, got {eta}")
    eps_t = eps_i + g0 * g0 / 8.0
    total = 0.0 + 0.0j
    acc = 0.0
    terms = 0
    for a in range(1, _SERIES_CAP + 1):
        # walk outward: n0 = +a, -a
        layer = 0.0
        for n0 in (a, -a):
            num = _b_pair(k_f, k_i, n + n0, -n0, g0)
            if num == 0:
                continue
            term = num / (eps_t - n0 + 1j * eta)
            total += term
            layer += abs(term)
            terms += 1
        acc += layer
        if acc > 0 and layer < _SERIES_EPS * acc and a > max(2, abs(n) + 1):
            break
    return total


@functools.lru_cache(maxsize=4096)
def alpha_shift(n0: int, eps_i: float, g0: float, tol: float = 1e-8) -> float:
    """Real pole-position shift from four bound-state transitions.

    2 * sum_l PV int_0^inf dk |B_{k b}(n0 + l)|**2 / (eps_k - eps_i - l);
    the channel sum runs over odd n0 + l with adaptive truncation.
    """
    if g0 <= 0:
        raise DomainError(f"g0 must be positive, got {g0}")
    k_i = math.sqrt(2.0 * eps_i)
    q_i = float(q_factor(max(k_i, 1.0), 1, g0))
    M = _decay_count(q_i)
    total = 0.0
    for m in range(-M, M + 1):
        if m % 2 == 0:
            continue
        l = m - n0
        am = abs(m)

        def integrand(k, _l=l, _am=am):
            k = np.asarray(k, dtype=float)
            mod2 = (g0 / math.pi) * (_q_base(k, g0) ** _am) ** 2 \
                / (k * k + 0.25 * g0 * g0)
            return mod2 / (0.5 * k * k - eps_i - _l)

        kl2 = 2.0 * (eps_i + l)
        poles = [math.sqrt(kl2)] if kl2 > 0 else []
        split = max(4.0 * k_i, 4.0 * g0, 8.0, (1.5 * poles[0]) if poles else 0.0)
        value, _, _ = _pv_over_halfline(integrand, poles, split, tol)
        total += value
    return 2.0 * total


@functools.lru_cache(maxsize=4096)
def beta_width(n0: int, eps_i: float, g0: float) -> float:
    """Width seed: open-channel flux of the bound-state route, >= 0.

    sum over open l of (2 pi / k_l) |B_{k_l b}(n0 + l)|**2 with
    k_l = sqrt(2 (eps_i + l)).
    """
    if g0 <= 0:
        raise DomainError(f"g0 must be positive, got {g0}")
    k_i = math.sqrt(2.0 * eps_i)
    q_i = float(q_factor(max(k_i, 1.0), 1, g0))
    M = _decay_count(q_i)
    total = 0.0
    for m in range(-M, M + 1):
        if m % 2 == 0:
            continue
        l = m - n0
        kl2 = 2.0 * (eps_i + l)
        if kl2 <= 0:
            continue
        kl = math.sqrt(kl2)
        total += (2.0 * math.pi / kl) * abs(b_coefficient(kl, m, g0)) ** 2
    return total


def renorm_factors(n: int, n0: int, k_f: float, k_i: float, eps_i: float,
                   g0: float) -> RenormFactors:
    """Corrected pole parameters for the n0-term of the c/b/c amplitude.

    eps_R = eps_i + g0**2/8 + alpha(n0); eta_R = beta(n0) (1 + gamma_n);
    gamma_n folds the loop amplitude into the width, and Z normalizes the
    residue with the full complex loop values (the elastic limit reduces
    to the familiar 1 - (2 pi i / k_i)[4 Gamma(0) - sum ...] form).
    """
    alpha = alpha_shift(n0, eps_i, g0)
    beta = beta_width(n0, eps_i, g0)
    eps_R = eps_i + g0 * g0 / 8.0 + alpha

    loop0 = gamma_loop(k_i, k_i, 0, g0)
    ratio = 0.0 + 0.0j
    loop_n = loop0
    b_out = _b_pair(k_f, k_i, n + n0, -n0, g0)
    if n == 0:
        ratio = 1.0 + 0.0j
    elif b_out != 0:
        loop_n = gamma_loop(k_f, k_i, n, g0)
        ratio = b_coefficient(k_i, n0, g0) / b_coefficient(k_f, n + n0, g0)
    gamma_factor = float((2.0 * math.pi / k_i)
                         * (loop0.value + ratio * loop_n.value).imag)
    eta_R = beta * (1.0 + gamma_factor)

    # residue normalization; the l-sum reuses the corrected denominators
    from .amplitudes import a_coefficient
    a_n = a_coefficient(k_f, k_i, n, g0) if n != 0 else 0.0
    lsum = 0.0 + 0.0j
    for l in range(-_SERIES_CAP // 2, _SERIES_CAP // 2 + 1):
        if l == n0:
            continue
        num = _b_pair(k_f, k_i, n + l, -l, g0)
        if num == 0:
            continue
        lsum += num * ratio / (eps_R - l + 1j * eta_R)
    Z = 1.0 - (2j * math.pi / k_i) * (2.0 * loop0.value
                                      + ratio * (2.0 * loop_n.value - a_n)
                                      - lsum)
    return RenormFactors(alpha=alpha, beta=beta, gamma_factor=gamma_factor,
                         eta_R=eta_R, eps_R=eps_R, Z=Z, n0=n0)


def _nearest_odd(x: float) -> int:
    """Odd integer closest to x (ties resolved downward)."""
    lo = 2 * math.floor((x - 1.0) / 2.0) + 1
    hi = lo + 2
    return int(lo if abs(x - lo) <= abs(x - hi) else hi)


def b_renorm(k_f: float, k_i: float, n: int, eps_i: float, g0: float) -> complex:
    """Renormalized c/b/c amplitude, finite for all real incoming energies.

    Only the dominant term n0 (the odd integer nearest the effective
    energy) can approach its pole, so only that term carries the corrected
    denominator eps_R - n0 + i eta_R and the residue normalization Z; the
    off-resonant terms keep their bare real denominators, where the same
    corrections are suppressed by the pole distance.
    """
    if g0 == 0:
        return 0.0 + 0.0j
    eps_t = eps_i + g0 * g0 / 8.0
    n0_star = _nearest_odd(eps_t)
    fac = renorm_factors(n, n0_star, k_f, k_i, eps_i, g0)
    total = 0.0 + 0.0j
    acc = 0.0
    for a in range(1, _SERIES_CAP + 1):
        layer = 0.0
        for n0 in (a, -a):
            num = _b_pair(k_f, k_i, n + n0, -n0, g0)
            if num == 0:
                continue
            if n0 == n0_star:
                term = fac.Z * num / (fac.eps_R - n0 + 1j * fac.eta_R)
            else:
                term = num / (eps_t - n0)
            total += term
            layer += abs(term)
        acc += layer
        if acc > 0 and layer < _SERIES_EPS * acc and a > max(2, abs(n) + 1):
            break
    return total
