"""Second-order loop amplitude and the virtual-exchange renormalization stack.

The continuum loop Gamma_{k_f k_i}(n) collects two dressed c/c transitions
with an intermediate continuum propagation; its imaginary part is a finite
residue sum over open channels and its real part a principal-value integral.
The bound-state route is described by the continuum-bound-continuum
amplitude B_{k_f k_i}(n), whose pole at integer effective energy is tamed
by summing virtual multi-photon exchange processes: the pole position
shifts by alpha, acquires the width eta_R = beta * (1 + gamma), and the
residue is normalized by Z.  :func:`_bound_routes` decides once per
energy whether every B(n) takes that form (near the pole) or a bare one (far).

All four perturbative sums, the loop's channels, the shift's and the
width's, and the bound-route series over n0, follow one truncation rule:
each stops at the sideband order where q**m falls below 1e-18
(:func:`_decay_count`).  The quadrature sums cap that order at 32 (the
loop flags a cap hit in its diagnostics); the bound route, one array
entry per term, caps it at 63.  Each sum also always keeps the terms its
value cannot do without: the loop its open channels and |l| <= |n| + 2,
the bound route every n0 between -n and 0, the odd n0 on either side of
its pole and its resonant n0.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .amplitudes import a_coefficient, a_factor, a_kernel, a_signs, b_coefficient, b_kernel
from .errors import DomainError, RegimeError, ToleranceError, check_domain
from .model import _q_base, _sideband_k, _sideband_ksq
from .quadrature import pv_halfline

__all__ = [
    "LoopValue",
    "RenormFactors",
    "gamma_loop",
    "gamma_elastic_closed",
    "alpha_shift",
    "beta_width",
    "renorm_factors",
    "b_renorm",
]

_SERIES_CAP = 32       # cap of _decay_count's order; the loop flags a rule that wants more
_BOUND_CAP = 63        # the bound route's cap: its terms cost one array entry each
_THRESHOLD_GAP = 1e-3  # a failed shift integral within this of a channel threshold is blamed on it
_NEAR_DISTANCE = 0.45  # the bound route is renormalized within this bare pole distance
# entries kept by each cache below: every key holds its energy, and an
# entry is reused only at its own energy, within a few calls of its last
# use (each sideband's renorm_factors reuses the elastic loop, the shift
# and the width), so a grid's earlier energies need no entry
_PER_ENERGY = 64


@dataclass(frozen=True)
class LoopValue:
    """Real/imaginary parts of a loop amplitude with bookkeeping.

    ``im`` comes from the finite open-channel residue sum; ``re`` carries
    the principal-value quadrature error estimate in diagnostics.
    """

    re: float
    im: float
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


def _q_powers(q, rows: int, step=None):
    """Rows q * step**j, j = 0..rows-1, as one running product.

    ``step`` defaults to ``q``, so the rows are q**1 .. q**rows.  One
    in-place ``np.multiply.accumulate`` down the rows makes each row the
    previous row times ``step``, the products of a loop over the rows
    without a Python step per row.
    """
    q = np.asarray(q, dtype=float)
    table = np.empty((rows,) + q.shape)
    table[0] = q
    table[1:] = q if step is None else step
    return np.multiply.accumulate(table, axis=0, out=table)


def _loop_integrand(k_f: float, k_i: float, n: int, eps_i: float, ls, kl2, g0: float):
    """Channel sum of the Re Gamma integrand over a :func:`_loop_channels`
    table, one broadcast per call; each propagator energy is k_l**2/2 of ``kl2``.

    The two transitions' momentum factors depend on the node only: one
    :func:`a_factor` scaled by the other, with the operations of the
    written-out product, multiplies the channel sum once.  At n = 0 the
    channels +l and -l, one from each half of the table, share the numerator
    (q(k)**l - (-1)**l q(k_i)**l)**2, so each pair is one term with the
    propagator sum 2 e / ((e - l)(e + l)), e = eps_i - k**2/2.  The n != 0
    branch keeps A's q-power brackets inline, sign-folded over one table for
    both: through a shared bracket function, six spectrum ``scan`` commands
    took 186-188 ms in process, not 164-166 ms (minimum of 7 runs, 2-core VM).
    """
    q_i = _q_base(k_i, g0)
    e_col = 0.5 * kl2[:, None]      # the channels' energies k_l**2/2

    if n == 0:
        L = len(ls) // 2
        e_minus, e_plus = e_col[:L][::-1], e_col[L:]
        # (-1)**l q(k_i)**l
        shift = _q_powers(-q_i, L)[:, None]

        def integrand(k):
            k = np.asarray(k, dtype=float)
            half = 0.5 * k * k
            num = _q_powers(_q_base(k, g0), L)
            num -= shift
            num *= num
            # (e - l)(e + l), not e**2 - l**2, each factor one subtraction
            # k_l**2/2 - k**2/2: it keeps its digits next to a pole or threshold
            num /= (e_minus - half) * (e_plus - half)
            return a_factor(k, k_i, a_factor(k_i, k, -1.0 / math.pi ** 2)) \
                * 2.0 * (eps_i - half) * num.sum(axis=0)

        return integrand

    m_out, m_in = np.abs(n - ls), np.abs(ls)
    sign_out, par_out = a_signs(n - ls)
    sign_in, par_in = a_signs(ls)
    sign = (sign_out * sign_in)[:, None]
    # out bracket q(k)**m_out - par_out q(k_f)**m_out; in bracket, times
    # both signs, sign q(k_i)**m_in - sign par_in q(k)**m_in
    f_term = (par_out * _q_base(k_f, g0) ** m_out)[:, None]
    i_term = sign * (q_i ** m_in)[:, None]
    i_par = sign * par_in[:, None]
    rows_out, rows_in = m_out - 1, m_in - 1
    top = int(max(m_out.max(), m_in.max()))

    def integrand(k):
        k = np.asarray(k, dtype=float)
        table = _q_powers(_q_base(k, g0), top)
        products = (table[rows_out] - f_term) * (i_term - i_par * table[rows_in])
        return a_factor(k, k_i, a_factor(k_f, k, -1.0 / math.pi ** 2)) \
            * (products / (e_col - 0.5 * k * k)).sum(axis=0)

    return integrand


def _decay_count(q: float, cap: int = _SERIES_CAP) -> int:
    """Sideband orders until q**m falls below 1e-18, kept within 10 .. cap:
    the truncation rule of every perturbative sum."""
    if q >= 1.0:
        return cap
    need = 10 if q <= 0.0 else int(math.ceil(math.log(1e-18) / math.log(q)))
    return min(cap, max(10, need))


def _loop_channels(k_i: float, n: int, g0: float):
    """The loop's energy eps_i = k_i**2/2 and its channel table at momentum
    ``k_i``, read by both loop sums: the cutoff L, the channels l != 0, n
    with |l| <= L ascending, their k_l**2, the open mask and the cap flag.
    l opens where k_i exceeds the rule's k at eps = -l, so an exact
    threshold stays closed where k_i**2/2 rounds up."""
    eps_i = 0.5 * k_i * k_i
    need = _decay_count(float(_q_base(k_i, g0)), _SERIES_CAP + 1)
    L = max(min(need, _SERIES_CAP), abs(n) + 2, int(math.floor(eps_i)) + 2)
    ls = np.arange(-L, L + 1)
    ls = ls[(ls != 0) & (ls != n)]
    is_open = k_i > np.sqrt(_sideband_ksq(np.maximum(-ls, 0), 0))
    return eps_i, L, ls, _sideband_ksq(eps_i, ls), is_open, need > _SERIES_CAP


def _halfline_pv(integrand, poles, scale: float, tol: float):
    """Principal value of ``integrand`` over [0, inf) with ``poles``, and
    the split where its mapped tail starts: max(4 scale, 8, 1.5 max pole),
    the one split rule of the loop and the shift.  A node on a channel
    pole ends its segment by name (quadrature._integrate), so the float
    errors of its evaluation are silenced."""
    split = max(4.0 * scale, 8.0, 1.5 * max(poles, default=0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return pv_halfline(integrand, poles, split, tol), split


@functools.lru_cache(maxsize=_PER_ENERGY)
def gamma_loop(k_f: float, k_i: float, n: int, g0: float, tol: float = 1e-8) -> LoopValue:
    """Second-order continuum loop amplitude Gamma_{k_f k_i}(n).

    im = -pi * sum over open channels l of A_{k_f k_l}(n-l) A_{k_l k_i}(l) / k_l;
    re = principal value over the intermediate momentum of the full
    channel sum, with the propagator poles at open k_l and the transition
    poles at k_i (and k_f for n != 0) all treated symmetrically.  The
    diagnostic ``truncation_capped`` is True where the l-truncation's decay
    rule wants more orders than its cap of 32.
    """
    check_domain(k_f=k_f, k_i=k_i, g0=g0, tol=tol, non_negative=("g0",))
    diag: Dict = {}
    if g0 == 0:
        return LoopValue(re=0.0, im=0.0, diagnostics={"channels": []})

    eps_i, diag["l_max"], ls, kl2, is_open, diag["truncation_capped"] = _loop_channels(k_i, n, g0)
    diag["channels"] = ls.tolist()

    # residue sum over the open channels; A is purely imaginary: Re[(i a)(i b)] = -a b
    l_open, k_open = ls[is_open], np.sqrt(kl2[is_open])
    m_out, m_in, q_k = np.abs(n - l_open), np.abs(l_open), _q_base(k_open, g0)
    products = -(a_kernel(k_f, k_open, n - l_open, _q_base(k_f, g0) ** m_out, q_k ** m_out)
                 * a_kernel(k_open, k_i, l_open, q_k ** m_in, _q_base(k_i, g0) ** m_in))
    im_total = -math.pi * float(np.sum(products / k_open))

    # channels within 1e-6 of threshold get no fold of their own: their
    # principal-value weight scales like k_l ln k_l, and the panels from
    # k = 0 take them
    poles = sorted({k_i, k_f if n else k_i, *np.sqrt(kl2[kl2 > 1e-12]).tolist()})
    res, split = _halfline_pv(_loop_integrand(k_f, k_i, n, eps_i, ls, kl2, g0),
                              poles, max(k_i, k_f, g0), tol)
    diag.update(error_estimate=res.error_estimate, evaluations=res.evaluations,
                poles=poles, split=split)
    return LoopValue(re=res.value, im=im_total, diagnostics=diag)


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
    from numpy.polynomial import polynomial as npoly  # kept out of every command's start-up
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
    from numpy.polynomial import polynomial as npoly  # kept out of every command's start-up
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


def gamma_elastic_closed(k_i: float, g0: float, include_closed: bool = False) -> LoopValue:
    """Closed-form elastic loop: finite channel sums, no quadrature.

    Iterates :func:`gamma_loop`'s channel table at n = 0
    (:func:`_loop_channels`), so both close the same channels.  Im is the
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
    from numpy.polynomial import polynomial as npoly  # kept out of every command's start-up
    check_domain(k_i=k_i, g0=g0)
    lam_i = _inverse_q(k_i / g0).real
    _, L, ls, kl2s, is_open, _ = _loop_channels(k_i, 0, g0)
    inner = [(lam_i, 2), (-1.0 / lam_i, 2), (-lam_i, 4), (1.0 / lam_i, 4)]
    scale = -64.0 * k_i * k_i / (math.pi ** 2 * g0 ** 5)
    re_total, im_total = 0.0, 0.0
    for l, kl2, l_open in zip(ls.tolist(), kl2s.tolist(), is_open.tolist()):
        if not (l_open or include_closed):
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
        if l_open:
            kl = math.sqrt(kl2)
            bracket = lam_l.real ** am - sign * lam_i ** am
            im_total -= (k_i * k_i / (4.0 * math.pi)) * (kl / l ** 2) \
                / (k_i + kl) ** 2 * bracket ** 2
    return LoopValue(re=re_total, im=im_total, diagnostics={"l_max": L})


def _bound_series(k_f: float, k_i: float, n: int, g0: float, pole: complex,
                  resonant=None) -> complex:
    """The c/b/c series: sum over odd n0 of
    B_{k_f b}(n + n0) B_{b k_i}(-n0) / (pole - n0).

    A term carries q(k_i)**|n0| q(k_f)**|n + n0|.  Between n0 = -n and
    n0 = 0 the total power |n0| + |n + n0| is |n|, so every term there can
    be the largest and all are kept; beyond that stretch each step of n0
    multiplies a term by q(k_i) q(k_f), so the series stops
    :func:`_decay_count` (capped at ``_BOUND_CAP``) of the larger q-factor
    past either end.  It always keeps the odd n0 on either side of
    ``pole`` and the resonant n0, wherever they lie.  ``pole`` is one
    number: the bare real eps_t, or the complex eps_R + i eta_R that
    :func:`renorm_factors` sums for Z.  ``resonant`` =
    (n0*, weight) replaces the n0* term's 1 / denominator by ``weight``:
    Z / (eps_R - n0* + i eta_R) renormalizes that term and 0 drops it.
    Only odd n + n0 and odd n0 contribute, so the series vanishes for odd
    n.  A zero denominator raises :class:`RegimeError`.
    """
    if n % 2 != 0:
        return 0.0 + 0.0j
    q_i, q_f = _q_base(k_i, g0), _q_base(k_f, g0)
    order = _decay_count(float(max(q_i, q_f)), _BOUND_CAP)
    n0s = set(range(min(0, -n) - order, max(0, -n) + order + 1)) | set(_odd_neighbours(pole.real))
    if resonant is not None:
        n0s.add(resonant[0])
    n0s = np.array(sorted(m for m in n0s if m % 2 != 0))
    # B_{b k_i}(-n0) = conj(B_{k_i b}(n0))
    num = b_kernel(k_f, q_f ** np.abs(n + n0s), g0) \
        * np.conj(b_kernel(k_i, q_i ** np.abs(n0s), g0))
    denom = pole - n0s
    if resonant is not None:
        n0, weight = resonant
        at = n0s == n0
        denom[at] = 1.0     # that term is replaced below
    if np.any(denom == 0):
        raise RegimeError(f"bound-route denominator {pole} - n0 vanishes at "
                          f"n0 = {n0s[denom == 0][0]}")
    terms = num / denom
    if resonant is not None:
        terms[at] = num[at] * weight
    return complex(terms.sum())


def _shift_integrand(n0: int, eps_i: float, g0: float, kl2):
    """Channel sum of the alpha_shift integrand over the :func:`_bound_channels`
    table ``kl2`` of the odd m = -M .. M.

    sum_m |B_{k b}(m)|**2 / (k**2/2 - k_l**2/2), l = m - n0, with
    |B_{k b}(m)|**2 = |b_kernel(k, 1)|**2 q(k)**(2 |m|), a function of |m|: the
    channels +m and -m, from the table's two halves, pair into one term with
    the propagator sum 2 (k**2/2 - (eps_i - n0)) / ((k**2/2 - e_up)(k**2/2 - e_down)),
    e = k_l**2/2.  Each denominator is one subtraction from k**2/2, so it
    keeps its digits next to a channel's threshold, where e -> 0.
    """
    M = len(kl2) // 2
    e_up, e_down = 0.5 * kl2[M:, None], 0.5 * kl2[M - 1::-1, None]     # +m, -m; m = 1, 3, ..
    e_mid = eps_i - n0

    def integrand(k):
        k = np.asarray(k, dtype=float)
        q2 = _q_base(k, g0) ** 2
        half = 0.5 * k * k
        terms = _q_powers(q2, M, q2 * q2)
        terms /= (half - e_up) * (half - e_down)
        return 2.0 * np.abs(b_kernel(k, 1.0, g0)) ** 2 * (half - e_mid) * terms.sum(axis=0)

    return integrand


def _bound_channels(n0: int, eps_i: float, g0: float):
    """The shift's and width's channels: odd m ascending to the cutoff, k_l**2 at l = m - n0."""
    M = _decay_count(float(_q_base(max(_sideband_k(eps_i, 0), 1.0), g0)))
    ms = np.arange(-M, M + 1)
    ms = ms[ms % 2 != 0]
    return ms, _sideband_ksq(eps_i, ms - n0)


@functools.lru_cache(maxsize=_PER_ENERGY)
def alpha_shift(n0: int, eps_i: float, g0: float, tol: float = 1e-8) -> float:
    """Real pole-position shift from four bound-state transitions.

    2 PV int_0^inf dk sum_l |B_{k b}(n0 + l)|**2 / (eps_k - eps_i - l);
    the channel sum (:func:`_shift_integrand`) runs over odd n0 + l with
    the truncation of :func:`_decay_count`, one broadcast per integrand
    call, with a pole at every open channel's momentum.

    A channel at its threshold, eps_i + m - n0 = 0, raises
    :class:`RegimeError` before integrating; so does a failed quadrature
    with a channel within ``_THRESHOLD_GAP`` of its threshold.
    """
    check_domain(g0=g0, eps_i=eps_i, tol=tol)
    k_i = _sideband_k(eps_i, 0)
    ms, kl2 = _bound_channels(n0, eps_i, g0)
    integrand = _shift_integrand(n0, eps_i, g0, kl2)
    gap = 0.5 * np.abs(kl2)     # distance of each channel from its threshold
    nearest = int(np.argmin(gap))

    def where():
        return f"channel m = {ms[nearest]} (n0 = {n0}) at eps_i = {eps_i!r}"

    if gap[nearest] == 0.0:
        raise RegimeError(f"alpha_shift: {where()} sits at its threshold "
                          "eps_i + m - n0 = 0")
    poles = np.sqrt(kl2[kl2 > 0]).tolist()
    try:
        value = _halfline_pv(integrand, poles, max(k_i, g0), tol)[0].value
    except ToleranceError as exc:
        if gap[nearest] < _THRESHOLD_GAP:
            raise RegimeError(f"alpha_shift: {where()} is {gap[nearest]:.3g} from its "
                              f"threshold eps_i + m - n0 = 0: {exc}") from exc
        raise
    return 2.0 * float(value)


@functools.lru_cache(maxsize=_PER_ENERGY)
def beta_width(n0: int, eps_i: float, g0: float) -> float:
    """Width seed: open-channel flux of the bound-state route, >= 0.

    sum over open l of (2 pi / k_l) |B_{k_l b}(n0 + l)|**2 with
    k_l = sqrt(2 (eps_i + l)).
    """
    check_domain(g0=g0, eps_i=eps_i)
    ms, kl2 = _bound_channels(n0, eps_i, g0)
    is_open = kl2 > 0
    kl = np.sqrt(kl2[is_open])
    b = b_kernel(kl, _q_base(kl, g0) ** np.abs(ms[is_open]), g0)
    return float(np.sum((2.0 * math.pi / kl) * np.abs(b) ** 2))


def renorm_factors(n: int, n0: int, eps_i: float, g0: float,
                   tol: float = 1e-8) -> RenormFactors:
    """Corrected pole parameters for the n0-term of the c/b/c amplitude.

    eps_R = eps_i + g0**2/8 + alpha(n0); eta_R = beta(n0) (1 + gamma_n);
    gamma_n folds the loop amplitude into the width, and Z normalizes the
    residue with the full complex loop values (the elastic limit reduces
    to the familiar 1 - (2 pi i / k_i)[4 Gamma(0) - sum ...] form), at
    the wavenumbers of :func:`model._sideband_k`.  ``tol`` is the quadrature
    tolerance of the shift and the loops.  An odd n or an even n0, which
    has no c/b/c term, raises :class:`DomainError` before any quadrature.
    """
    check_domain(g0=g0, eps_i=eps_i, tol=tol)
    eps_t = _resonance(eps_i, g0)[0]
    k_f, k_i = _sideband_k(eps_i, n), _sideband_k(eps_i, 0)
    if n % 2 != 0 or n0 % 2 == 0:
        raise DomainError("n must be even and n0 odd for a c/b/c term, "
                          f"got n = {n}, n0 = {n0}")
    alpha = alpha_shift(n0, eps_i, g0, tol)
    beta = beta_width(n0, eps_i, g0)
    eps_R = eps_t + alpha

    loop0 = gamma_loop(k_i, k_i, 0, g0, tol)
    if n == 0:
        ratio, loop_n = 1.0 + 0.0j, loop0
    else:
        loop_n = gamma_loop(k_f, k_i, n, g0, tol)
        ratio = b_coefficient(k_i, n0, g0) / b_coefficient(k_f, n + n0, g0)
    gamma_factor = float((2.0 * math.pi / k_i)
                         * (loop0.value + ratio * loop_n.value).imag)
    eta_R = beta * (1.0 + gamma_factor)

    # residue normalization; the l-sum reuses the corrected denominators
    a_n = a_coefficient(k_f, k_i, n, g0) if n != 0 else 0.0
    lsum = ratio * _bound_series(k_f, k_i, n, g0, complex(eps_R, eta_R), resonant=(n0, 0.0))
    Z = 1.0 - (2j * math.pi / k_i) * (2.0 * loop0.value
                                      + ratio * (2.0 * loop_n.value - a_n)
                                      - lsum)
    return RenormFactors(alpha=alpha, beta=beta, gamma_factor=gamma_factor,
                         eta_R=eta_R, eps_R=eps_R, Z=Z, n0=n0)


def _resonance(eps_i: float, g0: float) -> Tuple[float, int]:
    """Effective energy eps_t = eps_i + g0**2/8 and its nearest odd
    resonance n0 (ties resolved downward): the one c/b/c term that can
    reach its pole; at g0 > 0, an eps_t >= 2**53, unresolved from its pole, raises."""
    eps_t = eps_i + g0 * g0 / 8.0
    if g0 > 0 and eps_t >= 2.0 ** 53:
        raise DomainError(f"g0 must be small enough that eps_i + g0**2/8 < 2**53, "
                          f"got {g0} at eps_i = {eps_i}")
    lo, hi = _odd_neighbours(eps_t)
    return eps_t, lo if abs(eps_t - lo) <= abs(eps_t - hi) else hi


def _odd_neighbours(x: float) -> Tuple[int, int]:
    """The odd integers lo <= x < lo + 2 on either side of ``x``."""
    lo = 2 * math.floor((x - 1.0) / 2.0) + 1
    return lo, lo + 2


def b_renorm(n: int, eps_i: float, g0: float, tol: float = 1e-8) -> complex:
    """Renormalized c/b/c amplitude, finite for all real incoming energies.

    Only the dominant term n0 (the odd integer nearest the effective
    energy) can approach its pole, so only that term carries the corrected
    denominator eps_R - n0 + i eta_R and the residue normalization Z; the
    off-resonant terms keep their bare real denominators, where the same
    corrections are suppressed by the pole distance.  ``tol`` is the
    quadrature tolerance of :func:`renorm_factors`.
    """
    check_domain(g0=g0, eps_i=eps_i, tol=tol, non_negative=("g0",))
    eps_t, n0_star = _resonance(eps_i, g0)
    if g0 == 0 or n % 2 != 0:
        return 0.0 + 0.0j     # odd n: the series vanishes (see _bound_series)
    fac = renorm_factors(n, n0_star, eps_i, g0, tol)
    weight = fac.Z / (fac.eps_R - n0_star + 1j * fac.eta_R)
    return _bound_series(_sideband_k(eps_i, n), _sideband_k(eps_i, 0), n, g0, eps_t,
                         resonant=(n0_star, weight))


def _b_far_elastic(eps_i: float, g0: float) -> complex:
    """Far-from-pole elastic bound route: the dominant-pole approximation.

    Keeps only the n0 = +-1 terms over the bare real denominators eps_i - n0,
    valid where the pole distance dominates the width, so the dropped width,
    shift and normalization are higher order; Re Gamma(0), of order g0**2,
    keeps the closed-channel term i g0**2 / (4 k_0 kappa) beside it.
    """
    b_sq = abs(b_coefficient(_sideband_k(eps_i, 0), 1, g0)) ** 2   # |B_{k b}(+-1)|**2
    return 0.0j + b_sq / (eps_i - 1) + b_sq / (eps_i + 1)


def _bound_routes(eps_i: float, g0: float, tol: float, sidebands) -> Tuple[Dict, Dict]:
    """Bound routes B(n) of the open ``sidebands`` (0 among them) and their
    diagnostics, in the energy's one regime: :func:`b_renorm` near, else
    (without the shift/width integrals, which can hit channel thresholds there)
    :func:`_b_far_elastic` at n = 0 and the bare series elsewhere.  Far needs
    eps_t at least _NEAR_DISTANCE from its nearest odd pole n0
    (:func:`_resonance`) and the far form's denominator |eps_i - 1| at least
    the shift g0**2/8 that it drops.  The diagnostics are ``regime``,
    ``pole_distance`` (|eps_R - n0| near, bare far) and, near where that
    denominator test passes, the far form's ``branch_mismatch``."""
    eps_t, n0 = _resonance(eps_i, g0)
    far_ok = abs(eps_i - 1.0) >= g0 * g0 / 8.0
    if abs(eps_t - n0) >= _NEAR_DISTANCE and far_ok:
        k_i = _sideband_k(eps_i, 0)
        routes = {n: _b_far_elastic(eps_i, g0) if n == 0 else
                  _bound_series(_sideband_k(eps_i, n), k_i, n, g0, eps_t) for n in sidebands}
        return routes, {"regime": "far", "pole_distance": abs(eps_t - n0)}
    diagnostics = {"regime": "near",      # eps_t + alpha: renorm_factors' eps_R
                   "pole_distance": abs(eps_t + alpha_shift(n0, eps_i, g0, tol) - n0)}
    routes = {n: b_renorm(n, eps_i, g0, tol) for n in sidebands}
    if far_ok:
        diagnostics["branch_mismatch"] = abs(routes[0] - _b_far_elastic(eps_i, g0))
    return routes, diagnostics
