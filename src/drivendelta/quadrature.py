"""Reusable numerical kernels.

Adaptive Gauss-Kronrod quadrature, principal-value integration by
symmetric folding about each pole (over an interval, or over the
half-line with a tangent tail transform), and bracketed golden-section
minimization.

The three integrators call one engine (:func:`_integrate`): an integral
is a table of segments, the fold and rest of each pole piece, plain
intervals and the tail.  Round 1 evaluates all of them in one array pass;
most finish there, and only the few still open get Python of their own.

All kernels are deterministic: identical inputs produce bit-identical
results.  Integrands are expected to accept numpy arrays of evaluation
points and return arrays (real or complex); each call gets at least two
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ToleranceError, check_domain

__all__ = [
    "QuadratureResult",
    "adaptive_quad",
    "pv_integral",
    "pv_halfline",
    "bracket_min",
]

# 15-point Kronrod extension of 7-point Gauss, abscissae on [-1, 1].
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277,
    0.381830050505119, 0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 ascending nodes
_W15 = np.concatenate([_WGK[:-1], _WGK[::-1]])
_W7 = np.zeros(15)
_W7[1:-1:2] = np.concatenate([_WG[:-1], _WG[::-1]])
_WEIGHTS = np.array([_W15, _W7])

_BLOCK = 512    # nodes per integrand call: bounds a round's node x channel tables


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its accuracy bookkeeping."""

    value: complex
    error_estimate: float
    evaluations: int


def _gk15(f, lo, hi, poles, tails):
    """Gauss-Kronrod 15(7) on the panels [lo, hi], one array pass for all.

    The first ``len(poles)`` panels integrate f(p + d) + f(p - d) at
    d = (p + u) - p, p their pole, so that each node pair lies exactly
    symmetric about p and its 1/d parts cancel exactly; the last ``tails``
    panels integrate f(tan u) (1 + tan**2 u), and the others f.  The
    nodes, mirrors included, go to ``f`` in consecutive blocks of
    ``_BLOCK``, the last taking a leftover node, since numpy adds the rows
    of a 1-column (terms, nodes) table pairwise, of a wider one in
    sequence.  Returns the panel values and error estimates."""
    folds = len(poles)
    mids, halves = 0.5 * (lo + hi), 0.5 * (hi - lo)
    x = mids[:, None] + halves[:, None] * _NODES
    tail = slice(len(x) - tails, None)
    if tails:
        x[tail] = np.tan(x[tail])
    p = poles[:, None]
    x[:folds] += p
    nodes = np.concatenate([x.ravel(), (p - (x[:folds] - p)).ravel()])
    edges = [*range(0, nodes.size - 1, _BLOCK), nodes.size]
    y = np.concatenate([f(nodes[i:j]) for i, j in zip(edges, edges[1:])])
    g = y[:x.size].reshape(x.shape)
    if folds:
        g[:folds] += y[x.size:].reshape(folds, -1)
    if tails:
        g[tail] *= 1.0 + x[tail] * x[tail]
    # an infinite node value ends its segment (_integrate): no inf * 0 warning
    with np.errstate(invalid="ignore"):
        v = halves[:, None] * np.add.reduce(g[:, None] * _WEIGHTS, axis=2)
        return v[:, 0], np.abs(v[:, 0] - v[:, 1])


def _refine(f, lo, hi, tol, poles, tails, max_intervals):
    """Adaptive bisection of the segments [lo, hi] in lockstep.

    The first ``len(poles)`` segments fold about their pole and the last
    ``tails`` are tan-mapped (:func:`_gk15`).  Each segment refines as it
    would alone: it splits its panel with the largest error estimate, the
    first made among equal ones, until its summed estimate drops below its
    ``tol`` or ``max_intervals`` panels are spent.  Round 1 is one pass
    over all segments; per later round, the new panels of the segments
    still open go to ``f`` together.  Returns each segment's value and
    error estimate, :func:`math.fsum` over its panels, and panel count.
    """
    n, folds = len(lo), len(poles)
    v, errors = _gk15(f, lo, hi, poles, tails)
    values = v + 0.0                # the fsum of one panel: -0.0 becomes 0.0
    count = np.ones(n, dtype=int)
    segs = np.flatnonzero((tol < errors) & (errors < math.inf)).tolist() \
        if max_intervals > 1 else []
    # per open segment, its panels (a, b, value) and, in step, their estimates
    live = {s: ([(lo[s].item(), hi[s].item(), v[s].item())], [errors[s].item()])
            for s in segs}
    while segs:
        ends = []
        for s in segs:
            ivs, es = live[s]
            worst = es.index(max(es))
            del es[worst]
            wa, wb, _ = ivs.pop(worst)
            mid = 0.5 * (wa + wb)
            ends += [(wa, mid), (mid, wb)]
        pick = [s for s in segs for _ in "ab"]
        a, b = np.array(ends).T
        v, e = _gk15(f, a, b, poles[[s for s in pick if s < folds]],
                     2 * sum(s >= n - tails for s in segs))
        for s, ab, vi, ei in zip(pick, ends, v.tolist(), e.tolist()):
            live[s][0].append((*ab, vi))
            live[s][1].append(ei)
        segs = [s for s in segs if len(live[s][1]) < max_intervals
                and tol[s] < math.fsum(live[s][1]) < math.inf]
    for s, (ivs, es) in live.items():
        count[s], errors[s] = len(es), math.fsum(es)
        value = complex(math.fsum(iv[2].real for iv in ivs),
                        math.fsum(complex(iv[2]).imag for iv in ivs))
        if value.imag and not np.iscomplexobj(values):
            values = values.astype(complex)
        values[s] = value if value.imag else value.real
    return values, errors, count


def _integrate(f, a, p, b, plain, tails, tol, max_intervals=2000) -> QuadratureResult:
    """Principal values over the pieces (a, p, b), then the ``plain`` rows.

    Each piece folds [p - h, p + h], h = min(p - a, b - p), onto t in
    [0, h], where f(p + t) + f(p - t) is regular at a simple pole, and
    integrates the rest of an asymmetric piece as a plain segment; the two
    keep tol / 2 each, and a rest that rounds to empty is dropped.  The
    ``plain`` (lo, hi) rows keep ``tol``; the last ``tails`` of them are
    tan-mapped.  All of them refine together (:func:`_refine`).  The value
    adds fold and rest per piece, then the pieces left to right, then the
    plain rows, as does the error estimate; a non-finite estimate, or a
    budget spent above tolerance, raises :class:`ToleranceError` for the
    first such segment in that order.
    """
    m, left, right = len(p), p - a, b - p
    h, up = np.minimum(left, right), right > left
    rest_lo, rest_hi = np.where(up, p + h, a), np.where(up, b, p - h)
    rest = np.flatnonzero(rest_lo < rest_hi)
    r = m + len(rest)
    lo = np.concatenate([np.zeros(m), rest_lo[rest], [row[0] for row in plain]])
    hi = np.concatenate([h, rest_hi[rest], [row[1] for row in plain]])
    tols = np.repeat([0.5 * tol, tol], [r, len(plain)])

    def first(rows):
        """The first of ``rows`` in the order fold, rest per piece, then plain."""
        rank = np.concatenate([2 * np.arange(m), 2 * rest + 1, 2 * m + np.arange(len(plain))])
        return int(np.flatnonzero(rows)[np.argmin(rank[rows])])

    if not (lo < hi).all():
        s = first(~(lo < hi))
        raise DomainError(f"need a < b, got [{lo[s].item()}, {hi[s].item()}]")
    values, errors, count = _refine(f, lo, hi, tols, p, tails, max_intervals)
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real

    def total(col):
        pieces = col[:m].copy()
        pieces[rest] += col[m:r]
        return sum(pieces.tolist() + col[r:].tolist())

    error_estimate = total(errors)
    if not math.isfinite(error_estimate) or count.max() >= max_intervals:   # else none failed
        failed = ~np.isfinite(errors) | ((errors > tols) & (count >= max_intervals))
        if failed.any():
            s = first(failed)
            err, value = errors[s].item(), values[s].item()
            where = ("the tail" if s >= len(lo) - tails else f"the fold about pole "
                     f"{p[s].item()!r}" if s < m else
                     f"the interval [{lo[s].item()!r}, {hi[s].item()!r}]")
            if not math.isfinite(err):
                raise ToleranceError(f"non-finite quadrature value on {where}",
                                     error_estimate=err)
            raise ToleranceError(
                f"interval budget exhausted at error estimate {err:.3e} "
                f"(tol {tols[s]:.3e}) on {where}",
                value=value if value.imag else value.real,
                error_estimate=err)
    # c panels left took 2c - 1 evaluated, at 15 nodes each, 30 on a fold
    return QuadratureResult(value=total(values), error_estimate=error_estimate,
                            evaluations=15 * int(2 * count.sum() - len(lo)
                                                 + 2 * count[:m].sum() - m))


def adaptive_quad(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-10,
    max_intervals: int = 2000,
) -> QuadratureResult:
    """Integrate ``f`` over [a, b] by bisection-refined Gauss-Kronrod panels.

    Refines the interval with the largest error estimate until the summed
    estimate drops below ``tol`` or the interval budget runs out; the latter
    raises :class:`ToleranceError` carrying the best value reached.
    """
    check_domain(tol=tol)
    return _integrate(f, *np.zeros((3, 0)), [(a, b)], 0, tol, max_intervals)


def pv_integral(
    f: Callable,
    pole: float,
    a: float,
    b: float,
    tol: float = 1e-8,
) -> QuadratureResult:
    """Principal value of ``f`` over [a, b] around a simple pole.

    Folds the interval about the pole, so that the integrand
    f(pole + t) + f(pole - t) is regular, and integrates it and the rest
    of the interval adaptively (:func:`_integrate`).
    """
    if not a < pole < b:
        raise DomainError(f"pole {pole} not inside ({a}, {b})")
    check_domain(tol=tol)
    return _integrate(f, *np.array([[a], [pole], [b]], float), [], 0, tol)


def pv_halfline(
    f: Callable,
    poles: Sequence[float],
    split: float,
    tol: float = 1e-8,
) -> QuadratureResult:
    """Principal value of ``f`` over [0, inf) with simple poles in (0, split).

    [0, split] is cut at the midpoints between consecutive poles, and each
    piece is a principal value around its pole (a plain integral when
    there are no poles); the tail from ``split`` is mapped by x = tan(u)
    onto a finite interval.  Pieces and tail keep their own tolerances
    (``tol`` each) and refinements, but all their panels go to ``f``
    together (:func:`_integrate`), each refinement round in blocks of at
    most ``_BLOCK + 1`` nodes.  The value is the sum of the pieces and the
    tail, in that order.
    """
    poles = sorted(poles)
    if not (0.0 < min(poles, default=split) and max(poles, default=0.0) < split):
        raise DomainError(f"poles {poles} must lie inside (0, {split})")
    check_domain(tol=tol)
    p = np.array(poles, float)
    cuts = np.concatenate([[0.0], 0.5 * (p[:-1] + p[1:]), [split]])
    plain = [] if poles else [(0.0, split)]
    plain.append((math.atan(split), 0.5 * math.pi))
    return _integrate(f, cuts[:len(p)], p, cuts[1:len(p) + 1], plain, 1, tol)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _scan_bracket(xs, ys):
    """The bracket about the deepest of the values ``ys`` sampled at the
    ascending points ``xs``, and the warnings of the scan.

    The bracket is the two neighbours of the deepest interior local
    minimum, or, with none, of the deepest point, clipped to the ends.
    Several interior minima are reported in the warnings list with their
    locations.
    """
    interior = np.where((ys[1:-1] < ys[:-2]) & (ys[1:-1] <= ys[2:]))[0] + 1
    warnings = []
    if len(interior) > 1:
        warnings.append(
            "non-unimodal sampling pattern; local minima near "
            + ", ".join(f"{xs[i]:.6g}" for i in interior)
        )
    if len(interior) == 0:
        # boundary minimum
        i = int(np.argmin(ys))
        return xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)], warnings
    i = interior[int(np.argmin(ys[interior]))]
    return xs[i - 1], xs[i + 1], warnings


def _golden(f, lo, hi, tol):
    """Golden-section minimum ``(x_min, f_min)`` of ``f`` on [lo, hi],
    narrowed to width ``tol``; ``f`` is evaluated inside [lo, hi] only."""
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    x_min = 0.5 * (lo + hi)
    return x_min, f(x_min)


def bracket_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    scan_points: int = 33,
):
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns ``(x_min, f_min, warnings)``.  A coarse scan of ``scan_points``
    detects violated unimodality; when several local minima show up they
    are reported in the warnings list (with their locations) and the
    search proceeds from the deepest scanned point (:func:`_scan_bracket`,
    then :func:`_golden`).
    """
    if not -math.inf < a < b < math.inf:
        raise DomainError(f"need finite a < b, got [{a}, {b}]")
    check_domain(tol=tol)
    xs = np.linspace(a, b, scan_points)
    lo, hi, warnings = _scan_bracket(xs, np.array([f(x) for x in xs]))
    return (*_golden(f, lo, hi, tol), warnings)
