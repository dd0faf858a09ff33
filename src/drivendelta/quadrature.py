"""Reusable numerical kernels.

Adaptive Gauss-Kronrod quadrature, principal-value integration by
symmetric folding about each pole (over an interval, or over the
half-line with a tangent tail transform), and bracketed golden-section
minimization.

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

from .errors import DomainError, ToleranceError

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

_BLOCK = 512    # nodes per integrand call: bounds a round's node x channel tables


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its accuracy bookkeeping."""

    value: complex
    error_estimate: float
    evaluations: int


class _Segment:
    """One interval of a lockstep refinement, with its own tolerance and panels.

    A ``fold`` segment integrates f(fold + t) + f(fold - t) over t >= 0, in
    which the 1/t parts of a simple pole at ``fold`` cancel; a ``tail``
    segment integrates f(tan u) (1 + tan**2 u) over u.  ``intervals`` holds
    (lo, hi, value, error) per panel, at most ``max_intervals`` of them.
    """

    def __init__(self, a, b, tol, fold=None, tail=False, max_intervals=2000):
        if not a < b:
            raise DomainError(f"need a < b, got [{a}, {b}]")
        if not tol > 0:
            raise DomainError(f"tol must be positive, got {tol}")
        self.a, self.b, self.tol = a, b, tol
        self.fold, self.tail = fold, tail
        self.max_intervals = max_intervals
        self.intervals = []
        self.evals = 0

    def unfinished(self) -> bool:
        """Finite error estimate above tolerance, with budget left."""
        if len(self.intervals) >= self.max_intervals:
            return False
        return self.tol < math.fsum(iv[3] for iv in self.intervals) < math.inf

    def sums(self) -> tuple:
        """(value, error estimate, evaluations) summed over the panels.

        The value is real when its imaginary part is zero.  A non-finite
        panel, or a budget spent above tolerance, raises
        :class:`ToleranceError` naming the segment.
        """
        ivs = self.intervals
        err = math.fsum(iv[3] for iv in ivs)
        if not math.isfinite(err):
            raise ToleranceError(f"non-finite quadrature value on {self.where()}",
                                 error_estimate=err)
        value = complex(math.fsum(iv[2].real for iv in ivs),
                        math.fsum(complex(iv[2]).imag for iv in ivs))
        if abs(value.imag) == 0.0:
            value = value.real
        if err > self.tol and len(ivs) >= self.max_intervals:
            raise ToleranceError(
                f"interval budget exhausted at error estimate {err:.3e} "
                f"(tol {self.tol:.3e}) on {self.where()}", value=value, error_estimate=err,
            )
        return value, err, self.evals

    def where(self) -> str:
        """The segment as failure messages name it."""
        return ("the tail" if self.tail else f"the interval [{self.a!r}, {self.b!r}]"
                if self.fold is None else f"the fold about pole {self.fold!r}")


def _gk15(f, jobs):
    """Gauss-Kronrod 15(7) on the (lo, hi) panels of every (segment, panels) job.

    Every panel's node map is one array operation over the round: a tail
    panel integrates f(tan u) (1 + tan**2 u), a fold panel f(p + d) +
    f(p - d) at d = (p + u) - p, so that each node pair lies exactly
    symmetric about the pole p and its 1/d parts cancel exactly.  The
    round's nodes, mirrors included, go to ``f`` in consecutive blocks of
    ``_BLOCK``, the last block taking a leftover node: each call gets 2 to
    ``_BLOCK + 1`` nodes.  A 1-node call would change the bits of an
    integrand that sums a (terms, nodes) table over its rows: numpy adds
    the rows of a 1-column table pairwise, of a wider one in sequence.
    Returns the panel values and error estimates, in job order."""
    rows = [(lo, hi, seg.fold is not None, seg.fold or 0.0, seg.tail)
            for seg, panels in jobs for lo, hi in panels]
    a, b, fold, centre, tail = (np.array(col) for col in zip(*rows))
    mids, halves = 0.5 * (a + b), 0.5 * (b - a)
    u = mids[:, None] + halves[:, None] * _NODES
    x = centre[:, None] + u         # u itself off the fold rows
    x[tail] = np.tan(u[tail])
    p = centre[fold, None]
    mirror = p - (x[fold] - p)
    nodes = np.concatenate([x.ravel(), mirror.ravel()])
    y = np.concatenate([f(block) for block in
                        np.split(nodes, range(_BLOCK, nodes.size - 1, _BLOCK))])
    g = y[:x.size].reshape(u.shape)
    g[fold] += y[x.size:].reshape(mirror.shape)
    g[tail] *= 1.0 + x[tail] * x[tail]
    # an infinite node value ends its segment (_Segment.sums): no inf * 0 warning
    with np.errstate(invalid="ignore"):
        v15 = halves * np.sum(g * _W15, axis=1)
        v7 = halves * np.sum(g * _W7, axis=1)
        return v15, np.abs(v15 - v7)


def _refine(f, segments):
    """Adaptive bisection of every segment in lockstep.

    Each segment refines exactly as it would alone: it splits its interval
    with the largest error estimate until its summed estimate drops below
    its tolerance or its interval budget is spent.  Per round, the panels
    of all unfinished segments go to ``f`` together, in node blocks
    (:func:`_gk15`).  A finished segment never reopens, so each round
    checks only the segments it refined.
    """
    jobs = [(seg, [(seg.a, seg.b)]) for seg in segments]
    while jobs:
        values, errors = _gk15(f, jobs)
        values, errors = values.tolist(), errors.tolist()
        i = 0
        for seg, panels in jobs:
            for lo, hi in panels:
                seg.intervals.append((lo, hi, values[i], errors[i]))
                i += 1
            seg.evals += (15 if seg.fold is None else 30) * len(panels)
        refined = []
        for seg, _ in jobs:
            if seg.unfinished():
                ivs = seg.intervals
                # split the worst interval; index-of-max is deterministic
                worst = max(range(len(ivs)), key=lambda j: ivs[j][3])
                wa, wb, _, _ = ivs.pop(worst)
                mid = 0.5 * (wa + wb)
                refined.append((seg, [(wa, mid), (mid, wb)]))
        jobs = refined


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
    seg = _Segment(a, b, tol, max_intervals=max_intervals)
    _refine(f, [seg])
    return QuadratureResult(*seg.sums())


def _lockstep(f, pieces, plain, tol):
    """Principal values over (a, pole, b) ``pieces`` and plain segments together.

    Each piece folds [pole - h, pole + h], h = min(pole - a, b - pole),
    onto t in [0, h], where f(pole + t) + f(pole - t) is regular at a
    simple pole, and integrates the rest of an asymmetric piece as a plain
    segment; the two keep tol / 2 each, and a rest that rounds to empty is
    skipped.  The ``plain`` segments keep their own tolerances.  All of
    them refine in lockstep (:func:`_refine`).  Returns the (value, error
    estimate, evaluations) sums of the pieces, then of the plain segments;
    errors surface in that order.
    """
    parts = []
    for a, p, b in pieces:
        h = min(p - a, b - p)
        lo, hi = (p + h, b) if b - p > p - a else (a, p - h)
        parts.append([_Segment(0.0, h, 0.5 * tol, fold=p)]
                     + ([_Segment(lo, hi, 0.5 * tol)] if lo < hi else []))
    _refine(f, [seg for part in parts for seg in part] + plain)
    out = [tuple(map(sum, zip(*(seg.sums() for seg in part)))) for part in parts]
    return out + [seg.sums() for seg in plain]


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
    of the interval adaptively (:func:`_lockstep`).
    """
    if not a < pole < b:
        raise DomainError(f"pole {pole} not inside ({a}, {b})")
    [res] = _lockstep(f, [(a, pole, b)], [], tol)
    return QuadratureResult(*res)


def pv_halfline(
    f: Callable,
    poles: Sequence[float],
    split: float,
    tol: float = 1e-8,
) -> QuadratureResult:
    """Principal value of ``f`` over [0, inf) with simple poles in (0, split).

    [0, split] is cut at the midpoints between consecutive poles, and each
    piece is a :func:`pv_integral` around its pole (a plain integral when
    there are no poles); the tail from ``split`` is mapped by x = tan(u)
    onto a finite interval.  Pieces and tail keep their own tolerances
    (``tol`` each) and refinements, but all their panels go to ``f``
    together, each refinement round in blocks of at most ``_BLOCK + 1``
    nodes.  The value is the sum of the pieces and the tail, in that order.
    """
    poles = sorted(poles)
    if not (0.0 < min(poles, default=split) and max(poles, default=0.0) < split):
        raise DomainError(f"poles {poles} must lie inside (0, {split})")
    cuts = [0.0] + [0.5 * (p1 + p2) for p1, p2 in zip(poles, poles[1:])] + [split]
    pieces = [(a, p, b) for (a, b), p in zip(zip(cuts, cuts[1:]), poles)]
    plain = [] if poles else [_Segment(0.0, split, tol)]
    plain.append(_Segment(math.atan(split), 0.5 * math.pi, tol, tail=True))
    values, errors, evaluations = zip(*_lockstep(f, pieces, plain, tol))
    return QuadratureResult(value=sum(values), error_estimate=sum(errors),
                            evaluations=sum(evaluations))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def bracket_min(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    scan_points: int = 33,
):
    """Golden-section minimum of a unimodal scalar function on [a, b].

    Returns ``(x_min, f_min, warnings)``.  A coarse scan detects violated
    unimodality; when several local minima show up they are reported in the
    warnings list (with their locations) and the search proceeds from the
    deepest scanned point.
    """
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    xs = np.linspace(a, b, scan_points)
    ys = np.array([f(x) for x in xs])
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
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, scan_points - 1)]
    else:
        i = interior[int(np.argmin(ys[interior]))]
        lo, hi = xs[i - 1], xs[i + 1]

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
    return x_min, f(x_min), warnings
