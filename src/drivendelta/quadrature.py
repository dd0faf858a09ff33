"""Reusable numerical kernels.

Adaptive Gauss-Kronrod quadrature, principal-value integration by pole
subtraction (over an interval, or over the half-line with a tangent tail
transform), periodic Fourier coefficients, and bracketed golden-section
minimization.

All kernels are deterministic: identical inputs produce bit-identical
results.  Integrands are expected to accept numpy arrays of evaluation
points and return arrays (real or complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PoleOrderError, ToleranceError

__all__ = [
    "QuadratureResult",
    "adaptive_quad",
    "pv_integral",
    "pv_halfline",
    "fourier_coefficient",
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


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its accuracy bookkeeping."""

    value: complex
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ToleranceError("non-finite quadrature value", value=self.value)


class _Segment:
    """One interval of a lockstep refinement, with its own tolerance and panels.

    A segment with a finite ``pole`` integrates f(x) - residue / (x - pole),
    the pole on one of its edges; a ``tail`` segment integrates
    f(tan u) (1 + tan**2 u) over u.  ``intervals`` holds (lo, hi, value,
    error) per panel, at most ``max_intervals`` of them.
    """

    def __init__(self, a, b, tol, pole=math.inf, residue=0.0, tail=False,
                 max_intervals=2000):
        if not a < b:
            raise DomainError(f"need a < b, got [{a}, {b}]")
        if not tol > 0:
            raise DomainError(f"tol must be positive, got {tol}")
        self.a, self.b, self.tol = a, b, tol
        self.pole, self.residue, self.tail = pole, residue, tail
        self.max_intervals = max_intervals
        self.intervals = []
        self.evals = 0

    def unfinished(self) -> bool:
        """Error estimate above tolerance (or NaN), with budget left."""
        if len(self.intervals) >= self.max_intervals:
            return False
        return not math.fsum(iv[3] for iv in self.intervals) <= self.tol

    def sums(self) -> tuple:
        """(value, error estimate, evaluations) summed over the panels.

        The value is real when its imaginary part is zero.  Raises
        :class:`ToleranceError` if the budget ran out above tolerance.
        """
        ivs = self.intervals
        value = complex(math.fsum(iv[2].real for iv in ivs),
                        math.fsum(complex(iv[2]).imag for iv in ivs))
        if abs(value.imag) == 0.0:
            value = value.real
        err = math.fsum(iv[3] for iv in ivs)
        if err > self.tol and len(ivs) >= self.max_intervals:
            raise ToleranceError(
                f"interval budget exhausted at error estimate {err:.3e} "
                f"(tol {self.tol:.3e})", value=value, error_estimate=err,
            )
        return value, err, self.evals


def _gk15(f, jobs):
    """Gauss-Kronrod 15(7) on the (lo, hi) panels of every (segment, panels) job.

    The nodes of all panels go to ``f`` in one call, and every panel's
    node map and pole subtraction is one array operation over the round:
    a tail panel integrates f(tan u) (1 + tan**2 u), a pole panel
    f(u) - residue / (u - pole).  Panels without a pole carry pole = inf
    and residue 0, so their subtraction removes an exact zero.  Returns
    the panel values and error estimates, in job order."""
    rows = [(lo, hi, seg.pole, seg.residue, seg.tail)
            for seg, panels in jobs for lo, hi in panels]
    a, b, pole, residue, tail = (np.array(col) for col in zip(*rows))
    mids, halves = 0.5 * (a + b), 0.5 * (b - a)
    u = mids[:, None] + halves[:, None] * _NODES
    pole, residue = pole[:, None], residue[:, None]
    # an exact pole hit can only occur on a collapsed panel edge; the
    # subtracted integrand is finite there, so drop the 0/0 noise
    hit = u == pole
    x = np.where(hit, pole + 1.0, u)
    x[tail] = np.tan(u[tail])
    y = np.asarray(f(x.ravel())).reshape(u.shape)
    g = np.where(tail[:, None], y * (1.0 + x * x),
                 np.where(hit, 0.0, y - residue / (x - pole)))
    v15 = halves * np.sum(g * _W15, axis=1)
    v7 = halves * np.sum(g * _W7, axis=1)
    return v15, np.abs(v15 - v7)


def _refine(f, segments):
    """Adaptive bisection of every segment in lockstep.

    Each segment refines exactly as it would alone: it splits its interval
    with the largest error estimate until its summed estimate drops below
    its tolerance or its interval budget is spent.  Per round, the panels
    of all unfinished segments go to ``f`` in a single call.  A finished
    segment never reopens, so each round checks only the segments it
    refined.
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
            seg.evals += 15 * len(panels)
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


def _residues(f, pieces, levels: int = 6) -> list:
    """Simple-pole residues at the poles of the (a, pole, b) ``pieces``.

    Richardson extrapolation of (x - pole) f(x) from symmetric samples at
    offsets h / 2**i, h = min(b - pole, pole - a) / 8; the symmetric
    average kills the odd Taylor terms of the regular part, so a Neville
    table in h**2 removes the even error terms level by level.  The
    2 * levels samples of every pole go to ``f`` in one call, and the
    tables run side by side.  A residue that does not converge is returned
    as its :class:`PoleOrderError`, so the caller raises it in piece order.
    """
    poles = np.array([p for _, p, _ in pieces])
    h = np.array([min(b - p, p - a) / 8.0 for a, p, b in pieces])
    hs = h[:, None] / 2.0 ** np.arange(levels)
    x = np.concatenate([poles[:, None] + hs, poles[:, None] - hs], axis=1)
    ys = np.asarray(f(x.ravel())).reshape(x.shape)
    diag = 0.5 * (hs * ys[:, :levels] - hs * ys[:, levels:])
    for col in range(1, levels):
        factor = 4.0 ** col - 1.0
        for row in range(levels - 1, col - 1, -1):
            diag[:, row] = diag[:, row] + (diag[:, row] - diag[:, row - 1]) / factor
    out = []
    for (_, pole, _), best, prev in zip(pieces, diag[:, -1], diag[:, -2]):
        spread = abs(best - prev)
        if not np.isfinite(best):
            out.append(PoleOrderError(f"residue estimation failed at pole {pole}"))
        elif spread > max(1e-3 * abs(best), 3e-8):
            out.append(PoleOrderError(
                f"residue estimate not converged at pole {pole}: spread {spread:.3e}"))
        else:
            out.append(best)
    return out


def _lockstep(f, pieces, plain, tol, residues=None):
    """Principal values over (a, pole, b) ``pieces`` and plain segments together.

    Without ``residues`` every piece gets a Richardson residue, all in one
    call of ``f``.  Each piece integrates the subtracted remainder on both
    sides of its pole to tol / 2 each and adds the exact log antiderivative
    c ln((b - pole) / (pole - a)); the ``plain`` segments keep their own
    tolerances.  All of them refine in lockstep (:func:`_refine`).  Returns
    the (value, error estimate, evaluations) sums of the pieces, then of
    the plain segments; errors surface in that order.
    """
    if residues is None:
        residues = _residues(f, pieces)
    sides = [(_Segment(a, p, 0.5 * tol, pole=p, residue=c),
              _Segment(p, b, 0.5 * tol, pole=p, residue=c))
             for (a, p, b), c in zip(pieces, residues)
             if not isinstance(c, PoleOrderError)]
    _refine(f, [seg for pair in sides for seg in pair] + plain)
    out, pairs = [], iter(sides)
    for (a, p, b), c in zip(pieces, residues):
        if isinstance(c, PoleOrderError):
            raise c
        left, right = (seg.sums() for seg in next(pairs))
        out.append((left[0] + right[0] + c * math.log((b - p) / (p - a)),
                    left[1] + right[1], left[2] + right[2] + 12))
    return out + [seg.sums() for seg in plain]


def pv_integral(
    f: Callable,
    pole: float,
    a: float,
    b: float,
    tol: float = 1e-8,
    residue=None,
) -> QuadratureResult:
    """Principal value of ``f`` over [a, b] around a simple pole.

    Subtracts ``c / (x - pole)`` with the residue ``c`` estimated by a
    Richardson limit of ``(x - pole) f(x)`` (or supplied by the caller),
    integrates the regular remainder adaptively, and adds the exact log
    antiderivative ``c * ln((b - pole) / (pole - a))``.
    """
    if not a < pole < b:
        raise DomainError(f"pole {pole} not inside ({a}, {b})")
    [res] = _lockstep(f, [(a, pole, b)], [], tol,
                      None if residue is None else [residue])
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
    (``tol`` each) and refinements, but all their panels, and all residue
    tables, go to ``f`` together, a few calls in all.  The value is the sum
    of the pieces and the tail, in that order.
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


def fourier_coefficient(
    integrand: Callable,
    n: int,
    tol: float = 1e-12,
    min_panels: int = 64,
    max_panels: int = 1 << 16,
) -> QuadratureResult:
    """Coefficient (1/2pi) int_0^{2pi} integrand(tau) e^{i n tau} d tau.

    Composite trapezoid on uniform panels with doubling refinement; panel
    counts stay even so tau = 0 and tau = pi (the bound-state window edges)
    always fall on panel boundaries.  Trapezoid is spectrally accurate for
    smooth periodic integrands; the refinement loop certifies the result.
    """
    def approx(m):
        tau = np.arange(m) * (2.0 * math.pi / m)
        vals = np.asarray(integrand(tau)) * np.exp(1j * n * tau)
        return np.sum(vals) / m

    m = max(min_panels, 2)
    prev = approx(m)
    evals = m
    while m < max_panels:
        m *= 2
        cur = approx(m)
        evals += m
        err = abs(cur - prev)
        if err <= tol * max(1.0, abs(cur)):
            return QuadratureResult(value=cur, error_estimate=err, evaluations=evals)
        prev = cur
    raise ToleranceError(
        f"Fourier refinement stalled at {m} panels, change {abs(cur - prev):.3e}",
        value=cur, error_estimate=abs(cur - prev),
    )


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
