"""Reusable numerical kernels.

Adaptive Gauss-Kronrod quadrature, principal-value integration by pole
subtraction, semi-infinite integrals with a tangent tail transform, periodic
Fourier coefficients, and bracketed golden-section minimization.

All kernels are deterministic: identical inputs produce bit-identical
results.  Integrands are expected to accept numpy arrays of evaluation
points and return arrays (real or complex).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DivergenceError, DomainError, PoleOrderError, ToleranceError

__all__ = [
    "QuadratureResult",
    "adaptive_quad",
    "pv_integral",
    "semiinf_integral",
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


def _gk15(f, panels):
    """Gauss-Kronrod 15(7) on each (a, b) panel: a list of (value, error).

    The nodes of all panels go to ``f`` in one call."""
    a, b = np.array(panels).T
    mids, halves = 0.5 * (a + b), 0.5 * (b - a)
    x = mids[:, None] + halves[:, None] * _NODES
    y = np.asarray(f(x.ravel())).reshape(x.shape)
    v15 = halves * np.sum(y * _W15, axis=1)
    v7 = halves * np.sum(y * _W7, axis=1)
    return list(zip(v15, np.abs(v15 - v7)))


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
    if not a < b:
        raise DomainError(f"need a < b, got [{a}, {b}]")
    if tol <= 0:
        raise DomainError(f"tol must be positive, got {tol}")
    [(v, e)] = _gk15(f, [(a, b)])
    intervals = [(a, b, v, e)]
    evals = 15
    while len(intervals) < max_intervals:
        total_err = math.fsum(iv[3] for iv in intervals)
        if total_err <= tol:
            break
        # split the worst interval; index-of-max is deterministic
        worst = max(range(len(intervals)), key=lambda i: intervals[i][3])
        wa, wb, _, _ = intervals.pop(worst)
        mid = 0.5 * (wa + wb)
        halves = [(wa, mid), (mid, wb)]
        for (lo, hi), (v, e) in zip(halves, _gk15(f, halves)):
            intervals.append((lo, hi, v, e))
        evals += 30
    intervals.sort(key=lambda iv: iv[0])
    value = complex(math.fsum(iv[2].real for iv in intervals),
                    math.fsum(complex(iv[2]).imag for iv in intervals))
    if abs(value.imag) == 0.0:
        value = value.real
    err = math.fsum(iv[3] for iv in intervals)
    if err > tol and len(intervals) >= max_intervals:
        raise ToleranceError(
            f"interval budget exhausted at error estimate {err:.3e} (tol {tol:.3e})",
            value=value, error_estimate=err,
        )
    return QuadratureResult(value=value, error_estimate=err, evaluations=evals)


def _residue(f, pole: float, h: float, levels: int = 6):
    """Simple-pole residue by Richardson extrapolation of (x - pole) f(x).

    Symmetric samples at offsets h / 2**i, all 2 * levels of them in one
    call of ``f``; the symmetric average kills the odd Taylor terms of the
    regular part, so a Neville table in h**2 removes the even error terms
    level by level."""
    hs = h / 2.0 ** np.arange(levels)
    ys = np.asarray(f(np.concatenate([pole + hs, pole - hs])))
    diag = list(0.5 * (hs * ys[:levels] - hs * ys[levels:]))
    for col in range(1, levels):
        factor = 4.0 ** col - 1.0
        for row in range(levels - 1, col - 1, -1):
            diag[row] = diag[row] + (diag[row] - diag[row - 1]) / factor
    best = diag[levels - 1]
    spread = abs(best - diag[levels - 2])
    if not np.isfinite(best):
        raise PoleOrderError(f"residue estimation failed at pole {pole}")
    if spread > max(1e-3 * abs(best), 3e-8):
        raise PoleOrderError(
            f"residue estimate not converged at pole {pole}: spread {spread:.3e}"
        )
    return best


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
    h = min(b - pole, pole - a) / 8.0
    c = _residue(f, pole, h) if residue is None else residue

    def remainder(x):
        x = np.asarray(x, dtype=float)
        # an exact pole hit can only occur on a collapsed panel edge; the
        # subtracted integrand is finite there, so drop the 0/0 noise
        safe = np.where(x == pole, pole + 1.0, x)
        out = np.asarray(f(safe)) - c / (safe - pole)
        return np.where(x == pole, 0.0, out)

    # keep the pole on a panel edge so nodes never coincide with it
    left = adaptive_quad(remainder, a, pole, tol=0.5 * tol)
    right = adaptive_quad(remainder, pole, b, tol=0.5 * tol)
    value = left.value + right.value + c * math.log((b - pole) / (pole - a))
    return QuadratureResult(
        value=value,
        error_estimate=left.error_estimate + right.error_estimate,
        evaluations=left.evaluations + right.evaluations + 12,
    )


def semiinf_integral(
    f: Callable,
    split: float,
    tol: float = 1e-8,
) -> QuadratureResult:
    """Integrate ``f`` over [0, inf) assuming at least inverse-square decay.

    The finite part [0, split] uses :func:`adaptive_quad`; the tail is
    mapped by x = tan(u) onto a finite interval.  Stability is verified by
    doubling the split point; disagreement beyond max(tol, estimates)
    raises :class:`DivergenceError`.
    """
    if split <= 0:
        raise DomainError(f"split must be positive, got {split}")

    def tail_integrand(u):
        x = np.tan(u)
        return np.asarray(f(x)) * (1.0 + x * x)

    def tail_from(s):
        return adaptive_quad(tail_integrand, math.atan(s), 0.5 * math.pi,
                             tol=0.25 * tol)

    head = adaptive_quad(f, 0.0, split, tol=0.5 * tol)
    tail = tail_from(split)
    middle = adaptive_quad(f, split, 2.0 * split, tol=0.25 * tol)
    tail2 = tail_from(2.0 * split)
    v1 = head.value + tail.value
    v2 = head.value + middle.value + tail2.value
    mismatch = abs(v1 - v2)
    budget = max(tol, head.error_estimate + tail.error_estimate
                 + middle.error_estimate + tail2.error_estimate)
    if mismatch > 100.0 * budget:
        raise DivergenceError(
            f"tail unstable under split doubling: |{v1} - {v2}| = {mismatch:.3e}"
        )
    evals = head.evaluations + tail.evaluations + middle.evaluations + tail2.evaluations
    return QuadratureResult(
        value=v2,
        error_estimate=head.error_estimate + middle.error_estimate
        + tail2.error_estimate + mismatch,
        evaluations=evals,
    )


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
