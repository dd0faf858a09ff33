"""Truncated-sideband solver for the sinusoidally driven delta barrier.

Independent ground truth for the perturbative pipeline: the scattering
problem is solved exactly (up to sideband truncation) by matching plane
waves in every Floquet channel across the barrier.  With the ansatz

    psi(xi < 0) = e^{i k_0 xi - i eps_i tau}
                  + sum_n r_n e^{-i k_n xi - i (eps_i + n) tau}
    psi(xi > 0) = sum_n t_n e^{i k_n xi - i (eps_i + n) tau}

continuity at xi = 0 gives t_n = delta_{n0} + r_n and the derivative jump
of the delta term couples neighboring sidebands:

    k_n t_n - (g0 / 2) (t_{n+1} - t_{n-1}) = k_0 delta_{n0}

Closed channels carry k_n = i kappa_n (decaying evanescent waves, the
Im k > 0 continuation).  The sign of the coupling term is fixed by two
checks: g0 -> 0 recovers t_0 = 1, and the first-order |t_{+-1}| matches
the perturbative one-transition amplitude as g0 -> 0.

The system is tridiagonal in the sideband index.  It is solved by Thomas
elimination from both ends of the index range, vectorized over an array
of energies; the energies that share a truncation N (:func:`_truncation`)
share a sweep.  The truncated system conserves flux exactly at every N,
so its unitarity defect measures rounding only, and a defect above 1e-10
raises; convergence in N is what :func:`_truncation` is verified for.
``solve`` is the one-energy case of that sweep and ``transmission_grid``
its array form.

``zero_locate_exact`` bisects the sign of the same sweep's pivot P_{-1}:
below the first threshold t_0 vanishes where it does, that is, where the
closed ladder n <= -1 holds a bound state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from .errors import DomainError, ToleranceError, ZeroNotFoundError, check_domain
from .model import _channel_flux, _reflection, _sideband_ksq

__all__ = [
    "FloquetSolution",
    "FloquetGrid",
    "solve",
    "transmission_grid",
    "total_transmission_exact",
    "zero_locate_exact",
]

_UNITARITY_TOL = 1e-10
_MARGIN = 20           # closed channels kept beyond the open ones
_G0_VERIFIED = 3.5     # largest coupling at which that margin is verified
_CHUNK = 1 << 16       # sideband x energy entries per sweep; from eps_i 16373 on 2N + 1
                       # alone exceeds it, and each sweep holds one energy


@dataclass(frozen=True)
class FloquetSolution:
    """Sideband coefficients of one exact solve.

    ``t`` maps the sideband index n to the transmission coefficient and
    ``r`` to the reflection coefficient r_n = t_n - delta_{n0}; closed
    channels hold evanescent amplitudes that are excluded from the flux
    sum.  ``unitarity_defect`` is |sum of transmitted and reflected flux
    - 1|.  The truncated system conserves flux at every N, so it reports
    rounding (about 1e-16), not the truncation error.
    """

    eps_i: float
    g0: float
    N: int
    t: Dict[int, complex] = field(repr=False)
    unitarity_defect: float = 0.0

    @property
    def r(self) -> Dict[int, complex]:
        return {n: _reflection(n, t) for n, t in self.t.items()}


@dataclass(frozen=True)
class FloquetGrid:
    """Observables of the exact solver over an energy grid, one entry per energy.

    ``T_n[j]`` is the transmitted flux (k_n / k_0)|t_n|**2 into sideband
    n = j - n_max; it is 0 in closed channels and beyond the truncation,
    and ``T_n[n_max]`` is the elastic |t_0|**2.  ``r0_sq`` is |r_0|**2,
    ``T_total`` sums the transmitted flux over all open channels, and
    ``N`` is the truncation each energy was solved at.
    """

    r0_sq: np.ndarray
    T_total: np.ndarray
    T_n: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)


def _truncation(eps: np.ndarray, g0: float) -> np.ndarray:
    """Sideband truncation N of each energy: 2 (floor(eps_i) + 1) + 20.

    At an integer eps_i it counts the threshold channel as open (N is 26 at
    eps_i = 2, 24 just below).  Over eps_i 0.05-12 every flux agrees with a
    sweep at N + 200 to 1e-13 up to g0 = 3.5, but only to 1.4e-12 at 3.75
    and 0.36 at 8, which the unitarity defect cannot see; so a larger g0
    raises :class:`DomainError`.  So does an eps_i >= 2**53, the first one
    named: no float there resolves eps_i + 1 from eps_i, and beyond 2**63
    its floor would wrap in the integer cast.
    """
    if g0 > _G0_VERIFIED:
        raise DomainError(f"g0 = {g0} is above {_G0_VERIFIED}, the largest coupling "
                          "at which the sideband truncation is verified")
    eps = np.asarray(eps)
    huge = eps[eps >= 2.0 ** 53]
    if huge.size:
        raise DomainError("eps_i must be below 2**53 for the sideband truncation, "
                          f"got {float(huge[0])}")
    return 2 * (np.floor(eps).astype(int) + 1) + _MARGIN


def _pivots(eps: np.ndarray, g0: float, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Channel momenta k_n, n = -N..N, and the Thomas pivots at each energy.

    Closed channels carry k_n = i kappa_n.  In one loop over the sideband
    index, row s gets P_{-N+s} in the first len(eps) columns and Q_{N-s} in
    the last: P_n = k_n + c / P_{n-1} from below and
    Q_n = k_n + c / Q_{n+1} from above, with c = (g0/2)**2.
    """
    ksq = _sideband_ksq(eps, np.arange(-N, N + 1)[:, None])
    root = np.sqrt(np.abs(ksq))
    k = np.where(ksq >= 0, root + 0j, 1j * root)
    c = 0.25 * g0 * g0
    piv = np.concatenate([k[:N], k[:N:-1]], axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(1, N):
            piv[s] += c / piv[s - 1]
    return k, piv


def _sweep(eps: np.ndarray, g0: float, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Channel momenta k_n and coefficients t_n, n = -N..N, at each energy.

    Thomas elimination of the tridiagonal system from both ends towards
    n = 0, vectorized over the energies ``eps``, with the pivots P_n from
    below and Q_n from above of :func:`_pivots`.  Then
    t_0 = k_0 / (k_0 + (g0/2)**2 (1/P_{-1} + 1/Q_1)), and every other t_n is
    t_0 times a product of the ratios t_{n-1}/t_n = (g0/2)/P_{n-1} below
    and t_{n+1}/t_n = -(g0/2)/Q_{n+1} above.  Both arrays have shape
    (2N + 1, len(eps)).  A vanishing pivot leaves non-finite entries in
    that energy's column; no warning is raised, the caller tests the columns.
    """
    E = eps.size
    k, piv = _pivots(eps, g0, N)
    c = 0.25 * g0 * g0
    t = np.empty_like(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        below, above = piv[::-1, :E], piv[::-1, E:]
        t[N] = k[N] / (k[N] + c / below[0] + c / above[0])
        t[N - 1::-1] = t[N] * np.cumprod(0.5 * g0 / below, axis=0)
        t[N + 1:] = t[N] * np.cumprod(-0.5 * g0 / above, axis=0)
    return k, t


def _converged(eps: np.ndarray, g0: float) -> Iterator[tuple]:
    """Solve at every energy of ``eps``; yield the solved blocks.

    Each block is (index into ``eps``, N, t, transmitted flux per channel,
    total transmitted flux, unitarity defect); its energies share the N of
    :func:`_truncation`, in ascending N.  The truncated system conserves
    flux at every N, so the defect measures rounding only.  A
    defect above 1e-10, or a singular system, raises
    :class:`ToleranceError` naming the energy: the first faulty one of its
    block for a defect, the first one in ``eps`` for a singular system.
    """
    sizes = _truncation(eps, g0)
    singular = []
    for size in sorted(set(sizes.tolist())):    # np.unique would import numpy.ma
        pending = np.flatnonzero(sizes == size)
        per_chunk = max(1, _CHUNK // (2 * size + 1))
        for start in range(0, pending.size, per_chunk):
            idx = pending[start:start + per_chunk]
            k, t = _sweep(eps[idx], g0, size)
            finite = np.isfinite(t).all(axis=0)
            k_0 = k[size].real
            flux = _channel_flux(k.real, k_0, t)
            total = flux.sum(axis=0)
            # r_n = t_n but at n = 0: reflected flux = total - flux_0 + flux of r_0
            with np.errstate(invalid="ignore"):
                defect = np.abs(2.0 * total - flux[size]
                                + _channel_flux(k_0, k_0, _reflection(0, t[size])) - 1.0)
            bad = finite & (defect > _UNITARITY_TOL)
            if bad.any():
                i = int(np.argmax(bad))
                raise ToleranceError(
                    f"unitarity defect {defect[i]:.3e} at N = {size} "
                    f"at eps_i = {float(eps[idx[i]])}",
                    value=float(defect[i]), eps_i=float(eps[idx[i]]),
                )
            if finite.any():
                keep = slice(None) if finite.all() else finite   # a view, no copy
                yield (idx[keep], size, t[:, keep], flux[:, keep], total[keep],
                       defect[keep])
            singular.extend(idx[~finite])
    if singular:
        first = float(eps[min(singular)])
        raise ToleranceError(f"singular sideband system at eps_i = {first}",
                             eps_i=first)


def solve(eps_i: float, g0: float) -> FloquetSolution:
    """Solve the truncated sideband system at incoming energy ``eps_i``.

    ``N`` is :func:`_truncation`'s; a unitarity defect above
    1e-10 or a singular system raises :class:`ToleranceError`
    (:func:`_converged`).
    """
    check_domain(eps_i=eps_i, g0=g0, non_negative=("g0",))
    (_, N, t, _, _, defect), = _converged(np.array([float(eps_i)]), g0)
    return FloquetSolution(
        eps_i=eps_i, g0=g0, N=N,
        t={n: complex(t[n + N, 0]) for n in range(-N, N + 1)},
        unitarity_defect=float(defect[0]),
    )


def transmission_grid(eps_i, g0: float, n_max: int = 0) -> FloquetGrid:
    """Exact observables at every energy of the 1-D array ``eps_i``.

    Equal, energy by energy, to :func:`solve` (same truncation rule and
    unitarity check), but one sweep serves a whole group of energies.  An
    energy's values do not depend on the other energies of the call, bit
    for bit, so a grid may be solved in pieces.
    """
    eps = np.atleast_1d(np.asarray(eps_i, dtype=float))
    if eps.ndim != 1:
        raise DomainError(f"eps_i must be a 1-D array, got shape {eps.shape}")
    check_domain(eps_i=eps, g0=g0, non_negative=("g0",))
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    out = {name: np.empty(eps.size) for name in ("r0_sq", "T_total")}
    T_n = np.zeros((2 * n_max + 1, eps.size))
    sizes = np.empty(eps.size, dtype=int)
    for idx, N, t, flux, total, _ in _converged(eps, g0):
        out["r0_sq"][idx] = np.abs(_reflection(0, t[N])) ** 2
        out["T_total"][idx] = total
        m = min(n_max, N)
        T_n[n_max - m:n_max + m + 1, idx] = flux[N - m:N + m + 1]
        sizes[idx] = N
    return FloquetGrid(T_n=T_n, N=sizes, **out)


def total_transmission_exact(eps_i: float, g0: float) -> float:
    """Total transmitted flux sum_open (k_n / k_0) |t_n|**2."""
    return float(transmission_grid(eps_i, g0).T_total[0])


def zero_locate_exact(g0: float) -> float:
    """Energy of the elastic transmission zero, located on the exact solver.

    Below the first threshold every channel n <= -1 is closed, so the pivot
    P_{-1} = i p(eps) is purely imaginary, and t_0 vanishes exactly where p
    does.  p falls strictly with eps, from positive at
    max(0.7, 1 - 1.5 g0**2) to -(g0/2)**2 / p_{-2} at eps = 1, and is
    bisected down to adjacent floats, with :func:`solve`'s pivots and
    truncation.  The endpoint with p > 0 is returned, so :func:`solve` is
    regular there even where the other one's pivot rounds to exactly 0.  No
    sign change, or |t_0|**2 above 1e-6 in that one :func:`solve`, raises
    :class:`ZeroNotFoundError`; the latter names both widths where the dip,
    about g0**4/32 wide, spans too few floats below 1 (g0 below about 1.2e-3).
    """
    if not 0 < g0 <= 1:
        raise DomainError(f"need 0 < g0 <= 1, got {g0}")
    lo, hi = max(0.7, 1.0 - 1.5 * g0 * g0), 1.0
    N = int(_truncation(lo, g0))    # one N for the window, hi = 1 included

    def p(eps):
        return float(_pivots(np.array([eps]), g0, N)[1][-1, 0].imag)

    p_lo, p_hi = p(lo), p(hi)
    if not p_lo > 0 > p_hi:
        raise ZeroNotFoundError(
            f"Im P_-1 does not change sign on [{lo}, 1] for g0 = {g0}",
            scan_trace={"window": (lo, hi), "pivots": (p_lo, p_hi)},
        )
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if p(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    depth = abs(solve(lo, g0).t[0]) ** 2
    if depth > 1e-6:
        dip = g0 ** 4 / 32.0
        raise ZeroNotFoundError(
            f"dip at eps_i = {lo} too shallow (|t_0|**2 = {depth:.3e}) at float resolution: "
            f"adjacent floats hi - lo = {hi - lo:.3e} apart, dip g0**4/32 = {dip:.3e} wide",
            scan_trace=dict(window=(lo, hi), min_value=depth, bracket_width=hi - lo, dip_width=dip)
        )
    return lo
