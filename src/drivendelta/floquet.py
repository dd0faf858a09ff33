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
of energies: energies with the same number of open channels share the
default truncation N = 2 * (open channels) + 20.  The truncated system
conserves flux exactly at every N, so its unitarity defect measures
rounding only, and a defect above 1e-10 raises; convergence in N rests on
that fixed margin of closed channels (checked against doubled N in the
tests).  ``solve`` is the
one-energy case of that sweep and ``transmission_grid`` its array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from .errors import DomainError, ToleranceError, ZeroNotFoundError
from .quadrature import bracket_min

__all__ = [
    "FloquetSolution",
    "FloquetGrid",
    "solve",
    "transmission_grid",
    "total_transmission_exact",
    "zero_locate_exact",
]

_UNITARITY_TOL = 1e-10
_CHUNK = 1 << 16       # sideband x energy entries per sweep: bounds memory at any N


@dataclass(frozen=True)
class FloquetSolution:
    """Sideband coefficients of one exact solve.

    ``t`` and ``r`` map the sideband index n to the transmission and
    reflection coefficients; closed channels hold evanescent amplitudes
    that are excluded from the flux sum.  ``unitarity_defect`` is
    |sum of transmitted and reflected flux - 1|.  The truncated system
    conserves flux at every N, so it reports rounding (about 1e-16), not
    the truncation error.
    """

    eps_i: float
    g0: float
    N: int
    t: Dict[int, complex] = field(repr=False)
    r: Dict[int, complex] = field(repr=False)
    unitarity_defect: float = 0.0

    def k_channel(self, n: int) -> complex:
        """Channel wavenumber: real if open, i*kappa if closed."""
        ksq = 2.0 * self.eps_i + 2 * n
        return math.sqrt(ksq) if ksq >= 0 else 1j * math.sqrt(-ksq)

    def open_channels(self):
        return [n for n in range(-self.N, self.N + 1) if 2.0 * self.eps_i + 2 * n > 0]


@dataclass(frozen=True)
class FloquetGrid:
    """Observables of the exact solver over an energy grid, one entry per energy.

    ``T_n[j]`` is the transmitted flux (k_n / k_0)|t_n|**2 into sideband
    n = j - n_max; it is 0 in closed channels and beyond the truncation.
    ``T_total`` sums that flux over all open channels.  ``N`` is the
    truncation each energy was solved at.
    """

    t0_sq: np.ndarray
    r0_sq: np.ndarray
    T_total: np.ndarray
    T_n: np.ndarray = field(repr=False)
    N: np.ndarray = field(repr=False)


def _sweep(eps: np.ndarray, g0: float, N: int) -> Tuple[np.ndarray, np.ndarray]:
    """Channel momenta k_n and coefficients t_n, n = -N..N, at each energy.

    Thomas elimination of the tridiagonal system from both ends towards
    n = 0: the pivots from below, P_n = k_n + (g0/2)**2 / P_{n-1}, and from
    above, Q_n = k_n + (g0/2)**2 / Q_{n+1}, run side by side in one loop over
    the sideband index, vectorized over the energies ``eps``.  Then
    t_0 = k_0 / (k_0 + (g0/2)**2 (1/P_{-1} + 1/Q_1)), and every other t_n is
    t_0 times a product of the ratios t_{n-1}/t_n = (g0/2)/P_{n-1} below
    and t_{n+1}/t_n = -(g0/2)/Q_{n+1} above.  Both arrays have shape
    (2N + 1, len(eps)).  A vanishing pivot leaves non-finite entries in
    that energy's column; no warning is raised, the caller tests the columns.
    """
    E = eps.size
    ksq = 2.0 * eps + 2.0 * np.arange(-N, N + 1)[:, None]
    root = np.sqrt(np.abs(ksq))
    k = np.where(ksq >= 0, root + 0j, 1j * root)
    c = 0.25 * g0 * g0
    # row s: n = -N + s (first E columns) and n = N - s (last E columns)
    piv = np.concatenate([k[:N], k[:N:-1]], axis=1)
    t = np.empty_like(k)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for s in range(1, N):
            piv[s] += c / piv[s - 1]
        below, above = piv[::-1, :E], piv[::-1, E:]
        t[N] = k[N] / (k[N] + c / below[0] + c / above[0])
        t[N - 1::-1] = t[N] * np.cumprod(0.5 * g0 / below, axis=0)
        t[N + 1:] = t[N] * np.cumprod(-0.5 * g0 / above, axis=0)
    return k, t


def _open_flux(k: np.ndarray, amp: np.ndarray) -> np.ndarray:
    """Per-channel flux (k_n / k_0)|amp_n|**2 of a :func:`_sweep` result.

    Closed channels have Re k_n = 0 and carry no flux.
    """
    N = (len(k) - 1) // 2
    return k.real / k[N].real * np.abs(amp) ** 2


def _converged(eps: np.ndarray, g0: float, N: int | None = None) -> Iterator[tuple]:
    """Solve at every energy of ``eps``; yield the solved blocks.

    Each block is (index into ``eps``, N, t, transmitted flux per channel,
    unitarity defect).  ``N`` defaults to 2 * (open channels) + 20, shared
    by the energies with as many open channels.  The truncated system
    conserves flux at every N, so the defect measures rounding only, and
    convergence in N rests on that fixed margin of 20 closed channels.  A
    defect above 1e-10, or a singular system, raises
    :class:`ToleranceError` naming the energy: the first faulty one of its
    block for a defect, the first one in ``eps`` for a singular system.
    """
    n_open = np.floor(eps).astype(int) + 1
    singular = []
    for group in sorted(set(n_open.tolist())):    # np.unique would import numpy.ma
        pending = np.flatnonzero(n_open == group)
        size = 2 * group + 20 if N is None else N
        per_chunk = max(1, _CHUNK // (2 * size + 1))
        for start in range(0, pending.size, per_chunk):
            idx = pending[start:start + per_chunk]
            k, t = _sweep(eps[idx], g0, size)
            finite = np.isfinite(t).all(axis=0)
            flux = _open_flux(k, t)
            r = t.copy()
            r[size] -= 1.0
            defect = np.abs(flux.sum(axis=0) + _open_flux(k, r).sum(axis=0) - 1.0)
            bad = finite & (defect > _UNITARITY_TOL)
            if bad.any():
                i = int(np.argmax(bad))
                raise ToleranceError(
                    f"unitarity defect {defect[i]:.3e} at N = {size} "
                    f"at eps_i = {float(eps[idx[i]])}",
                    value=float(defect[i]), eps_i=float(eps[idx[i]]),
                )
            if finite.any():
                yield idx[finite], size, t[:, finite], flux[:, finite], defect[finite]
            singular.extend(idx[~finite])
    if singular:
        first = float(eps[min(singular)])
        raise ToleranceError(f"singular sideband system at eps_i = {first}",
                             eps_i=first)


def solve(eps_i: float, g0: float, N: int | None = None) -> FloquetSolution:
    """Solve the truncated sideband system at incoming energy ``eps_i``.

    ``N`` defaults to 2 * (open channels) + 20; a unitarity defect above
    1e-10 or a singular system raises :class:`ToleranceError`
    (:func:`_converged`).
    """
    if eps_i <= 0:
        raise DomainError(f"eps_i must be positive, got {eps_i}")
    if g0 < 0:
        raise DomainError(f"g0 must be >= 0, got {g0}")
    n_open = int(math.floor(eps_i)) + 1
    if N is not None and N < 2 + n_open:
        raise DomainError(f"N = {N} too small for {n_open} open channels")
    (_, N, t, _, defect), = _converged(np.array([float(eps_i)]), g0, N)
    t_vec = t[:, 0]
    r_vec = t_vec.copy()
    r_vec[N] -= 1.0
    ns = range(-N, N + 1)
    return FloquetSolution(
        eps_i=eps_i, g0=g0, N=N,
        t={n: complex(t_vec[i]) for i, n in enumerate(ns)},
        r={n: complex(r_vec[i]) for i, n in enumerate(ns)},
        unitarity_defect=float(defect[0]),
    )


def transmission_grid(eps_i, g0: float, n_max: int = 0) -> FloquetGrid:
    """Exact observables at every energy of the 1-D array ``eps_i``.

    Equal, energy by energy, to :func:`solve` (same truncation rule and
    unitarity check), but one sweep serves a whole group of energies.
    """
    eps = np.atleast_1d(np.asarray(eps_i, dtype=float))
    if eps.ndim != 1:
        raise DomainError(f"eps_i must be a 1-D array, got shape {eps.shape}")
    bad = np.flatnonzero(~(eps > 0))
    if bad.size:
        raise DomainError(f"eps_i must be positive, got {eps[bad[0]]}")
    if g0 < 0:
        raise DomainError(f"g0 must be >= 0, got {g0}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    out = {name: np.empty(eps.size) for name in ("t0_sq", "r0_sq", "T_total")}
    T_n = np.zeros((2 * n_max + 1, eps.size))
    sizes = np.empty(eps.size, dtype=int)
    for idx, N, t, flux, _ in _converged(eps, g0):
        out["t0_sq"][idx] = np.abs(t[N]) ** 2
        out["r0_sq"][idx] = np.abs(t[N] - 1.0) ** 2
        out["T_total"][idx] = flux.sum(axis=0)
        m = min(n_max, N)
        T_n[n_max - m:n_max + m + 1, idx] = flux[N - m:N + m + 1]
        sizes[idx] = N
    return FloquetGrid(T_n=T_n, N=sizes, **out)


def total_transmission_exact(eps_i: float, g0: float) -> float:
    """Total transmitted flux sum_open (k_n / k_0) |t_n|**2."""
    return float(transmission_grid(eps_i, g0).T_total[0])


def zero_locate_exact(g0: float) -> float:
    """Energy of the elastic transmission zero, located on the exact solver.

    The dip is a Fano zero of width comparable to the sideband coupling
    width (orders of magnitude below the scan window at weak driving), so
    the search scans densely, then repeatedly zooms the window around the
    running minimum before a final golden-section refinement.  The zero is
    exact, so the refined minimum is essentially machine zero; a shallow
    minimum means no dip was found.
    """
    if not 0 < g0 <= 1:
        raise DomainError(f"need 0 < g0 <= 1, got {g0}")

    def objective(eps):
        return abs(solve(eps, g0).t[0]) ** 2

    def scan(xs):
        return transmission_grid(xs, g0).t0_sq

    # the dip can sit arbitrarily close below the first sideband threshold
    # (its distance shrinks much faster than g0**2) and its local feature
    # width is comparable to that distance, so the scan is log-spaced in
    # the distance delta = 1 - eps and linear zooming takes over after
    eps_lo = max(0.7, 1.0 - 1.5 * g0 * g0)
    xs = 1.0 - np.geomspace(1.0 - eps_lo, 1e-11, 4001)
    ys = scan(xs)
    i = int(np.argmin(ys))
    if i in (0, len(xs) - 1):
        raise ZeroNotFoundError(
            f"no interior transmission dip in [{eps_lo}, 1) for g0 = {g0}",
            scan_trace={"window": (eps_lo, 1.0), "min_value": float(ys[i])},
        )
    lo, hi = xs[i - 1], xs[i + 1]
    while hi - lo > 1e-10:
        xs = np.linspace(lo, hi, 301)
        ys = scan(xs)
        i = int(np.argmin(ys))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, len(xs) - 1)]
    x_min, f_min, _ = bracket_min(objective, lo, hi, tol=1e-13)
    if f_min > 1e-6:
        raise ZeroNotFoundError(
            f"dip at eps_i = {x_min} too shallow (|t_0|**2 = {f_min:.3e})",
            scan_trace={"window": (lo, hi), "min_value": f_min},
        )
    return float(x_min)
