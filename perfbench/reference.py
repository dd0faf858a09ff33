"""Reference computations made apart from the program under test.

* ``sideband_solve`` solves the sideband equations of the driven barrier
  (``drivendelta.floquet``'s docstring)

      k_n t_n - (g0 / 2) (t_{n+1} - t_{n-1}) = k_0 delta_{n0},   r_n = t_n - delta_{n0}

  as a dense linear system at a fixed truncation |n| <= N_REF, batched
  over energies with ``numpy.linalg.solve``.  It shares no code with the
  banded, adaptively truncated solver of ``drivendelta.floquet``.
* ``exact_zero`` finds the zero of t_0 of that solve below the first
  sideband threshold.
* ``loop_re_reference`` evaluates Re Gamma(0), the principal value of the
  elastic continuum loop, with QUADPACK's Cauchy-weight rule
  (``scipy.integrate.quad(weight="cauchy")``) piece by piece between the
  poles.  Only the public closed-form coefficient
  ``drivendelta.amplitudes.a_coefficient`` is taken from the program, so
  the ``renorm`` and ``quadrature`` layers are checked from outside.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

N_REF = 40              # sideband truncation of the dense reference solve
_BATCH = 256            # systems per batched dense solve (~27 MB at N_REF = 40)
_LOOP_TAIL = 1e-14      # loop channels are kept while q(k_i)**|l| exceeds this


def sideband_solve(eps, g0: float):
    """Dense solve at each energy in ``eps``.

    Returns ``(ns, k, t)``: sideband indices (2 N_REF + 1,), channel
    wavenumbers (E, 2 N_REF + 1) with closed channels on +i kappa, and the
    transmission coefficients (E, 2 N_REF + 1).
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    ns = np.arange(-N_REF, N_REF + 1)
    m = ns.size
    k = np.sqrt((2.0 * eps[:, None] + 2.0 * ns[None, :]).astype(complex))
    coupling = np.diag(np.full(m - 1, -0.5 * g0), 1) \
        + np.diag(np.full(m - 1, 0.5 * g0), -1)
    t = np.empty((eps.size, m), dtype=complex)
    for lo in range(0, eps.size, _BATCH):
        kb = k[lo:lo + _BATCH]
        mats = coupling[None, :, :] + kb[:, :, None] * np.eye(m)[None, :, :]
        rhs = np.zeros((kb.shape[0], m, 1), dtype=complex)
        rhs[:, N_REF, 0] = kb[:, N_REF]
        t[lo:lo + _BATCH] = np.linalg.solve(mats, rhs)[:, :, 0]
    return ns, k, t


def observables(eps, g0: float, n_max: int):
    """Flux observables of the dense solve, keyed like the CLI's columns.

    Adds ``T_window``, the transmitted flux of the open channels with
    |n| <= n_max (the channels a perturbative row sums), and
    ``flux_defect``: |sum over open channels of (k_n / k_0)
    (|t_n|**2 + |r_n|**2) - 1|, which vanishes for an exact solution.
    """
    eps = np.atleast_1d(np.asarray(eps, dtype=float))
    ns, k, t = sideband_solve(eps, g0)
    r = t.copy()
    r[:, N_REF] -= 1.0
    k0 = np.sqrt(2.0 * eps)
    open_ = (2.0 * eps[:, None] + 2.0 * ns[None, :]) > 0
    weight = np.where(open_, k.real / k0[:, None], 0.0)
    trans = weight * np.abs(t) ** 2
    out = {
        "T_total": trans.sum(axis=1),
        "T_window": trans[:, N_REF - n_max:N_REF + n_max + 1].sum(axis=1),
        "T_elastic": np.abs(t[:, N_REF]) ** 2,
        "R_elastic": np.abs(r[:, N_REF]) ** 2,
        "flux_defect": np.abs((weight * (np.abs(t) ** 2 + np.abs(r) ** 2)).sum(axis=1)
                              - 1.0),
    }
    for n in range(-n_max, n_max + 1):
        out[f"T_{n}"] = trans[:, N_REF + n]
    return out


def t0(eps: float, g0: float) -> complex:
    """t_0 of the dense solve at one energy."""
    return complex(sideband_solve([eps], g0)[2][0, N_REF])


def exact_zero(g0: float) -> float:
    """Energy below the first threshold where the dense |t_0|**2 vanishes.

    The dip sits a distance of order g0**4 / 64 below eps = 1 and is about
    as wide as that distance, so it is bracketed on a grid logarithmic in
    1 - eps.  t_0 is analytic in eps and its zero is real, so a secant
    iteration on the complex t_0, projected on the real axis, refines it.
    """
    eps = 1.0 - np.geomspace(0.5, 1e-12, 600)
    _, _, t = sideband_solve(eps, g0)
    i = int(np.argmin(np.abs(t[:, N_REF])))
    if i in (0, eps.size - 1):
        raise ValueError(f"no interior |t_0|**2 dip below threshold for g0 = {g0}")

    a, b = float(eps[i - 1]), float(eps[i])
    ta, tb = t0(a, g0), t0(b, g0)
    for _ in range(60):
        if tb == ta:
            break
        x = b - (tb * (b - a) / (tb - ta)).real
        a, ta, b, tb = b, tb, x, t0(x, g0)
        if abs(b - a) <= 1e-15 or tb == 0:
            break
    return b


def loop_re_reference(eps_i: float, g0: float) -> float:
    """Re Gamma(0) at incoming energy ``eps_i`` by the Cauchy-weight rule.

    PV int_0^inf dk sum_{0 < |l| <= L}
        Re[A(k_i <- k, -l) A(k <- k_i, l)] / (eps_i - k**2 / 2 + l),

    with A = ``drivendelta.amplitudes.a_coefficient``.  Each channel carries
    q(k_i)**|l|, q(k) = (sqrt(k**2 + g0**2) - k) / g0, so L is where that
    factor drops below 1e-14, and never below the open channels plus two.
    The integrand has simple poles at k_i and at every open channel
    momentum k_l; [0, inf) is cut at the midpoints between consecutive
    poles so that each piece holds one pole, which QUADPACK's QAWC
    integrates with weight 1 / (k - pole).
    """
    from drivendelta.amplitudes import a_coefficient

    k_i = math.sqrt(2.0 * eps_i)
    q_i = (math.hypot(k_i, g0) - k_i) / g0
    n_ch = max(math.ceil(math.log(_LOOP_TAIL) / math.log(q_i)), int(eps_i) + 2)
    ls = [l for l in range(-n_ch, n_ch + 1) if l != 0]

    def f(x: float) -> float:
        if x <= 0.0:
            return 0.0      # every coefficient vanishes linearly in x
        total = 0.0
        for l in ls:
            prod = a_coefficient(k_i, x, -l, g0) * a_coefficient(x, k_i, l, g0)
            total += prod.real / (eps_i - 0.5 * x * x + l)
        return total

    poles = sorted({k_i} | {math.sqrt(k_i * k_i + 2 * l) for l in ls
                            if k_i * k_i + 2 * l > 0})
    cuts = [0.0] + [0.5 * (a + b) for a, b in zip(poles, poles[1:])] \
        + [1.5 * poles[-1] + 1.0]
    total = 0.0
    for (a, b), p in zip(zip(cuts, cuts[1:]), poles):
        def regular(x, p=p):
            if x == p:      # QAWC never needs the pole itself; average across it
                return 0.5 * (regular(p + 1e-9) + regular(p - 1e-9))
            return f(x) * (x - p)
        val, _ = integrate.quad(regular, a, b, weight="cauchy", wvar=p,
                                epsabs=1e-13, epsrel=1e-10, limit=200)
        total += val
    val, _ = integrate.quad(f, cuts[-1], np.inf, epsabs=1e-13, epsrel=1e-10,
                            limit=200)
    return total + val
