"""Unit tests for amplitude assembly and derived observables."""

import math
import tracemalloc

import numpy as np
import pytest

from drivendelta import amplitudes, floquet, renorm, smatrix
from drivendelta.errors import DomainError, RegimeError, ZeroNotFoundError
from drivendelta.floquet import solve, zero_locate_exact
from drivendelta.quadrature import bracket_min
from drivendelta.smatrix import (DiagramTerm, assemble, find_transmission_zero,
                                 near_zero_amplitudes, w0)


class TestDiagramTerm:
    def test_valid_labels(self):
        DiagramTerm(label=(1, 1, 0), value=0.1 + 0j, sideband=1)
        DiagramTerm(label=(2, 0, 2), value=0.1 + 0j, sideband=0)

    def test_odd_bound_count_rejected(self):
        with pytest.raises(DomainError):
            DiagramTerm(label=(2, 1, 1), value=0j, sideband=0)

    def test_inconsistent_count_rejected(self):
        with pytest.raises(DomainError):
            DiagramTerm(label=(3, 1, 0), value=0j, sideband=0)


class TestAssemble:
    def test_undriven_transparent(self):
        dec = assemble(0.8, 0.0)
        assert dec.T[0] == pytest.approx(1.0)
        assert dec.R[0] == pytest.approx(0.0)
        assert dec.T_total == pytest.approx(1.0)

    def test_reflection_identity(self):
        dec = assemble(0.55, 0.2, order="renormalized", n_max=3)
        for n in dec.T:
            expected = dec.T[n] - (1.0 if n == 0 else 0.0)
            assert dec.R[n] == expected

    def test_first_order_elastic_untouched(self):
        dec = assemble(0.55, 0.2, order="first")
        assert dec.T[0] == 1.0
        assert dec.T[1] != 0.0

    def test_far_elastic_matches_exact_second_order(self):
        # at order g0**2 the exact elastic amplitude is
        # 1 - (g0**2 / 4 k_0) (1/k_1 + 1/k_{-1}); its imaginary part comes
        # from the closed channel k_{-1} = i kappa through Re Gamma(0)
        eps_i, g0 = 0.3, 0.02
        dec = assemble(eps_i, g0, order="renormalized", n_max=2)
        assert dec.diagnostics["regime"] == "far"
        exact = solve(eps_i, g0).t[0]
        assert abs(dec.T[0] - exact) < 0.1 * abs(exact - 1.0)

    def test_flux_conservation_weak_driving(self):
        dec = assemble(0.55, 0.1, order="renormalized", n_max=4)
        k_i = math.sqrt(2.0 * 0.55)
        r_total = abs(dec.R[0]) ** 2 + sum(
            math.sqrt(k_i * k_i + 2 * n) / k_i * abs(dec.R[n]) ** 2
            for n in dec.R if n != 0)
        assert dec.T_total + r_total == pytest.approx(1.0, abs=2e-3)

    def test_regime_recorded(self):
        far = assemble(0.4, 0.1, order="renormalized", n_max=0)
        near = assemble(0.97, 0.1, order="renormalized", n_max=0)
        assert far.diagnostics["regime"] == "far"
        assert near.diagnostics["regime"] == "near"

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            assemble(-1.0, 0.1)
        with pytest.raises(DomainError):
            assemble(0.5, 0.1, order="third")

    @pytest.mark.parametrize("g0", [0.55, 0.7])
    @pytest.mark.parametrize("eps_i", [0.2, 0.3, 0.4])
    def test_far_form_beats_shifted_series_below_resonance(self, eps_i, g0):
        # the far form divides by the bare eps_i - n0; the full series over
        # the shifted eps_i + g0**2/8 - n0 lands farther from the exact t_0
        # (0.291 against 0.170 at g0 = 0.7, eps_i = 0.2)
        dec = assemble(eps_i, g0, n_max=0)
        assert dec.diagnostics["regime"] == "far"
        k = math.sqrt(2.0 * eps_i)
        shifted = renorm._bound_series(k, k, 0, g0, eps_i + g0 * g0 / 8.0)
        swapped = dec.T[0] + (2j * math.pi / k) * (
            renorm._b_far_elastic(eps_i, g0) - shifted)
        exact = solve(eps_i, g0).t[0]
        assert abs(dec.T[0] - exact) < abs(swapped - exact)

    @pytest.mark.parametrize("eps_i, g0", [(1.0036, 1.89), (1.01, 1.89), (1.05, 1.85),
                                           (1.1, 2.0), (1.3, 1.9), (1.0 + 1e-9, 2.0)])
    def test_far_elastic_form_keeps_off_its_own_pole(self, eps_i, g0):
        # |eps_i - 1| < g0**2/8 is near: the far form divides by eps_i - 1 and
        # gives T_total 4038 at (1.0036, 1.89), 6.4e16 at 1 + 1e-9 (exact 0.63-0.71)
        dec = assemble(eps_i, g0, n_max=2)
        assert dec.diagnostics["regime"] == "near"
        assert "branch_mismatch" not in dec.diagnostics
        assert math.isfinite(dec.T_total) and dec.T_total < 3.0

    @pytest.mark.parametrize("eps_i, regime, T_total, T_0", [
        (0.9, "near", 0.7779570946301891, 0.13740678261826358 - 0.7186614313850693j),
        (1.5, "far", 0.8141451051151423, 0.557860515528551 - 0.20456288995216132j),
    ])
    def test_strong_driving_off_the_bare_pole_is_kept(self, eps_i, regime, T_total, T_0):
        dec = assemble(eps_i, 2.0)
        assert (dec.diagnostics["regime"], dec.T_total, dec.T[0]) == (regime, T_total, T_0)

    def test_far_elastic_boundary_is_the_dropped_shift(self):
        # at g0 = 2, |eps_i - 1| = g0**2/8 = 0.5 is far (see above), one float below it near
        assert assemble(math.nextafter(1.5, 0), 2.0, n_max=0).diagnostics["regime"] == "near"


class TestChannelRule:
    def test_exact_threshold_is_closed(self):
        # k_i * k_i + 2 n once rounded eps_i = 4 open for n = -4, where
        # k_f ~ 1e-8 gave a flux of 71642.92 and T_total 71643.89
        dec = assemble(4.0, 0.7, n_max=4)
        assert -4 not in dec.T and -4 not in dec.flux
        assert dec.T_total < 1.0

    @pytest.mark.parametrize("eps_i", [x for e in range(1, 6)
                                       for x in (math.nextafter(e, -math.inf), float(e),
                                                 math.nextafter(e, math.inf))])
    def test_open_set_is_the_exact_solvers(self, eps_i):
        # both solvers open exactly the n with 2 (eps_i + n) > 0; the
        # exact solver's closed channels carry k_n = i kappa_n (Re k_n = 0)
        rule = [n for n in range(-5, 6) if 2.0 * (eps_i + n) > 0]
        assert sorted(assemble(eps_i, 0.1, order="first", n_max=5).T) == rule
        k, _ = floquet._pivots(np.array([eps_i]), 0.1, 5)
        assert [n for n in range(-5, 6) if k[n + 5, 0].real > 0] == rule


@pytest.mark.parametrize("g0", [0.1, 0.7])
def test_w0_and_assemble_share_one_regime(g0):
    # w0 is the decomposition's own w0, |Im T_B| / |1 + Re T_Gamma| of its
    # elastic terms, exactly so only where both took the same branch of
    # the bound route
    shift = g0 * g0 / 8.0
    near = renorm._NEAR_DISTANCE
    edges = [1.0 - near - shift, 1.0 + near - shift]
    energies = [0.3, 1.0, 1.8, 2.9] + [e + d for e in edges for d in (-1e-9, 1e-9)]
    regimes = []
    for eps_i in energies:
        dec = assemble(eps_i, g0, n_max=0)
        by_label = {t.label: t.value for t in dec.terms if t.sideband == 0}
        expected = abs(by_label[(2, 0, 2)].imag) / abs(1.0 + by_label[(2, 2, 0)].real)
        assert w0(eps_i, g0) == dec.w0
        assert dec.w0 == pytest.approx(expected, rel=1e-13)
        assert dec.loop == renorm.gamma_loop(math.sqrt(2.0 * eps_i), math.sqrt(2.0 * eps_i), 0, g0)
        regimes.append(dec.diagnostics["regime"])
    assert regimes[:4] == ["far", "near", "far", "near"]
    assert regimes[4:] == ["far", "near", "near", "far"]


@pytest.mark.parametrize("g0", [0.1, 0.7])
@pytest.mark.parametrize("eps_i, regime", [
    (2.3, "far"), (3.05, "near"),
    # 1e-9 either side of both switch edges 1 -+ _NEAR_DISTANCE - g0**2/8,
    # where a per-sideband decision could split an energy's sidebands
    pytest.param((-1, -1e-9), "far", id="lower_edge_below-far"),
    pytest.param((-1, 1e-9), "near", id="lower_edge_above-near"),
    pytest.param((1, -1e-9), "near", id="upper_edge_below-near"),
    pytest.param((1, 1e-9), "far", id="upper_edge_above-far"),
])
def test_every_sideband_takes_its_regimes_bound_route(eps_i, regime, g0):
    # near: B^R(n) of b_renorm; far: the n0 = +-1 terms over the bare
    # eps_i - n0 at n = 0, the bare series over eps_i + g0**2/8 elsewhere
    if isinstance(eps_i, tuple):
        side, offset = eps_i
        eps_i = 1.0 + side * renorm._NEAR_DISTANCE - g0 * g0 / 8.0 + offset
    dec = assemble(eps_i, g0, n_max=2)
    assert dec.diagnostics["regime"] == regime
    k_i = math.sqrt(2.0 * eps_i)
    b_sq = abs(amplitudes.b_coefficient(k_i, 1, g0)) ** 2
    routes = {t.sideband: t.value for t in dec.terms if t.label == (2, 0, 2)}
    # sideband -1 is closed below eps 1, -2 below eps 2
    assert sorted(routes) == [n for n in range(-2, 3) if eps_i + n > 0]
    for n, value in routes.items():
        k_f = math.sqrt(2.0 * (eps_i + n))
        if regime == "near":
            form = renorm.b_renorm(n, eps_i, g0)
        elif n == 0:
            form = 0.0j + b_sq / (eps_i - 1) + b_sq / (eps_i + 1)
        else:
            form = renorm._bound_series(k_f, k_i, n, g0, eps_i + g0 * g0 / 8.0)
        assert value == -(2j * math.pi / k_f) * form


@pytest.mark.parametrize("eps_i, regime", [(2.3, "far"), (3.05, "near")])
def test_one_bound_route_call_per_energy(eps_i, regime, monkeypatch):
    # the regime is picked once for all sidebands, not once per sideband
    calls = []
    original = smatrix._bound_routes

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(smatrix, "_bound_routes", counting)
    assert assemble(eps_i, 0.7, n_max=2).diagnostics["regime"] == regime
    assert calls == [(eps_i, 0.7, 1e-8, [-2, -1, 0, 1, 2])]


@pytest.mark.parametrize("fn, args, kwargs, name", [
    (assemble, (0.5, 0.1), {"n_max": -1}, "n_max"),
    (assemble, (0.5, -0.1), {}, "g0"),
    (assemble, (0.5, math.nan), {}, "g0"),
    (assemble, (0.5, math.inf), {}, "g0"),
    (assemble, (math.nan, 0.1), {}, "eps_i"),
    (assemble, (math.inf, 0.1), {}, "eps_i"),
    (assemble, (0.0, 0.1), {}, "eps_i"),
    (w0, (math.nan, 0.1), {}, "eps_i"),
    (w0, (-0.5, 0.1), {}, "eps_i"),
    (w0, (0.5, -0.1), {}, "g0"),
    (w0, (0.5, math.nan), {}, "g0"),
    (near_zero_amplitudes, (math.nan, 0.3), {}, "eps_i"),
    (near_zero_amplitudes, (-1.0, 0.3), {}, "eps_i"),
    # eps_i + g0**2/8 >= 2**53: once a ZeroDivisionError or an OverflowError
    (assemble, (0.5, 1e9), {}, "g0"),
    (assemble, (0.5, 9e9), {}, "g0"),
    (assemble, (0.5, 1e200), {}, "g0"),
    (w0, (0.5, 1e20), {}, "g0"),
], ids=lambda v: getattr(v, "__name__", None))
def test_point_inputs_rejected(fn, args, kwargs, name):
    # these once raised KeyError or ValueError, or returned NaN amplitudes
    with pytest.raises(DomainError, match=f"^{name} must be"):
        fn(*args, **kwargs)


def test_largest_coupling_still_assembled():
    # eps_i + g0**2/8 = 8.45e15, below 2**53 = 9.007e15
    dec = assemble(0.5, 2.6e8, n_max=1)
    assert all(math.isfinite(abs(t)) for t in dec.T.values())


@pytest.mark.parametrize("order, g0", [("first", 0.7), ("first", 0.0),
                                       ("renormalized", 0.0)])
def test_expansion_without_bound_route_reports_zero(order, g0):
    dec = assemble(0.5, g0, order=order, n_max=1)
    assert (dec.w0, dec.loop.re, dec.loop.im) == (0.0, 0.0, 0.0)


class TestW0:
    def test_static_limit(self):
        assert w0(0.5, 0.0) == 0.0

    def test_nonnegative(self):
        for eps in (0.2, 0.6, 1.4):
            assert w0(eps, 0.1) >= 0.0

    def test_grows_toward_resonance(self):
        assert w0(1.0, 0.1) > w0(0.3, 0.1)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(DomainError):
            w0(0.0, 0.1)


class TestLocatorCost:
    def test_cold_locator_sums_the_bound_route_as_arrays(self, monkeypatch):
        # a count, not a timing: the scalar bound-route loops made 4872
        # b_coefficient calls in one cold locator run
        calls = []
        original = amplitudes.b_coefficient

        def counting(*args):
            calls.append(args)
            return original(*args)

        for module in (amplitudes, renorm, smatrix):
            monkeypatch.setattr(module, "b_coefficient", counting)
        for cached in (renorm.gamma_loop, renorm.alpha_shift, renorm.beta_width):
            cached.cache_clear()
        assembled = []
        original_assemble = smatrix.assemble

        def counting_assemble(*args, **kwargs):
            assembled.append(args)
            return original_assemble(*args, **kwargs)

        monkeypatch.setattr(smatrix, "assemble", counting_assemble)
        find_transmission_zero(0.55)
        assert len(calls) <= 5
        # the coarse scan samples the frozen resonant form, so only the
        # golden steps assemble
        assert len(assembled) == 17
        assert renorm.gamma_loop.cache_info().misses == 18


def _full_scan_pick(g0, lo, hi, points, tol=1e-8):
    """The bracket that a scan of the full amplitude |T(0)|**2 over
    ``points`` of [lo, hi] picks: the neighbours of its deepest interior
    local minimum, or of its deepest point if it has none."""
    xs = np.linspace(lo, hi, points)
    ys = [abs(assemble(x, g0, n_max=0, tol=tol).T[0]) ** 2 for x in xs]
    interior = [i for i in range(1, points - 1) if ys[i - 1] > ys[i] <= ys[i + 1]]
    if interior:
        i = min(interior, key=lambda j: ys[j])
        return xs[i - 1], xs[i + 1]
    i = int(np.argmin(ys))
    return xs[max(i - 1, 0)], xs[min(i + 1, points - 1)]


@pytest.mark.parametrize("g0", [0.475, 0.55, 0.7, 0.96, 1.0])
def test_frozen_scan_picks_the_full_amplitude_bracket(monkeypatch, g0):
    # the frozen resonant form picks the bracket that a scan of the full
    # amplitude picks, so golden section returns the same bits
    picked = []
    original = smatrix._golden

    def recording(f, lo, hi, tol):
        picked.append((lo, hi))
        return original(f, lo, hi, tol)

    monkeypatch.setattr(smatrix, "_golden", recording)
    eps, diag = find_transmission_zero(g0)
    lo, hi = diag["bracket"]
    points = 9 if diag["analytic_zero"] < 1.0 - 1e-12 else 33
    assert picked == [_full_scan_pick(g0, lo, hi, points)]
    eta = max(diag["eta_R"], 1e-9)
    x_full, f_full, _ = bracket_min(
        lambda x: abs(assemble(x, g0, n_max=0).T[0]) ** 2, lo, hi,
        tol=1e-3 * eta, scan_points=points)
    assert (repr(eps), repr(diag["min_value"])) == (repr(float(x_full)), repr(f_full))


@pytest.mark.parametrize("g0, eps_z", [(0.1, "1.0010066860426963"),
                                       (0.45, "1.0129142577901056")])
def test_locator_raises_without_a_dip_below_threshold(g0, eps_z):
    with pytest.raises(ZeroNotFoundError) as info:
        find_transmission_zero(g0)
    assert str(info.value) == (f"no transmission minimum below 0.5 near "
                               f"eps = {eps_z} for g0 = {g0}")


@pytest.mark.parametrize("g0", [0.75, 0.85, 0.95])
def test_fallback_window_stays_in_the_near_regime(g0):
    # the window 1 - max(g0**2/2, 20 eta_R) once reached far-regime points
    # (ZeroNotFoundError at 0.725-0.925) and, at 0.95, negative energies
    eps, diag = find_transmission_zero(g0)
    assert diag["bracket"][0] == 1.0 - g0 * g0 / 8.0 - renorm._NEAR_DISTANCE
    assert eps < 1.0
    assert eps == pytest.approx(zero_locate_exact(g0), abs=2e-2)


def test_locator_searches_the_window_below_threshold():
    # at g0 = 0.96 the analytic zero lies below the one-quantum threshold,
    # so the search runs over eps_z +- 3 eta_R, not the sub-threshold window
    eps, diag = find_transmission_zero(0.96)
    eps_z, eta = diag["analytic_zero"], max(diag["eta_R"], 1e-9)
    assert eps_z < 1.0 - 1e-12
    lo, hi = diag["bracket"]
    assert (lo, hi) == (eps_z - 3.0 * eta, min(eps_z + 3.0 * eta, 1.0 - 1e-12))
    assert lo <= eps <= hi
    assert diag["min_value"] < 0.5
    assert eps == pytest.approx(zero_locate_exact(0.96), abs=2e-2)


@pytest.mark.parametrize("g0", [0.3, 0.7])
def test_near_zero_assembles_the_elastic_channel_only(monkeypatch, g0):
    # R(0) and the elastic loop do not depend on n_max; the point was once
    # assembled with n_max = 2, each sideband with its loop and B^R
    eps = zero_locate_exact(g0)
    expected = abs(assemble(eps, g0, n_max=2).R[0]) ** 2
    for cached in (renorm.gamma_loop, renorm.alpha_shift, renorm.beta_width):
        cached.cache_clear()
    sidebands = []
    original = renorm.gamma_loop

    def counting(k_f, k_i, n, *args):
        sidebands.extend([n] * (n != 0))
        return original(k_f, k_i, n, *args)

    for module in (renorm, smatrix):
        monkeypatch.setattr(module, "gamma_loop", counting)
    assert near_zero_amplitudes(eps, g0)["R0_sq"] == expected
    assert sidebands == []


def test_near_zero_refuses_a_point_off_the_pole():
    # eps_i = 0.5 is far outside the window |eps_R - 1| <= 10 eta_R
    with pytest.raises(RegimeError, match=r"^\|eps_R - 1\| = 1\.684e\+00 exceeds "
                                          r"10\.0 \* eta_R = 1\.248e-01$"):
        near_zero_amplitudes(0.5, 0.3)


def test_locator_refuses_strong_driving():
    with pytest.raises(DomainError, match=r"^need 0 < g0 <= 1, got 1\.5$"):
        find_transmission_zero(1.5)


def test_point_memory_does_not_grow_like_channels_squared():
    # the loop and shift integrands tabulate node x channel entries, with
    # L ~ eps_i channels and ~L poles per round: node blocks keep the peak
    # growing like L, not L**2 (12.5 and 48 MiB with whole rounds)
    peaks = {}
    for eps_i in (75.0, 150.0):
        for cached in (renorm.gamma_loop, renorm.alpha_shift, renorm.beta_width):
            cached.cache_clear()
        tracemalloc.start()
        try:
            assemble(eps_i, 0.7, n_max=0)
            peaks[eps_i] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[150.0] < 4 * 2 ** 20
    assert peaks[150.0] < 2.2 * peaks[75.0]
