"""Unit tests for the exact truncated-sideband solver."""

import math
import re
import warnings

import numpy as np
import pytest

from drivendelta import floquet
from drivendelta.amplitudes import a_coefficient
from drivendelta.errors import DomainError, ToleranceError, ZeroNotFoundError
from drivendelta.floquet import (solve, total_transmission_exact,
                                 transmission_grid, zero_locate_exact)
from drivendelta.model import _channel_flux, _sideband_k, _sideband_ksq


class TestSolve:
    def test_undriven_is_transparent(self):
        sol = solve(0.8, 0.0)
        assert sol.t[0] == pytest.approx(1.0)
        assert all(abs(sol.t[n]) < 1e-14 for n in sol.t if n != 0)

    def test_unitarity_at_convergence(self):
        for eps in (0.3, 0.97, 1.6, 2.4):
            sol = solve(eps, 0.7)
            assert sol.unitarity_defect <= 1e-10

    def test_truncation_robustness(self):
        base = solve(0.9, 0.7)
        N = base.N + 10
        k, t = floquet._sweep(np.array([0.9]), 0.7, N)
        open_channels = [n for n in base.t if k[N + n, 0].real > 0]
        assert open_channels == list(range(base.N + 1))    # n >= 0 below eps = 1
        for n in open_channels:
            assert abs(abs(base.t[n]) ** 2 - abs(t[N + n, 0]) ** 2) < 1e-12

    def test_continuity_identity(self):
        sol = solve(1.4, 0.5)
        for n in sol.t:
            expected = sol.t[n] - (1.0 if n == 0 else 0.0)
            assert sol.r[n] == pytest.approx(expected, abs=1e-14)

    def test_weak_driving_first_sideband_matches_perturbation(self):
        # |t_1| approaches the single-transition amplitude (2 pi / k_1)|A(1)|
        eps_i, g0 = 0.8, 0.01
        k_i = math.sqrt(2.0 * eps_i)
        k_1 = math.sqrt(k_i * k_i + 2.0)
        sol = solve(eps_i, g0)
        pert = 2.0 * math.pi / k_1 * abs(a_coefficient(k_1, k_i, 1, g0))
        assert abs(sol.t[1]) == pytest.approx(pert, rel=2e-3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            solve(-0.5, 0.1)
        with pytest.raises(DomainError):
            solve(0.5, -0.1)

    @pytest.mark.parametrize("fn", [solve, lambda eps, g0: transmission_grid([0.5, eps], g0)],
                             ids=["solve", "transmission_grid"])
    @pytest.mark.parametrize("eps_i,g0,name", [
        (0.5, math.nan, "g0"), (0.5, math.inf, "g0"),
        (math.nan, 0.1, "eps_i"), (math.inf, 0.1, "eps_i")])
    def test_non_finite_inputs_named(self, fn, eps_i, g0, name):
        # a nan or inf g0 once raised "singular sideband system", an inf or
        # nan energy a numpy RuntimeWarning and "Maximum allowed size exceeded"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{name} must be .* finite, got {eps_i if name == 'eps_i' else g0}$"):
                fn(eps_i, g0)


def _dense_solve(eps_i, g0, N):
    """The sideband system as a dense matrix, solved by LU with pivoting."""
    ns = np.arange(-N, N + 1)
    ksq = 2.0 * eps_i + 2.0 * ns
    k = np.where(ksq >= 0, np.sqrt(np.abs(ksq)) + 0j, 1j * np.sqrt(np.abs(ksq)))
    a = (np.diag(k) + np.diag(np.full(2 * N, -0.5 * g0), 1)
         + np.diag(np.full(2 * N, 0.5 * g0), -1))
    rhs = np.zeros(2 * N + 1, dtype=complex)
    rhs[N] = math.sqrt(2.0 * eps_i)
    return np.linalg.solve(a, rhs)


def _dense_zero(g0, N=40):
    """Zero of the dense t_0 below the first threshold.

    Bracketed on a grid logarithmic in 1 - eps, then refined by a secant
    iteration on the complex t_0, projected on the real axis.
    """
    eps = 1.0 - np.geomspace(0.5, 1e-12, 300)
    t0 = [_dense_solve(e, g0, N)[N] for e in eps]
    i = int(np.argmin(np.abs(t0)))
    a, b, ta, tb = eps[i - 1], eps[i], t0[i - 1], t0[i]
    for _ in range(60):
        if tb == ta:
            break
        a, ta, b = b, tb, b - (tb * (b - a) / (tb - ta)).real
        tb = _dense_solve(b, g0, N)[N]
        if abs(b - a) <= 1e-15 or tb == 0:
            break
    return float(b)


class TestBatchedSweep:
    # the Thomas pivots are smallest next to the thresholds, where k_n -> 0
    NEAR_THRESHOLDS = np.array([th + side * d for th in (1.0, 2.0) for side in (-1, 1)
                                for d in np.geomspace(1e-11, 1e-3, 5)])

    @pytest.mark.parametrize("g0", [0.1, 0.7, 1.0])
    def test_matches_dense_solve(self, g0):
        eps = np.concatenate([self.NEAR_THRESHOLDS, [0.05, 0.5, 1.5, 2.9]])
        N = 24
        _, t = floquet._sweep(eps, g0, N)
        dense = np.array([_dense_solve(e, g0, N) for e in eps]).T
        assert np.max(np.abs(t - dense)) <= 1e-12

    def test_grid_matches_scalar_solve(self):
        g0, n_max = 0.7, 3
        eps = np.concatenate([np.linspace(0.05, 4.6, 37), self.NEAR_THRESHOLDS])
        grid = transmission_grid(eps, g0, n_max)
        assert len(set(grid.N)) >= 4    # several groups of open channels
        for i, e in enumerate(eps):
            sol = solve(float(e), g0)
            k = floquet._pivots(np.array([e]), g0, sol.N)[0][:, 0]
            flux = {n: k[sol.N + n].real / k[sol.N].real * abs(sol.t[n]) ** 2
                    for n in sol.t if k[sol.N + n].real > 0}
            assert grid.N[i] == sol.N
            assert grid.T_n[n_max, i] == pytest.approx(abs(sol.t[0]) ** 2, rel=1e-14, abs=1e-15)
            assert grid.r0_sq[i] == pytest.approx(abs(sol.r[0]) ** 2, rel=1e-14, abs=1e-15)
            assert grid.T_total[i] == pytest.approx(sum(flux.values()), rel=1e-14)
            for j, n in enumerate(range(-n_max, n_max + 1)):
                assert grid.T_n[j, i] == pytest.approx(flux.get(n, 0.0), rel=1e-14, abs=0)

    def test_unitarity_defect_names_first_faulty_energy(self, monkeypatch):
        # The truncated system conserves flux at any N, so the defect is
        # injected: energies below 0.5 carry a 1e-6 error at the default
        # N = 22, which raises instead of being retried at a larger N.
        sweep = floquet._sweep

        def faulty(eps, g0, N):
            k, t = sweep(eps, g0, N)
            if N == 22:
                t[N] += np.where(eps < 0.5, 1e-6, 0.0)
            return k, t

        monkeypatch.setattr(floquet, "_sweep", faulty)
        eps = np.linspace(0.2, 2.6, 13)
        with pytest.raises(ToleranceError, match="unitarity defect .* at N = 22 ") as exc:
            transmission_grid(eps, 0.7, 2)
        assert exc.value.eps_i == eps[0]
        assert exc.value.value > 1e-10
        with pytest.raises(ToleranceError, match="unitarity defect") as exc:
            transmission_grid(eps[::-1], 0.7, 2)
        assert exc.value.eps_i == eps[1]    # the first faulty one in grid order
        for e in eps[:2]:
            with pytest.raises(ToleranceError, match="unitarity defect") as exc:
                solve(float(e), 0.7)
            assert exc.value.eps_i == e
        for e in eps[2:]:
            assert solve(float(e), 0.7).N == 2 * (int(e) + 1) + 20
        assert transmission_grid(eps[2:], 0.7, 2).N.tolist() == [
            2 * (int(e) + 1) + 20 for e in eps[2:]]

    @pytest.mark.parametrize("g0", [0.1, 0.7, 1.0, 3.0, floquet._G0_VERIFIED])
    def test_default_truncation_matches_doubled(self, g0):
        # the unitarity defect cannot see truncation, so the default margin
        # N = 2 n_open + 20 is checked against a sweep at twice that N
        n_max = 3
        eps = np.linspace(0.2, 4.4, 200)
        grid = transmission_grid(eps, g0, n_max)
        assert grid.N.tolist() == [2 * (int(e) + 1) + 20 for e in eps]
        for N in set(grid.N.tolist()):
            idx = np.flatnonzero(grid.N == N)
            k, t = floquet._sweep(eps[idx], g0, 2 * N)
            flux = _channel_flux(k.real, k[2 * N].real, t)
            t0 = t[2 * N]
            for name, doubled in (("r0_sq", np.abs(t0 - 1.0) ** 2),
                                  ("T_total", flux.sum(axis=0))):
                assert np.max(np.abs(getattr(grid, name)[idx] - doubled)) <= 1e-13
            sidebands = flux[2 * N - n_max:2 * N + n_max + 1]
            assert np.max(np.abs(grid.T_n[:, idx] - sidebands)) <= 1e-13

    def test_chunks_cover_every_energy(self):
        eps = np.linspace(0.05, 2.95, 6000)   # more energies than one chunk holds
        grid = transmission_grid(eps, 0.3)
        for i in range(0, eps.size, 397):
            assert grid.T_n[0, i] == pytest.approx(abs(solve(float(eps[i]), 0.3).t[0]) ** 2,
                                                   rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 256])
    def test_pieces_match_whole_grid_bit_for_bit(self, size):
        # the CLI solves its grid in blocks; a block can hold a lone energy
        # of its truncation group, and every observable must not notice
        eps = np.random.default_rng(11).uniform(0.05, 4.5, 600)
        whole = transmission_grid(eps, 0.7, 3)
        pieces = [transmission_grid(eps[i:i + size], 0.7, 3)
                  for i in range(0, eps.size, size)]
        for name in ("r0_sq", "T_total", "T_n", "N"):
            joined = np.concatenate([getattr(p, name) for p in pieces], axis=-1)
            assert np.array_equal(joined, getattr(whole, name)), name

    def test_singular_system_names_first_energy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="at eps_i = 2.0$") as exc:
                transmission_grid([0.5, 2.0, 1.0], 0.0)
            with pytest.raises(ToleranceError, match="at eps_i = 1.0$"):
                solve(1.0, 0.0)
        assert exc.value.eps_i == 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            transmission_grid([0.5, 0.0], 0.1)
        with pytest.raises(DomainError):
            transmission_grid([0.5], -0.1)
        with pytest.raises(DomainError):
            transmission_grid([0.5], 0.1, n_max=-1)
        with pytest.raises(DomainError, match=re.escape("a 1-D array, got shape (2, 2)")):
            transmission_grid(np.full((2, 2), 0.5), 0.1)


class TestVerifiedCoupling:
    """The fixed margin of closed channels holds up to ``_G0_VERIFIED``, and
    the solver refuses a larger coupling instead of a silently wrong flux."""

    BOUND = floquet._G0_VERIFIED

    def test_every_flux_matches_a_wider_sweep_at_the_bound(self):
        # N + 200 closed channels against the default; relative to the unit
        # incoming flux, they differ by 8.5e-14 at 3.5 and 1.4e-12 at 3.75
        eps = np.concatenate([np.linspace(0.05, 12.0, 2400),
                              [m + s * d for m in range(1, 12) for s in (-1, 1)
                               for d in (1e-10, 1e-6, 1e-2)]])
        grid = transmission_grid(eps, self.BOUND, n_max=50)
        for N in set(grid.N.tolist()):
            idx = np.flatnonzero(grid.N == N)
            k, t = floquet._sweep(eps[idx], self.BOUND, N + 200)
            flux = _channel_flux(k.real, k[N + 200].real, t)
            t0 = t[N + 200]
            for name, wide in (("r0_sq", np.abs(t0 - 1.0) ** 2),
                               ("T_total", flux.sum(axis=0))):
                assert np.max(np.abs(getattr(grid, name)[idx] - wide)) <= 1e-13, name
            # T_n is 0 past the default's N, and n_max = 50 covers every N here
            assert np.max(np.abs(grid.T_n[:, idx] - flux[N + 150:N + 251])) <= 1e-13

    @pytest.mark.parametrize("fn", [solve, lambda eps, g0: transmission_grid([eps], g0)],
                             ids=["solve", "transmission_grid"])
    def test_coupling_above_the_bound_raises(self, fn):
        above = math.nextafter(self.BOUND, math.inf)
        with pytest.raises(DomainError, match=(
                rf"^g0 = {above} is above 3\.5, the largest coupling at which "
                r"the sideband truncation is verified$")):
            fn(0.5, above)
        fn(0.5, self.BOUND)


@pytest.mark.parametrize("fn, args, named", [
    (transmission_grid, ([0.5, 1e16], 0.7), "1e+16"),
    (solve, (1e300, 0.7), "1e+300"),
    (solve, (2.0 ** 53, 0.7), "9007199254740992.0"),
], ids=["grid-1e16", "solve-1e300", "solve-2**53"])
def test_energy_without_a_truncation_named(fn, args, named):
    # once an uncaught 284 PiB allocation at 1e16, and at 1e300 an invalid
    # integer cast that solved at N = 22
    with pytest.raises(DomainError, match="^" + re.escape(
            f"eps_i must be below 2**53 for the sideband truncation, got {named}") + "$"):
        fn(*args)


class TestObservables:
    def test_total_transmission_free_limit(self):
        assert total_transmission_exact(0.7, 0.0) == pytest.approx(1.0)

    def test_total_transmission_bounded(self):
        for eps in (0.4, 1.1, 2.3):
            T = total_transmission_exact(eps, 0.7)
            assert 0.0 <= T <= 1.0 + 1e-10

    @pytest.mark.parametrize("g0", [0.05, 0.2, 0.656, 0.9, 1.0])
    def test_zero_location_matches_dense_solve(self, g0):
        # the dip hugs the first sideband threshold from below.  At 0.656
        # and 0.9 the bisection meets an energy where the pivot P_{-1}
        # rounds to exactly 0 and solve is singular; the locator must
        # return the other endpoint
        eps_star = zero_locate_exact(g0)
        assert 1.0 - 0.25 * g0 * g0 <= eps_star < 1.0
        assert eps_star == pytest.approx(_dense_zero(g0), abs=1e-12)
        assert abs(solve(eps_star, g0).t[0]) ** 2 < 1e-12

    def test_zero_below_float_resolution_names_both_widths(self):
        # the dip is about g0**4/32 = 1.95e-15 wide, some 18 float spacings
        # below 1, so no float takes |t_0|**2 under the 1e-6 gate
        with pytest.raises(ZeroNotFoundError, match="^" + re.escape(
                "dip at eps_i = 0.999999999999999 too shallow (|t_0|**2 = 1.328e-04) "
                "at float resolution: adjacent floats hi - lo = 1.110e-16 apart, "
                "dip g0**4/32 = 1.953e-15 wide") + "$") as info:
            zero_locate_exact(5e-4)
        trace = info.value.scan_trace
        assert trace["bracket_width"] == 2.0 ** -53
        assert trace["dip_width"] == 5e-4 ** 4 / 32.0

    @pytest.mark.parametrize("g0, eps_star", [(1e-3, 0.9999999999999843),
                                              (2e-3, 0.99999999999975)])
    def test_zero_resolved_at_weak_driving(self, g0, eps_star):
        assert zero_locate_exact(g0) == eps_star

    def test_window_without_sign_change_is_named(self):
        # at g0 = 1e-9, 1 - 1.5 g0**2 rounds to 1: the window collapses to [1.0, 1]
        with pytest.raises(ZeroNotFoundError, match="^" + re.escape(
                "Im P_-1 does not change sign on [1.0, 1] for g0 = 1e-09") + "$") as info:
            zero_locate_exact(1e-9)
        assert info.value.scan_trace["window"] == (1.0, 1.0)

    def test_zero_rejects_bad_coupling(self):
        with pytest.raises(DomainError):
            zero_locate_exact(0.0)
        with pytest.raises(DomainError):
            zero_locate_exact(1.5)


class TestReciprocity:
    """Time reversal of the exact solver, in fluxes, T_{0->n}(eps) = T_{0->-n}(eps + n),
    and in signed amplitudes, T~_{nm} = (-1)**(n-m) T~_{mn}."""

    @pytest.mark.parametrize("g0", [0.1, 0.3, 0.7])
    def test_sideband_fluxes_are_reciprocal(self, g0):
        eps = np.array([0.3, 0.7, 1.3, 2.2])
        grid = transmission_grid(np.concatenate([eps, eps + 1.0, eps + 2.0]), g0, n_max=2)
        for n in (1, 2):
            forward = grid.T_n[2 + n, :4]
            backward = grid.T_n[2 - n, 4 * n:4 * n + 4]
            assert np.all(forward > 0.0)
            assert np.all(np.abs(forward - backward) <= 1e-13 * forward)

    @pytest.mark.parametrize("g0", [0.01, 0.1, 0.3, 0.7, 1.5, 3.5])
    @pytest.mark.parametrize("eps", [0.2, 0.4, 0.9, 1.3, 2.2, 3.7, 5.3])
    def test_signed_amplitudes_are_reciprocal(self, g0, eps):
        # T~_{nm} = sqrt(k_n / k_m) t_{n-m}(eps + m) over the open |n|, |m| <= 3:
        # the phase and the sign, which the fluxes cannot see.  Each |T~| <= 1;
        # the worst defect is 4e-14 at g0 3.5 and below 3e-16 up to g0 1.5
        open_ = [n for n in range(-3, 4) if _sideband_ksq(eps, n) > 0]
        t = {m: solve(eps + m, g0).t for m in open_}

        def t_tilde(n, m):
            return math.sqrt(_sideband_k(eps, n) / _sideband_k(eps, m)) * t[m][n - m]

        for n in open_:
            for m in open_:
                assert abs(t_tilde(n, m) - (-1) ** (n - m) * t_tilde(m, n)) <= 1e-12
