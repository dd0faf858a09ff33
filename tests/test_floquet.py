"""Unit tests for the exact truncated-sideband solver."""

import math
import warnings

import numpy as np
import pytest

from drivendelta import floquet
from drivendelta.amplitudes import a_coefficient
from drivendelta.errors import DomainError, ToleranceError
from drivendelta.floquet import (solve, total_transmission_exact,
                                 transmission_grid, zero_locate_exact)


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
        _, t = floquet._sweep(np.array([0.9]), 0.7, N)
        for n in base.open_channels():
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
            k0 = math.sqrt(2.0 * e)
            flux = {n: sol.k_channel(n).real / k0 * abs(sol.t[n]) ** 2
                    for n in sol.open_channels()}
            assert grid.N[i] == sol.N
            assert grid.t0_sq[i] == pytest.approx(abs(sol.t[0]) ** 2, rel=1e-14, abs=1e-15)
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

    @pytest.mark.parametrize("g0", [0.1, 0.7, 1.0])
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
            flux = floquet._open_flux(k, t)
            t0 = t[2 * N]
            for name, doubled in (("t0_sq", np.abs(t0) ** 2),
                                  ("r0_sq", np.abs(t0 - 1.0) ** 2),
                                  ("T_total", flux.sum(axis=0))):
                assert np.max(np.abs(getattr(grid, name)[idx] - doubled)) <= 1e-13
            sidebands = flux[2 * N - n_max:2 * N + n_max + 1]
            assert np.max(np.abs(grid.T_n[:, idx] - sidebands)) <= 1e-13

    def test_chunks_cover_every_energy(self):
        eps = np.linspace(0.05, 2.95, 6000)   # more energies than one chunk holds
        grid = transmission_grid(eps, 0.3)
        for i in range(0, eps.size, 397):
            assert grid.t0_sq[i] == pytest.approx(abs(solve(float(eps[i]), 0.3).t[0]) ** 2,
                                                  rel=1e-14, abs=1e-15)

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


class TestObservables:
    def test_total_transmission_free_limit(self):
        assert total_transmission_exact(0.7, 0.0) == pytest.approx(1.0)

    def test_total_transmission_bounded(self):
        for eps in (0.4, 1.1, 2.3):
            T = total_transmission_exact(eps, 0.7)
            assert 0.0 <= T <= 1.0 + 1e-10

    def test_zero_location_weak_driving(self):
        # the dip hugs the first sideband threshold from below
        eps_star = zero_locate_exact(0.2)
        assert 1.0 - 0.25 * 0.04 <= eps_star < 1.0
        assert abs(solve(eps_star, 0.2).t[0]) ** 2 < 1e-10

    def test_zero_rejects_bad_coupling(self):
        with pytest.raises(DomainError):
            zero_locate_exact(0.0)
        with pytest.raises(DomainError):
            zero_locate_exact(1.5)
