"""Unit tests for the dimensionless model layer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivendelta.errors import DomainError, NoBoundStateError
from drivendelta.model import (HBAR, basis_wavefunction,
                               berry_phase, bound_energy, mean_bound_energy,
                               q_factor, sideband_channel, theta,
                               to_dimensionless)


class TestScales:
    def test_dimensionless_conversion(self):
        params = to_dimensionless(mass=9.1e-31, omega=1e12, g_phys=1e-30)
        assert params.length_scale == pytest.approx(
            math.sqrt(HBAR / (9.1e-31 * 1e12)))
        assert params.energy_scale == pytest.approx(HBAR * 1e12)
        assert params.g0 == pytest.approx(
            1e-30 * math.sqrt(9.1e-31 * 1e12 / HBAR) / (HBAR * 1e12))

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(DomainError):
            to_dimensionless(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            to_dimensionless(1.0, 0.0, 1.0)


class TestChannels:
    def test_open_channel_momentum(self):
        ch = sideband_channel(2.0, 1)
        assert ch.is_open
        assert ch.k == pytest.approx(math.sqrt(6.0))

    def test_closed_channel_decay(self):
        ch = sideband_channel(1.0, -2)
        assert not ch.is_open
        assert ch.kappa == pytest.approx(math.sqrt(3.0))

    def test_threshold_reported_closed(self):
        ch = sideband_channel(2.0, -2)
        assert not ch.is_open
        assert ch.kappa == pytest.approx(0.0)


class TestBoundState:
    def test_instantaneous_energy(self):
        assert bound_energy(0.4) == pytest.approx(-0.08)

    def test_absent_for_nonpositive_coupling(self):
        with pytest.raises(NoBoundStateError):
            bound_energy(0.0)
        with pytest.raises(NoBoundStateError):
            bound_energy(-0.3)

    def test_mean_energy(self):
        assert mean_bound_energy(0.4) == pytest.approx(-0.02)

    def test_bound_state_normalized(self):
        xi = np.linspace(-40.0, 40.0, 200001)
        psi = basis_wavefunction(xi, "bound", g=0.5)
        assert np.trapezoid(psi**2, xi) == pytest.approx(1.0, abs=1e-6)


class TestQFactor:
    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.05, 10.0), st.integers(1, 12), st.floats(0.01, 1.0))
    def test_bounded_and_decreasing(self, k, n, g0):
        q_n = q_factor(k, n, g0)
        assert 0.0 < q_n <= 1.0
        assert q_n <= q_factor(k, n - 1, g0) + 1e-15

    def test_geometric_in_n(self):
        base = q_factor(1.3, 1, 0.4)
        assert q_factor(1.3, 5, 0.4) == pytest.approx(base**5, rel=1e-12)

    def test_static_limit(self):
        assert q_factor(1.0, 0, 0.0) == 1.0
        assert q_factor(1.0, 3, 0.0) == 0.0

    def test_vectorized(self):
        k = np.array([0.5, 1.0, 2.0])
        out = q_factor(k, 2, 0.3)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)  # decreasing in k

    def test_rejects_negative_order(self):
        with pytest.raises(DomainError):
            q_factor(1.0, -1, 0.3)


class TestPhases:
    def test_theta_is_arctan(self):
        assert theta(2.0, 1.0) == pytest.approx(math.atan(0.5))

    def test_berry_phase_integrates_to_zero(self):
        tau = np.linspace(0.0, 2.0 * math.pi, 20001)
        rate = np.array([berry_phase(1.3, t, 0.7) for t in tau])
        assert np.trapezoid(rate, tau) == pytest.approx(0.0, abs=1e-9)
