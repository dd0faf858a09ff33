"""Unit tests for the transition-amplitude coefficients."""

import math

import numpy as np
import pytest

from drivendelta.amplitudes import (a_coefficient, b_coefficient,
                                    fourier_oracle, phi_cb_mean, phi_cc)
from drivendelta.errors import DomainError
from drivendelta.model import _q_base, q_factor


def _a_by_quadrature(k_f, k_i, n, g0):
    """Fourier coefficient of the phase-dressed c/c transition element."""
    def integrand(tau):
        g = g0 * np.sin(tau)
        th_f = np.arctan2(g, k_f)
        th_i = np.arctan2(g, k_i)
        return np.exp(2j * th_f) * phi_cc(k_f, k_i, tau, g0) * np.exp(-2j * th_i)
    return fourier_oracle(integrand, n, tol=1e-13).value


def _b_by_quadrature(k, n, g0, reverse=False):
    """Fourier coefficient of the phase-dressed c <- b transition element,
    or with ``reverse`` of the b <- c element, its complex conjugate."""
    def integrand(tau):
        g = g0 * np.sin(tau)
        th = np.arctan2(g, k)
        element = np.exp(2j * th) * phi_cb_mean(k, tau, g0)
        return element.conjugate() if reverse else element
    return fourier_oracle(integrand, n, tol=1e-13).value


class TestContinuumContinuum:
    def test_diagonal_removed(self):
        assert a_coefficient(1.3, 1.3, 0, 0.5) == 0.0
        assert a_coefficient(2.0, 1.0, 0, 0.5) == 0.0

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            a_coefficient(1.0, 1.0, 2, 0.5)

    def test_instantaneous_diagonal_rejected(self):
        with pytest.raises(DomainError, match="^diagonal element excluded by renormalization$"):
            phi_cc(1.3, 1.3, 0.0, 0.5)

    def test_static_limit_vanishes(self):
        assert a_coefficient(math.sqrt(3.0), 1.0, 1, 0.0) == 0.0

    def test_matches_quadrature_spot(self):
        k_i, n, g0 = 1.0, 1, 0.7
        k_f = math.sqrt(k_i * k_i + 2 * n)
        closed = a_coefficient(k_f, k_i, n, g0)
        quad = _a_by_quadrature(k_f, k_i, n, g0)
        assert abs(closed - quad) <= 1e-9 * abs(quad)

    @pytest.mark.parametrize("n", [-3, -2, -1, 2, 3])
    def test_sign_and_parity_match_quadrature(self, n):
        # every sign and parity of n through the kernel's s(n) and (-1)**n
        k_i, g0 = 2.6, 0.7
        k_f = math.sqrt(k_i * k_i + 2 * n)
        quad = _a_by_quadrature(k_f, k_i, n, g0)
        assert abs(a_coefficient(k_f, k_i, n, g0) - quad) <= 1e-9 * abs(quad)

    def test_instantaneous_element_antisymmetric_factor(self):
        # swapping momenta conjugates the dressing phase and flips the pole
        val = phi_cc(2.0, 1.0, 0.3, 0.5)
        swapped = phi_cc(1.0, 2.0, 0.3, 0.5)
        assert abs(val) == pytest.approx(abs(swapped), rel=1e-12)


class TestContinuumBound:
    def test_even_coefficients_vanish(self):
        for n in (0, 2, -4):
            assert b_coefficient(1.0, n, 0.7) == 0.0

    def test_direction_reversal_is_conjugation(self):
        # the bound-route series takes B_{b k}(n) as conj(B_{k b}(-n))
        for n in (1, -3):
            quad = _b_by_quadrature(1.2, n, 0.4, reverse=True)
            assert abs(b_coefficient(1.2, -n, 0.4).conjugate() - quad) <= 1e-9 * abs(quad)

    def test_geometric_decay(self):
        q = float(q_factor(1.0, 1, 0.2))
        ratio = abs(b_coefficient(1.0, 3, 0.2)) / abs(b_coefficient(1.0, 1, 0.2))
        assert ratio == pytest.approx(q**2, rel=1e-12)

    @pytest.mark.parametrize("g0", [0.01, 0.1, 0.7, 3.5])
    def test_modulus_closed_form(self, g0):
        # |B_{k b}(m)|**2 = (g0 / pi) q(k)**(2 |m|) / (k**2 + g0**2 / 4),
        # the weight of the pole shift's integrand
        ks = np.geomspace(1e-6, 5.0, 13)
        ms = [m for m in range(-21, 22) if m % 2 != 0]
        closed = (g0 / math.pi) * (_q_base(ks, g0) ** np.abs(ms)[:, None]) ** 2 \
            / (ks * ks + 0.25 * g0 * g0)
        mod2 = np.abs([[b_coefficient(k, m, g0) for k in ks] for m in ms]) ** 2
        assert np.all(np.abs(mod2 - closed) <= 1e-14 * closed)

    def test_matches_quadrature_spot(self):
        closed = b_coefficient(1.0, 1, 0.7)
        quad = _b_by_quadrature(1.0, 1, 0.7)
        assert abs(closed - quad) <= 1e-9 * abs(quad)

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(DomainError):
            b_coefficient(0.0, 1, 0.5)
