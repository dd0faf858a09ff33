"""Unit tests for the dimensionless model layer."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivendelta.errors import DomainError
from drivendelta.model import _sideband_k, q_factor


class TestSidebandK:
    # integer energies put exact thresholds eps_i = -n among the examples
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(-60.0, 60.0), st.integers(-60, 60).map(float)),
           st.integers(-50, 50))
    @example(2.0, -2)
    @example(2.0, -1)
    def test_square_root_of_the_channel_rule(self, eps_i, n):
        if 2.0 * (eps_i + n) > 0:
            assert _sideband_k(eps_i, n) == math.sqrt(2.0 * (eps_i + n))
        else:
            with pytest.raises(DomainError, match="^" + re.escape(
                    f"sideband n = {n} is closed at eps_i = {eps_i}") + "$"):
                _sideband_k(eps_i, n)


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

    @pytest.mark.parametrize("g0", [0.7, 0.1, 0.01, 0.001])
    def test_exact_to_rounding(self, g0):
        # (sqrt(k**2 + g0**2) - k) / g0 loses up to 3.5e-7 of itself to
        # cancellation at g0 = 0.001; q = g0 / (sqrt(k**2 + g0**2) + k) does not
        ks = np.geomspace(0.05, 50.0, 400)
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = decimal.Decimal
            exact = [float(d(g0) / ((d(k) * d(k) + d(g0) * d(g0)).sqrt() + d(k)))
                     for k in ks.tolist()]
        assert np.max(np.abs(q_factor(ks, 1, g0) / exact - 1.0)) < 1e-15

    def test_tiny_coupling_stays_positive(self):
        # g0**2 underflows to 0, and q must still lie in (0, 1]
        assert q_factor(1.0, 1, 1e-200) == 5e-201

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

    @pytest.mark.parametrize("k", [1.0 + 0.5j, np.array([1.0, 2.0 + 0j])])
    def test_rejects_complex_momentum(self, k):
        # a complex k once skipped the positivity check
        with pytest.raises(DomainError, match="^k must be real, got dtype complex128$"):
            q_factor(k, 1, 0.3)
