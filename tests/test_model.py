"""Unit tests for the dimensionless model layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivendelta.errors import DomainError
from drivendelta.model import q_factor


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

    @pytest.mark.parametrize("k", [1.0 + 0.5j, np.array([1.0, 2.0 + 0j])])
    def test_rejects_complex_momentum(self, k):
        # a complex k once skipped the positivity check
        with pytest.raises(DomainError, match="^k must be real, got dtype complex128$"):
            q_factor(k, 1, 0.3)
