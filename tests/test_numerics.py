"""Unit tests for the quadrature and minimization kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivendelta import quadrature
from drivendelta.errors import DomainError, ToleranceError
from drivendelta.quadrature import (adaptive_quad, bracket_min,
                                    fourier_coefficient, pv_halfline,
                                    pv_integral)


class TestAdaptiveQuad:
    def test_sine_arch(self):
        res = adaptive_quad(np.sin, 0.0, math.pi, tol=1e-12)
        assert res.value == pytest.approx(2.0, abs=1e-11)
        assert res.error_estimate <= 1e-12

    def test_polynomial_is_exact(self):
        res = adaptive_quad(lambda x: 3 * x**2 - 2 * x + 1, 0.0, 2.0)
        assert res.value == pytest.approx(6.0, abs=1e-12)

    def test_complex_integrand(self):
        res = adaptive_quad(lambda x: np.exp(1j * x), 0.0, math.pi, tol=1e-12)
        assert complex(res.value) == pytest.approx(2j, abs=1e-10)

    def test_narrow_peak_refined(self):
        res = adaptive_quad(lambda x: 1.0 / (1e-4 + x * x), -1.0, 1.0, tol=1e-9)
        exact = 2.0 / 1e-2 * math.atan(1.0 / 1e-2)
        assert res.value == pytest.approx(exact, rel=1e-8)

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            adaptive_quad(np.sin, 1.0, 1.0)
        with pytest.raises(DomainError):
            adaptive_quad(np.sin, 0.0, 1.0, tol=-1.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0])
    def test_rejects_tol_that_is_not_positive(self, tol):
        # nan passed a `tol <= 0` check, and `err > nan` never raised
        with pytest.raises(DomainError):
            adaptive_quad(np.sin, 0.0, 1.0, tol=tol)
        with pytest.raises(DomainError):
            pv_halfline(lambda x: 1.0 / (x - 1.0), [1.0], split=4.0, tol=tol)

    def test_budget_exhaustion_reports_value(self):
        with pytest.raises(ToleranceError, match=r"on the interval \[1e-30, 1.0\]") as exc:
            adaptive_quad(lambda x: np.abs(x) ** -0.5 * (x != 0), 1e-30, 1.0,
                          tol=1e-14, max_intervals=8)
        assert exc.value.value is not None

    @settings(max_examples=50, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_constant_integral(self, c, a):
        res = adaptive_quad(lambda x: c * np.ones_like(x), a, a + 1.5)
        assert res.value == pytest.approx(1.5 * c, abs=1e-10)

    def test_deterministic(self):
        f = lambda x: np.sin(3 * x) / (1 + x * x)
        r1 = adaptive_quad(f, 0.0, 4.0, tol=1e-11)
        r2 = adaptive_quad(f, 0.0, 4.0, tol=1e-11)
        assert r1.value == r2.value
        assert r1.error_estimate == r2.error_estimate


class TestPrincipalValue:
    def test_pure_pole_vanishes_symmetrically(self):
        res = pv_integral(lambda x: 1.0 / (x - 1.0), 1.0, 0.0, 2.0)
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_shifted_pole_log_weight(self):
        # PV int_0^3 dx / (x - 1) = ln 2
        res = pv_integral(lambda x: 1.0 / (x - 1.0), 1.0, 0.0, 3.0)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-10)

    def test_regular_plus_pole(self):
        # x/(x-1) = 1 + 1/(x-1): PV over [0, 2] gives 2
        res = pv_integral(lambda x: x / (x - 1.0), 1.0, 0.0, 2.0)
        assert res.value == pytest.approx(2.0, abs=1e-9)

    def test_pole_outside_rejected(self):
        with pytest.raises(DomainError):
            pv_integral(lambda x: 1.0 / (x - 5.0), 5.0, 0.0, 2.0)


def _pole_over_lorentzian(a):
    """PV int_0^inf dx / ((x - a)(1 + x**2)) = -(ln a + a pi / 2) / (1 + a**2)."""
    return -(math.log(a) + 0.5 * a * math.pi) / (1.0 + a * a)


def _sequential_halfline(f, poles, split, tol):
    """The half-line PV one part at a time: a pv_integral per pole piece
    (a plain adaptive_quad without poles), then the tan-mapped tail."""
    cuts = [0.0] + [0.5 * (p1 + p2) for p1, p2 in zip(poles, poles[1:])] + [split]
    parts = [pv_integral(f, p, a, b, tol=tol)
             for (a, b), p in zip(zip(cuts, cuts[1:]), poles)]
    if not poles:
        parts.append(adaptive_quad(f, 0.0, split, tol=tol))

    def tail(u):
        x = np.tan(u)
        return np.asarray(f(x)) * (1.0 + x * x)

    parts.append(adaptive_quad(tail, math.atan(split), 0.5 * math.pi, tol=tol))
    return parts


class TestHalfLine:
    def test_no_poles(self):
        res = pv_halfline(lambda x: 1.0 / (1.0 + x * x), [], split=2.0)
        assert res.value == pytest.approx(math.pi / 2.0, abs=1e-8)

    def test_two_poles_closed_form(self):
        f = lambda x: (1.0 / (x - 0.7) + 1.0 / (x - 2.5)) / (1.0 + x * x)
        res = pv_halfline(f, [2.5, 0.7], split=8.0, tol=1e-10)
        expected = _pole_over_lorentzian(0.7) + _pole_over_lorentzian(2.5)
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_lockstep_matches_sequential_parts(self):
        calls = []

        def f(x):
            calls.append(np.size(x))
            return np.cos(x) / ((x - 0.4) * (x - 1.1) * (x - 3.0) * (1.0 + x ** 4))

        res = pv_halfline(f, [0.4, 1.1, 3.0], split=6.0)
        rounds = len(calls)
        parts = _sequential_halfline(f, [0.4, 1.1, 3.0], 6.0, 1e-8)
        value = 0.0
        for part in parts:
            value += part.value
        assert res.value == value
        assert res.error_estimate == sum(p.error_estimate for p in parts)
        assert res.evaluations == sum(p.evaluations for p in parts)
        assert res.evaluations == sum(calls[:rounds])
        assert rounds < len(calls) - rounds

    def test_rejects_poles_outside(self):
        with pytest.raises(DomainError):
            pv_halfline(lambda x: 1.0 / (x - 5.0), [5.0], split=4.0)
        with pytest.raises(DomainError):
            pv_halfline(lambda x: 1.0 / (1.0 + x * x), [], split=0.0)

    def test_double_pole_names_its_fold(self):
        # the fold of 1 / (x - 1)**2 is 2 / t**2, which has no integral:
        # its panels shrink onto t = 0 until a node pair lands on the pole
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / (x - 1.0) ** 2

        with pytest.raises(ToleranceError, match=r"on the fold about pole 1\.0$"):
            pv_halfline(f, [1.0], split=4.0)

    def test_exhausted_segment_surfaces(self):
        # the tail of x / (1 + x) does not decay: only the tail segment runs
        # out of intervals, while the pole pieces converge beside it
        def f(x):
            return 1.0 / (x - 1.0) + x / (1.0 + x)

        with pytest.raises(ToleranceError,
                           match="interval budget exhausted.* on the tail$") as exc:
            pv_halfline(f, [1.0], split=4.0)
        assert exc.value.error_estimate > 1e-8


def _gk15_per_job(f, jobs):
    """The Gauss-Kronrod round one job at a time: each segment maps its own
    nodes, a fold job calling f once on its nodes and once on their
    mirrors, any other job once."""
    values = []
    for seg, panels in jobs:
        a, b = np.array(panels).T
        mids, halves = 0.5 * (a + b), 0.5 * (b - a)
        u = mids[:, None] + halves[:, None] * quadrature._NODES
        if seg.tail:
            x = np.tan(u)
            g = np.asarray(f(x.ravel())).reshape(u.shape) * (1.0 + x * x)
        elif seg.fold is not None:
            up = seg.fold + u
            down = seg.fold - (up - seg.fold)
            g = np.asarray(f(up.ravel())).reshape(u.shape) \
                + np.asarray(f(down.ravel())).reshape(u.shape)
        else:
            g = np.asarray(f(u.ravel())).reshape(u.shape)
        values.append(halves * np.sum(g * quadrature._W15, axis=1))
        values.append(halves * np.sum(g * quadrature._W7, axis=1))
    v15, v7 = np.concatenate(values[::2]), np.concatenate(values[1::2])
    return v15, np.abs(v15 - v7)


class TestRoundArrays:
    """One array pass per refinement round against the per-segment form."""

    @pytest.mark.parametrize("residue", [0.75, 0.75 - 0.5j])
    def test_gk15_bit_identical_to_per_job_round(self, residue):
        def f(x):
            return residue / (x - 1.0) + np.cos(x) / (1.0 + x * x)

        near = (2.0 ** -40, 2.0 ** -39)     # nodes a few thousand ulps off the pole
        fold = quadrature._Segment(0.0, 0.6, 1e-8, fold=1.0)
        plain = quadrature._Segment(1.6, 6.0, 1e-8)
        other = quadrature._Segment(0.0, 0.4, 1e-8, fold=2.3)
        tail = quadrature._Segment(math.atan(6.0), 0.5 * math.pi, 1e-8, tail=True)
        jobs = [(fold, [(0.0, 0.3), (0.3, 0.6 - 1e-3), near]),
                (plain, [(1.6, 3.0), (3.0, 6.0)]),
                (other, [(0.0, 0.4)]),
                (tail, [(math.atan(6.0), 0.5 * math.pi)])]
        values, errors = quadrature._gk15(f, jobs)
        ref_values, ref_errors = _gk15_per_job(f, jobs)
        assert np.array_equal(values, ref_values)
        assert np.array_equal(errors, ref_errors)
        assert np.all(np.isfinite(values))

    def test_fold_cancels_pole_exactly(self):
        # each node pair is exactly symmetric about the pole, so a pure
        # pole folds to zero, also on a panel a few hundred ulps wide next to it
        fold = quadrature._Segment(0.0, 0.5, 1e-8, fold=0.7)
        panels = [(0.0, 0.25), (0.25, 0.5), (2.0 ** -44, 2.0 ** -43)]
        values, errors = quadrature._gk15(lambda x: 3.0 / (x - 0.7), [(fold, panels)])
        assert np.all(values == 0.0) and np.all(errors == 0.0)

    def test_refine_checks_only_refined_segments(self, monkeypatch):
        checks = []
        unfinished = quadrature._Segment.unfinished

        def counting(seg):
            checks.append(seg)
            return unfinished(seg)

        monkeypatch.setattr(quadrature._Segment, "unfinished", counting)
        easy = quadrature._Segment(0.0, 1.0, 1e-8)
        hard = quadrature._Segment(0.0, 1.0, 1e-12)
        quadrature._refine(lambda x: 1.0 / (1e-3 + x * x), [easy, hard])
        # a segment takes part in one round, then one per split, and each
        # of those rounds leaves it one interval more
        assert checks.count(easy) == len(easy.intervals)
        assert checks.count(hard) == len(hard.intervals)
        # once finished, the easy segment is not checked again
        assert checks.count(easy) < checks.count(hard)


class TestFourierCoefficient:
    @pytest.mark.parametrize("m", [0, 1, -2, 5])
    def test_pure_harmonic(self, m):
        f = lambda tau: np.exp(-1j * m * tau)
        for n in (-3, 0, 1, m):
            res = fourier_coefficient(f, n)
            expected = 1.0 if n == m else 0.0
            assert abs(complex(res.value) - expected) < 1e-12

    def test_sine_coefficients(self):
        f = lambda tau: np.sin(tau)
        plus = fourier_coefficient(f, 1).value
        minus = fourier_coefficient(f, -1).value
        assert complex(plus) == pytest.approx(0.5j, abs=1e-12)
        assert complex(minus) == pytest.approx(-0.5j, abs=1e-12)


class TestBracketMin:
    def test_parabola(self):
        x, f, warnings = bracket_min(lambda x: (x - 0.3) ** 2, -1.0, 1.0)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert f == pytest.approx(0.0, abs=1e-12)
        assert warnings == []

    def test_boundary_minimum(self):
        x, f, _ = bracket_min(lambda x: x, 0.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-6)

    def test_multimodal_warns(self):
        f = lambda x: math.cos(8 * x)
        _, _, warnings = bracket_min(f, 0.0, 2.0)
        assert warnings

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            bracket_min(lambda x: x * x, 1.0, 0.0)
