"""Unit tests for the loop amplitude and the pole renormalization stack."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate

import drivendelta.renorm as renorm
from drivendelta.amplitudes import a_coefficient, b_coefficient
from drivendelta.errors import DomainError, RegimeError, ToleranceError
from drivendelta.model import q_factor
from drivendelta.renorm import (alpha_shift, b_bare, b_renorm, beta_width,
                                gamma_elastic_closed, gamma_loop,
                                renorm_factors)
from test_numerics import _sequential_halfline


class TestGammaLoop:
    def test_static_limit_vanishes(self):
        loop = gamma_loop(1.0, 1.0, 0, 0.0)
        assert loop.value == 0.0

    def test_elastic_absorptive_part_negative(self):
        loop = gamma_loop(1.0, 1.0, 0, 0.3)
        assert loop.im < 0.0

    def test_small_coupling_suppression(self):
        small = gamma_loop(1.0, 1.0, 0, 0.05)
        large = gamma_loop(1.0, 1.0, 0, 0.2)
        assert abs(small.im) < abs(large.im)
        # absorptive part carries the g0**2 scaling of two transitions
        ratio = large.im / small.im
        assert ratio == pytest.approx(16.0, rel=0.1)

    def test_rejects_nonpositive_momenta(self):
        with pytest.raises(DomainError):
            gamma_loop(0.0, 1.0, 0, 0.3)

    def test_diagnostics_record_channels(self):
        loop = gamma_loop(1.0, 1.0, 0, 0.3)
        assert 0 not in loop.diagnostics["channels"]
        assert "error_estimate" in loop.diagnostics
        assert loop.diagnostics["evaluations"] > 0

    @pytest.mark.parametrize("g0", [0.1, 0.7])
    def test_tight_tolerance_next_to_threshold(self, g0):
        # 1e-6 above the one-quantum threshold, at tol = 1e-12, the fold
        # about k_{-1} = 1.4e-3 refines until its nodes are within ~1e-12 of
        # the pole; the channel denominators keep their digits there, so no
        # node pair rounds onto the pole
        k = math.sqrt(2.0 * (1.0 + 1e-6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loop = gamma_loop.__wrapped__(k, k, 0, g0, tol=1e-12)
        closed = gamma_elastic_closed(k, g0, include_closed=True)
        assert loop.re == pytest.approx(closed.re, rel=1e-9)

    def test_evaluations_count_batched_integrand_nodes(self, monkeypatch):
        calls = []
        make = renorm._loop_integrand

        def counting(*args):
            integrand = make(*args)

            def wrapped(k):
                calls.append(np.size(k))
                return integrand(k)
            return wrapped

        monkeypatch.setattr(renorm, "_loop_integrand", counting)
        loop = gamma_loop.__wrapped__(1.3, 1.3, 0, 0.7)
        assert loop.diagnostics["evaluations"] == sum(calls)
        # one call per refinement round of all the half-line's segments
        # together, mirror nodes of the folds included
        assert len(calls) <= 8


# the QUADPACK oracle points, and one 5e-4 above the one-quantum threshold
# (a pole at k_{-1} = 0.032)
LOOP_POINTS = [(0.7, 0.7, 0), (0.1, 0.3, 0), (0.7, 2.5, 0), (0.7, 1.3, 1),
               (0.7, 1.0005, 0)]


class TestLockstepLoop:
    """The batched half-line kernel against its parts run one at a time."""

    @pytest.mark.parametrize("g0,eps_i,n", LOOP_POINTS)
    def test_bit_identical_to_sequential_parts(self, g0, eps_i, n):
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        loop = gamma_loop.__wrapped__(k_f, k_i, n, g0)
        diag = loop.diagnostics
        ls = diag["channels"]
        parts = _sequential_halfline(renorm._loop_integrand(k_f, k_i, n, ls, g0),
                                     diag["poles"], diag["split"], 1e-8)
        re = 0.0
        for part in parts:
            re += part.value
        assert loop.re == re
        assert diag["error_estimate"] == sum(p.error_estimate for p in parts)
        assert diag["evaluations"] == sum(p.evaluations for p in parts)
        l_open = np.array([l for l in ls if k_i * k_i + 2 * l > 0])
        k_open = np.sqrt(k_i * k_i + 2 * l_open)
        table = renorm._loop_products(k_f, k_i, n, l_open, k_open, g0)
        assert loop.im == -math.pi * float(np.sum(np.diagonal(table) / k_open))


def _alpha_per_channel(n0, eps_i, g0, tol):
    """alpha_shift as one half-line integral per channel, summed."""
    k_i = math.sqrt(2.0 * eps_i)
    M = renorm._decay_count(float(q_factor(max(k_i, 1.0), 1, g0)))
    total = 0.0
    for m in range(-M, M + 1):
        if m % 2 == 0:
            continue
        l = m - n0

        def f(k, l=l, m=m):
            mod2 = (g0 / math.pi) * (renorm._q_base(k, g0) ** abs(m)) ** 2 \
                / (k * k + 0.25 * g0 * g0)
            return mod2 / (0.5 * k * k - (eps_i + l))

        poles = [math.sqrt(2.0 * (eps_i + l))] if eps_i + l > 0 else []
        split = max(4.0 * k_i, 4.0 * g0, 8.0, 1.5 * max(poles, default=0.0))
        for part in _sequential_halfline(f, poles, split, tol):
            total += part.value
    return 2.0 * total


class TestAlphaShift:
    @pytest.mark.parametrize("n0", [-1, 1, 3])
    @pytest.mark.parametrize("g0", [0.1, 0.55, 0.7])
    @pytest.mark.parametrize("eps_i", [0.3, 0.99, 1.05, 2.9])
    def test_channel_sum_matches_per_channel_integrals(self, n0, g0, eps_i):
        # the reference runs at a tight tolerance: at the default one, the
        # per-channel integrals are off by up to 2e-12 absolute
        reference = _alpha_per_channel(n0, eps_i, g0, 1e-12)
        assert alpha_shift.__wrapped__(n0, eps_i, g0) == pytest.approx(
            reference, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n0", [-1, 1, 3])
    @pytest.mark.parametrize("g0", [0.1, 0.55, 0.7])
    @pytest.mark.parametrize("eps_i", [2.0, 4.0])
    def test_channel_at_threshold_is_named(self, n0, g0, eps_i):
        # k_l = 0 for the channel m = n0 - eps_i: raised before integrating
        m = n0 - int(eps_i)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RegimeError) as exc:
                alpha_shift.__wrapped__(n0, eps_i, g0)
        msg = str(exc.value)
        assert f"channel m = {m} " in msg and f"n0 = {n0}" in msg
        assert f"eps_i = {eps_i!r}" in msg
        assert exc.value.__cause__ is None

    @pytest.mark.parametrize("n0, g0", [(-1, 0.1), (1, 0.55), (3, 0.7)])
    @pytest.mark.parametrize("offset", [-1e-6, 1e-6])
    def test_failure_next_to_threshold_is_named(self, n0, g0, offset):
        # 1e-6 from its threshold, the channel m = n0 - 2 keeps the digits of
        # its denominator k**2/2 - (eps_i + l), and the shift (hundreds to
        # tens of thousands) matches the per-channel integrals.  1e-12 from
        # it the quadrature runs out of budget (about 1 s), and the failure
        # is re-raised naming that channel.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps_i = 2.0 + offset
            value = alpha_shift.__wrapped__(n0, eps_i, g0)
            assert value == pytest.approx(_alpha_per_channel(n0, eps_i, g0, 1e-8),
                                          rel=1e-10, abs=0.0)
            eps_i = 2.0 + 1e-6 * offset
            with pytest.raises(RegimeError) as exc:
                alpha_shift.__wrapped__(n0, eps_i, g0)
        assert f"channel m = {n0 - 2} (n0 = {n0}) at eps_i = {eps_i!r}" in str(exc.value)
        assert isinstance(exc.value.__cause__, ToleranceError)

    def test_near_threshold_values_unchanged(self):
        # still computed, not refused, outside the failing sliver
        assert alpha_shift.__wrapped__(1, 1.9999, 0.7) > 700.0
        assert alpha_shift.__wrapped__(1, 2.001, 0.7) < -60.0


class TestLoopKernel:
    """The (channels x nodes) broadcast against the public coefficient."""

    EPS_I = 1.3
    # off the poles k_i = 1.612, k_f = 0.775 (n = -1), 2.145 (n = 1), 2.569 (n = 2)
    NODES = np.array([0.37, 0.93, 1.41, 1.77, 2.9, 4.05])
    # both signs and both parities of l, and of n - l
    CHANNELS = list(range(-7, 8))

    @pytest.mark.parametrize("g0", [0.1, 0.7])
    @pytest.mark.parametrize("n", [0, 1, -1, 2])
    def test_products_match_coefficient_products(self, n, g0):
        k_i = math.sqrt(2.0 * self.EPS_I)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        ls = [l for l in self.CHANNELS if l not in (0, n)]
        table = renorm._loop_products(k_f, k_i, n, ls, self.NODES, g0)
        assert table.shape == (len(ls), len(self.NODES))
        for row, l in zip(table, ls):
            for value, k in zip(row, self.NODES):
                expected = (a_coefficient(k_f, k, n - l, g0)
                            * a_coefficient(k, k_i, l, g0)).real
                assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("g0", [0.1, 0.7])
    @pytest.mark.parametrize("n", [0, 1, -1, 2])
    def test_integrand_is_propagator_weighted_channel_sum(self, n, g0):
        k_i = math.sqrt(2.0 * self.EPS_I)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        ls = [l for l in self.CHANNELS if l not in (0, n)]
        values = renorm._loop_integrand(k_f, k_i, n, ls, g0)(self.NODES)
        for value, k in zip(values, self.NODES):
            terms = [(a_coefficient(k_f, k, n - l, g0) * a_coefficient(k, k_i, l, g0)).real
                     / (self.EPS_I - 0.5 * k * k + l) for l in ls]
            assert abs(value - math.fsum(terms)) <= 1e-13 * sum(map(abs, terms))


class TestReducedKernels:
    """The paired and factored integrands against per-channel tables.

    The loop reference is the channel table of ``_loop_products`` over the
    propagators; the shift reference sums (q(k)**|m|)**2 channel by
    channel.  At n = 0 the channels +l and -l cancel to O(k - k_i) next to
    k_i, so the reference's own rounding is relative to its summed
    magnitudes, and so is the 1e-12 tolerance.
    """

    # open channels down to l = -2: k_{-1} = 1.612, k_{-2} = 0.775
    EPS_I = 2.3
    OFFSETS = (-1e-6, 1e-6)

    @pytest.mark.parametrize("g0", [0.1, 0.55, 0.7])
    @pytest.mark.parametrize("n", [0, 1, -1, 2, -2])
    def test_loop_integrand_matches_channel_table(self, n, g0):
        k_i = math.sqrt(2.0 * self.EPS_I)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        eps_i = 0.5 * k_i * k_i
        L = renorm._loop_l_max(k_i, n, g0)
        ls = [l for l in range(-L, L + 1) if l not in (0, n)]
        poles = [k_i, k_f] + [math.sqrt(k_i * k_i + 2 * l) for l in (-2, -1, 3)]
        nodes = np.array([1e-6, 1e-4, 1e-2]
                         + [p + d for p in poles for d in self.OFFSETS])
        terms = renorm._loop_products(k_f, k_i, n, ls, nodes, g0) \
            / ((eps_i + np.array(ls)[:, None]) - 0.5 * nodes * nodes)
        values = renorm._loop_integrand(k_f, k_i, n, ls, g0)(nodes)
        assert np.all(np.abs(values - terms.sum(axis=0))
                      <= 1e-12 * np.abs(terms).sum(axis=0))

    def test_elastic_loop_needs_paired_channels(self):
        with pytest.raises(DomainError):
            renorm._loop_integrand(1.0, 1.0, 0, [-1, 1, 2], 0.7)

    @pytest.mark.parametrize("n0", [-1, 1, 3])
    @pytest.mark.parametrize("g0", [0.1, 0.55, 0.7])
    @pytest.mark.parametrize("eps_i", [0.3, 1.05, 2.9])
    def test_shift_integrand_matches_channel_sum(self, n0, g0, eps_i):
        M = 21
        ms = np.array([m for m in range(-M, M + 1) if m % 2 != 0])
        ls = ms - n0
        kl = [math.sqrt(2.0 * (eps_i + l)) for l in ls if eps_i + l > 0]
        nodes = np.array([1e-6, 1e-3, 5.0]
                         + [p + d for p in kl for d in self.OFFSETS])
        mod2 = (g0 / math.pi) \
            * (renorm._q_base(nodes, g0) ** np.abs(ms)[:, None]) ** 2 \
            / (nodes * nodes + 0.25 * g0 * g0)
        terms = mod2 / (0.5 * nodes * nodes - (eps_i + ls[:, None]))
        values = renorm._shift_integrand(n0, eps_i, g0, np.arange(1, M + 1, 2))(nodes)
        assert np.all(np.abs(values - terms.sum(axis=0))
                      <= 1e-12 * np.abs(terms).sum(axis=0))

    @pytest.mark.parametrize("eps_i", [0.3, 1.05, 2.9, 2.0 + 1e-6, 2.0 - 1e-6])
    def test_channel_denominators_match_mpmath(self, eps_i):
        # the references above form k**2/2 - (eps_i + l) (or its negative),
        # as the integrands do: at every node and channel its error stays
        # within a few roundings of its operands k**2/2 and eps_i + l, also
        # where they cancel next to a threshold; (k**2/2 - eps_i) - l does not
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.prec = 200
        ls = np.arange(-21, 22, 2) - 1
        kl = [math.sqrt(2.0 * (eps_i + l)) for l in ls if eps_i + l > 0]
        nodes = np.array([1e-6, 1e-3, 5.0]
                         + [p + d for p in kl for d in (*self.OFFSETS, -1e-9, 1e-9)])
        half = 0.5 * nodes * nodes
        accurate = half - (eps_i + ls[:, None])
        cancelling = half - eps_i - ls[:, None]
        exact = np.array([[float(mpmath.mpf(k) ** 2 / 2 - (mpmath.mpf(eps_i) + int(l)))
                           for k in nodes] for l in ls])
        bound = 2.0 ** -51 * (half + np.abs(eps_i + ls[:, None]))
        assert np.all(np.abs(accurate - exact) <= bound)
        if abs(eps_i - 2.0) < 1e-3:
            assert np.any(np.abs(cancelling - exact) > 1e3 * bound)


def _cauchy_loop_re(k_f: float, k_i: float, n: int, ls, g0: float) -> float:
    """Re Gamma by QUADPACK's Cauchy-weight rule, one pole per piece.

    The integrand is the channel sum over ``ls`` built from the public
    ``a_coefficient``; [0, inf) is cut at the midpoints between the poles
    k_i, k_f and the open channel momenta, and each piece is integrated
    with weight 1 / (k - pole).
    """
    eps_i = 0.5 * k_i * k_i

    def f(x):
        if x <= 0.0:
            return 0.0      # every coefficient vanishes linearly in x
        return math.fsum((a_coefficient(k_f, x, n - l, g0)
                          * a_coefficient(x, k_i, l, g0)).real
                         / (eps_i - 0.5 * x * x + l) for l in ls)

    poles = sorted({k_i, k_f} | {math.sqrt(k_i * k_i + 2 * l) for l in ls
                                 if k_i * k_i + 2 * l > 0})
    cuts = [0.0] + [0.5 * (a + b) for a, b in zip(poles, poles[1:])] \
        + [1.5 * poles[-1] + 1.0]
    total = 0.0
    for (a, b), p in zip(zip(cuts, cuts[1:]), poles):
        def regular(x, p=p):
            if x == p:      # the rule never needs the pole itself
                return 0.5 * (regular(p + 1e-9) + regular(p - 1e-9))
            return f(x) * (x - p)
        total += integrate.quad(regular, a, b, weight="cauchy", wvar=p,
                                epsabs=1e-13, epsrel=1e-10, limit=200)[0]
    return total + integrate.quad(f, cuts[-1], np.inf, epsabs=1e-13,
                                  epsrel=1e-10, limit=200)[0]


@pytest.mark.slow
class TestLoopCauchyOracle:
    """Independent principal value: QUADPACK QAWC (Piessens et al. 1983)."""

    @pytest.mark.parametrize("g0,eps_i,n", [(0.7, 0.7, 0), (0.1, 0.3, 0),
                                            (0.7, 2.5, 0), (0.7, 1.3, 1),
                                            (0.55, 0.9, 1)])
    def test_real_part_matches_cauchy_quadrature(self, g0, eps_i, n):
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        loop = gamma_loop(k_f, k_i, n, g0)
        oracle = _cauchy_loop_re(k_f, k_i, n, loop.diagnostics["channels"], g0)
        assert abs(loop.re - oracle) <= 1e-9


class TestGammaElasticClosed:
    GRID = [(g0, eps) for g0 in (0.1, 0.7) for eps in (0.3, 0.7, 1.3, 2.5)]

    @pytest.mark.parametrize("g0,eps_i", GRID)
    def test_matches_quadrature_loop(self, g0, eps_i, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the closed form must not call quadrature")

        k = math.sqrt(2.0 * eps_i)
        with monkeypatch.context() as patch:
            patch.setattr(renorm, "pv_halfline", forbidden)
            with_closed = gamma_elastic_closed(k, g0, include_closed=True)
            open_only = gamma_elastic_closed(k, g0, include_closed=False)
        # closed channels carry no flux, so the absorptive part ignores them
        assert with_closed.im == open_only.im
        # the quadrature tolerance is absolute; tighten it for the small
        # loops at g0 = 0.1 (|Re Gamma| ~ 5e-7 at eps_i = 2.5)
        direct = gamma_loop(k, k, 0, g0, tol=1e-10)
        assert with_closed.re == pytest.approx(direct.re, rel=1e-8)
        assert with_closed.im == pytest.approx(direct.im, rel=1e-10)


class TestBoundRoute:
    def test_bare_regulator_insensitive_off_resonance(self):
        k = math.sqrt(2.0 * 0.4)
        v1 = b_bare(k, k, 0, 0.4, 0.3, eta=1e-6)
        v2 = b_bare(k, k, 0, 0.4, 0.3, eta=1e-9)
        assert abs(v1 - v2) < 1e-6

    def test_bare_requires_regulator(self):
        with pytest.raises(DomainError):
            b_bare(1.0, 1.0, 0, 0.5, 0.3, eta=0.0)

    def test_odd_sideband_amplitude_vanishes(self):
        k_i = math.sqrt(2.0 * 0.8)
        k_f = math.sqrt(k_i * k_i + 2.0)
        assert b_bare(k_f, k_i, 1, 0.8, 0.3, eta=1e-6) == 0.0
        assert b_renorm(k_f, k_i, 1, 0.8, 0.3) == 0.0

    def test_renormalized_structure(self):
        # the dominant layer carries Z and the corrected denominator; all
        # other layers keep their bare real denominators
        eps_i, g0 = 0.75, 0.1
        k = math.sqrt(2.0 * eps_i)
        eps_t = eps_i + g0 * g0 / 8.0
        fac = renorm_factors(0, 1, k, k, eps_i, g0)
        num = b_coefficient(k, 1, g0) * b_coefficient(k, 1, g0).conjugate()
        others = sum(
            b_coefficient(k, n0, g0) * b_coefficient(k, n0, g0).conjugate()
            / (eps_t - n0)
            for n0 in range(-41, 42, 2) if n0 != 1)
        expected = others + fac.Z * num / (fac.eps_R - 1.0 + 1j * fac.eta_R)
        assert b_renorm(k, k, 0, eps_i, g0) == pytest.approx(expected, rel=1e-10)

    def test_renormalized_finite_on_bare_pole(self):
        eps_i = 1.0 - 0.1 * 0.1 / 8.0  # effective energy exactly on n0 = 1
        k = math.sqrt(2.0 * eps_i)
        val = b_renorm(k, k, 0, eps_i, 0.1)
        assert abs(val) < 1e6
        assert val.imag != 0.0

    def test_static_limit_vanishes(self):
        assert b_renorm(1.0, 1.0, 0, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 2])
    def test_series_sums_every_odd_n0(self, n):
        # every even n0 term vanishes, so a layer-by-layer cutoff on a
        # zero layer once stopped both series at |n0| = 3
        g0 = 0.7

        def full_sum(k_f, k_i, eps_i, denom):
            eps_t = eps_i + g0 * g0 / 8.0
            return sum(b_coefficient(k_f, n + n0, g0) * b_coefficient(k_i, n0, g0).conjugate()
                       / denom(eps_t, n0) for n0 in range(-63, 64, 2))

        eps_i = 0.9348
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        fac = renorm_factors(n, 1, k_f, k_i, eps_i, g0)

        def renormalized(eps_t, n0):
            if n0 == 1:
                return (fac.eps_R - 1.0 + 1j * fac.eta_R) / fac.Z
            return eps_t - n0

        assert b_renorm(k_f, k_i, n, eps_i, g0) == pytest.approx(
            full_sum(k_f, k_i, eps_i, renormalized), rel=1e-13)
        eps_i = 0.93
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        assert b_bare(k_f, k_i, n, eps_i, g0, eta=1e-8) == pytest.approx(
            full_sum(k_f, k_i, eps_i, lambda eps_t, n0: eps_t - n0 + 1e-8j), rel=1e-13)


class TestPoleCorrections:
    def test_width_seed_positive(self):
        assert beta_width(1, 0.9, 0.1) > 0.0
        assert beta_width(1, 0.9, 0.7) > 0.0

    def test_shift_negative_near_resonance(self):
        assert alpha_shift(1, 0.99, 0.1) < 0.0

    def test_factors_consistent(self):
        eps_i = 0.95
        k = math.sqrt(2.0 * eps_i)
        fac = renorm_factors(0, 1, k, k, eps_i, 0.1)
        assert fac.eps_R == pytest.approx(
            eps_i + 0.1 * 0.1 / 8.0 + fac.alpha, abs=1e-15)
        assert fac.eta_R == pytest.approx(
            fac.beta * (1.0 + fac.gamma_factor), abs=1e-15)
        assert fac.n0 == 1

    def test_residue_normalization_near_unity_small_coupling(self):
        eps_i = 0.95
        k = math.sqrt(2.0 * eps_i)
        fac = renorm_factors(0, 1, k, k, eps_i, 0.05)
        assert abs(fac.Z - 1.0) < 0.05

    def test_rejects_static_coupling(self):
        with pytest.raises(DomainError):
            alpha_shift(1, 0.9, 0.0)
        with pytest.raises(DomainError):
            beta_width(1, 0.9, -0.1)
