"""Unit tests for the loop amplitude and the pole renormalization stack."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

import drivendelta.quadrature as quadrature
import drivendelta.renorm as renorm
from drivendelta.amplitudes import a_coefficient, b_coefficient
from drivendelta.errors import DomainError, RegimeError, ToleranceError
from drivendelta.model import _sideband_ksq, q_factor
from drivendelta.renorm import (alpha_shift, b_renorm, beta_width,
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

    @pytest.mark.parametrize("g0", [-0.3, math.nan, math.inf])
    def test_rejects_bad_coupling(self, g0):
        # a negative g0 once gave a loop (Re -0.0010720787 against -0.0010720913
        # at +0.3), nan and inf "cannot convert float NaN to integer"
        with pytest.raises(DomainError,
                           match=f"^g0 must be non-negative and finite, got {g0}$"):
            gamma_loop(1.0, 1.0, 0, g0)
        assert gamma_loop(1.0, 1.0, 0, 0.0).value == 0.0

    def test_decay_count_at_q_one_is_the_cap(self):
        # q**m never falls, so the rule takes the whole cap
        assert (renorm._decay_count(1.0), renorm._decay_count(1.0, 63)) == (32, 63)

    def test_diagnostics_record_channels(self):
        loop = gamma_loop(1.0, 1.0, 0, 0.3)
        assert 0 not in loop.diagnostics["channels"]
        assert "error_estimate" in loop.diagnostics
        assert loop.diagnostics["evaluations"] > 0

    @pytest.mark.parametrize("g0", [0.1, 0.7])
    @pytest.mark.parametrize("eps_i", [1.0, 4.0, 5.0, 10.0])
    def test_exact_threshold_channel_is_closed(self, g0, eps_i):
        # 0.5 * sqrt(2 eps_i)**2 rounds above these eps_i, which once kept the
        # channel l = -eps_i open at k_l ~ 2e-8: Im Gamma was -9.928149576048949e-05
        # at (eps_i 1, g0 0.1), not -9.927969826864978e-05
        k = math.sqrt(2.0 * eps_i)
        assert 0.5 * k * k > eps_i
        ls = np.array(gamma_loop(k, k, 0, g0).diagnostics["channels"])
        l_open = ls[_sideband_ksq(eps_i, ls) > 0]
        k_l = np.sqrt(_sideband_ksq(eps_i, l_open))
        residues = renorm._loop_products(k, k, 0, l_open, k_l, g0) / k_l
        assert gamma_loop(k, k, 0, g0).im == pytest.approx(-math.pi * residues.sum(),
                                                           rel=1e-12)
        # the closed form reads the same channel table, so it closes the
        # channel too (it kept it open once, 1.8e-5 off at (eps_i 1, g0 0.1))
        assert gamma_elastic_closed(k, g0).im == pytest.approx(gamma_loop(k, k, 0, g0).im,
                                                               rel=1e-12)

    @pytest.mark.parametrize("g0,eps_i,l_max,capped", [
        (0.7, 40.3, 42, False),    # the open channels set L; the decay rule needs 13
        (0.7, 0.3, 32, True),      # the decay rule needs 44 orders
        (0.1, 0.3, 16, False)])    # the decay rule needs 16
    def test_truncation_capped_only_where_the_rule_wants_more(self, g0, eps_i, l_max, capped):
        k = math.sqrt(2.0 * eps_i)
        diag = gamma_loop.__wrapped__(k, k, 0, g0).diagnostics
        assert (diag["l_max"], diag["truncation_capped"]) == (l_max, capped)

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

    def test_unreachable_tolerance_is_named(self):
        # once a RuntimeWarning, "divide by zero", from a node on a channel
        # pole, after rounds that each walked every panel of the fold
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match=r"interval budget exhausted .* "
                                                     r"on the fold about pole 1\.0$"):
                gamma_loop(1.0, 1.0, 0, 0.3, 1e-20)

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
        # each refinement round of all the half-line's segments together,
        # mirror nodes of the folds included, goes out in node blocks of
        # _BLOCK, the last block taking a leftover node
        assert len(calls) <= 8
        assert all(2 <= size <= quadrature._BLOCK + 1 for size in calls)


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
        # the channels-by-momenta table's diagonal: the residue sum before
        # _loop_products paired each channel with its own momentum
        table = renorm._loop_products(k_f, k_i, n, l_open[:, None], k_open, g0)
        assert loop.im == -math.pi * float(np.sum(np.diagonal(table) / k_open))


    @pytest.mark.parametrize("g0,eps_i,n", LOOP_POINTS)
    def test_poles_are_transition_and_channel_momenta(self, g0, eps_i, n):
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        diag = gamma_loop.__wrapped__(k_f, k_i, n, g0).diagnostics
        # a channel within 1e-6 of its threshold gets no pole of its own
        expected = {k_i} | ({k_f} if n else set()) | {
            math.sqrt(k_i * k_i + 2 * l) for l in diag["channels"] if k_i * k_i + 2 * l > 1e-12}
        assert diag["poles"] == sorted(expected)
        assert all(type(p) is float for p in diag["poles"])


class TestNodeBlocks:
    """Rounds split into node blocks give the bits of one call per round."""

    # the loop points, and two at eps_i = 40 (L = 42 channels), where every
    # round splits into blocks
    POINTS = LOOP_POINTS + [(0.7, 40.0, 0), (0.7, 40.0, 2)]

    @staticmethod
    def _evaluate(monkeypatch, block, g0, eps_i, n):
        monkeypatch.setattr(quadrature, "_BLOCK", block)
        sizes = []
        for name in ("_loop_integrand", "_shift_integrand"):
            def counting(*args, _make=getattr(renorm, name)):
                integrand = _make(*args)

                def wrapped(k):
                    sizes.append(np.size(k))
                    return integrand(k)
                return wrapped
            monkeypatch.setattr(renorm, name, counting)
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        loop = gamma_loop.__wrapped__(k_f, k_i, n, g0)
        diag = loop.diagnostics
        values = (loop.re, loop.im, diag["evaluations"], diag["error_estimate"],
                  alpha_shift.__wrapped__(1, eps_i, g0))
        monkeypatch.undo()
        return values, sizes

    @pytest.mark.parametrize("g0,eps_i,n", POINTS)
    def test_tiny_blocks_bit_identical_to_one_block(self, monkeypatch, g0, eps_i, n):
        whole, sizes = self._evaluate(monkeypatch, 10 ** 9, g0, eps_i, n)
        assert max(sizes) > 7
        for block in (2, 3, 7):
            values, sizes = self._evaluate(monkeypatch, block, g0, eps_i, n)
            assert values == whole
            # a 1-node call would add its channels pairwise and change the bits
            assert 2 <= min(sizes) and max(sizes) <= block + 1


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

    def test_failure_away_from_thresholds_is_re_raised(self):
        # every channel is at least 0.5 from its threshold: the quadrature's
        # own ToleranceError passes through, not a RegimeError
        with pytest.raises(ToleranceError, match="^interval budget exhausted"):
            alpha_shift.__wrapped__(1, 0.5, 0.3, 1e-20)

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
        table = renorm._loop_products(k_f, k_i, n, np.array(ls)[:, None], self.NODES, g0)
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
    propagators; the shift reference sums |b_coefficient(k, m)|**2 over
    the propagators channel by channel.  At n = 0 the channels +l and -l
    cancel to O(k - k_i) next to k_i, so the reference's own rounding is
    relative to its summed magnitudes, and so is the 1e-12 tolerance.
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
        ls = renorm._loop_channels(k_i, n, g0)[1].tolist()
        poles = [k_i, k_f] + [math.sqrt(k_i * k_i + 2 * l) for l in (-2, -1, 3)]
        nodes = np.array([1e-6, 1e-4, 1e-2]
                         + [p + d for p in poles for d in self.OFFSETS])
        terms = renorm._loop_products(k_f, k_i, n, np.array(ls)[:, None], nodes, g0) \
            / ((eps_i + np.array(ls)[:, None]) - 0.5 * nodes * nodes)
        values = renorm._loop_integrand(k_f, k_i, n, ls, g0)(nodes)
        assert np.all(np.abs(values - terms.sum(axis=0))
                      <= 1e-12 * np.abs(terms).sum(axis=0))

    @pytest.mark.parametrize("step", [None, 0.3])
    @pytest.mark.parametrize("q", [0.7, np.linspace(0.01, 0.99, 9)])
    def test_q_powers_is_the_row_by_row_product(self, q, step):
        # the table a loop over the rows makes, bit for bit
        rows = [np.asarray(q, dtype=float)]
        for _ in range(24):
            rows.append(rows[-1] * (q if step is None else step))
        assert np.array_equal(renorm._q_powers(q, 25, step), np.array(rows))

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
        mod2 = np.abs([[b_coefficient(k, m, g0) for k in nodes] for m in ms]) ** 2
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
    # (0.5, 0.875): the closed channel l = -1 has |k_l| = g0, where lambda_l
    # and -1/lambda_l merge into the double roots +-i
    GRID = [(g0, eps) for g0 in (0.1, 0.7) for eps in (0.3, 0.7, 1.3, 2.5)] \
        + [(0.01, 2.5), (0.01, 4.5), (0.5, 0.875)]

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
        # loops at g0 = 0.1 (|Re Gamma| ~ 5e-7 at eps_i = 2.5) and g0 = 0.01
        # (~5e-10 and ~9e-11); there q(k) ~ 2e-3 must be free of
        # cancellation (the subtracted form is off by 4e-8 and 1.6e-7)
        direct = gamma_loop(k, k, 0, g0, tol=1e-10 if g0 >= 0.1 else 1e-13)
        assert with_closed.re == pytest.approx(direct.re, rel=1e-8, abs=0.0)
        assert with_closed.im == pytest.approx(direct.im, rel=1e-10, abs=0.0)


def _soft_moment(l: int) -> float:
    """I_l = FP int_0^inf x**2 q(x)**(2l) dx, q(x) = sqrt(x**2 + 1) - x: the
    finite part after the substitution lambda = q."""
    return (1.0 / (2 * l - 3) - 1.0 / (2 * l - 1) - 1.0 / (2 * l + 1) + 1.0 / (2 * l + 3)) / 8.0


class TestSoftRegionClosedForms:
    """The odd g0**3 parts of the loop and of the far bound route, in closed form."""

    def test_soft_moments(self):
        assert [_soft_moment(l) for l in range(1, 5)] == pytest.approx(
            [-4 / 15, 8 / 105, 4 / 315, 16 / 3465], rel=1e-14)

    @pytest.mark.parametrize("eps_i", [0.3, 1.7, 2.5])
    def test_loop_g0_cubed_coefficient(self, eps_i):
        # Re Gamma(0) = a2 g0**2 + a3 g0**3 + ...; a cubic fit of Re Gamma(0) / g0**2
        # puts a3 within 1.1 % of the soft-region sum (0.04588, -0.006328, -0.000450)
        k = math.sqrt(2.0 * eps_i)
        g0s = np.array([0.00625, 0.0125, 0.025, 0.05])
        re = np.array([gamma_loop.__wrapped__(k, k, 0, g0, 1e-13).re for g0 in g0s])
        a3 = np.polyfit(g0s, re / g0s ** 2, 3)[-2]
        closed = 2.0 * eps_i / (math.pi ** 2 * k ** 4) * sum(
            _soft_moment(l) / (eps_i ** 2 - l * l) for l in range(1, 200))
        assert a3 == pytest.approx(closed, rel=0.011)

    @pytest.mark.parametrize("eps_i", [0.3, 1.7, 2.5])
    def test_far_bound_route_g0_cubed(self, eps_i):
        # |B_{k b}(+-1)|**2 ~ g0**3 / (4 pi k**4), up to relative O(g0**2 / k**2)
        k, g0 = math.sqrt(2.0 * eps_i), 1e-3
        closed = 2.0 * eps_i / (4.0 * math.pi * k ** 4 * (eps_i ** 2 - 1.0))
        far = renorm._b_far_elastic(eps_i, g0) / g0 ** 3
        assert far.imag == 0.0
        assert far.real == pytest.approx(closed, rel=g0 * g0 / (k * k))


class TestBoundRoute:
    def test_bare_regulator_insensitive_off_resonance(self):
        # the regulated denominator rule that renorm_factors sums for Z
        k = math.sqrt(2.0 * 0.4)
        eps_t = 0.4 + 0.3 * 0.3 / 8.0
        v1 = renorm._bound_series(k, k, 0, 0.3, eps_t, width=1e-6)
        v2 = renorm._bound_series(k, k, 0, 0.3, eps_t, width=1e-9)
        assert abs(v1 - v2) < 1e-6

    def test_odd_sideband_amplitude_vanishes(self):
        k_i = math.sqrt(2.0 * 0.8)
        k_f = math.sqrt(k_i * k_i + 2.0)
        eps_t = 0.8 + 0.3 * 0.3 / 8.0
        assert renorm._bound_series(k_f, k_i, 1, 0.3, eps_t, width=1e-6) == 0.0
        assert b_renorm(1, 0.8, 0.3) == 0.0

    @pytest.mark.parametrize("n", [-3, -1, 1, 3])
    def test_odd_sideband_computes_no_factors(self, n, monkeypatch):
        # the pole parameters of an identically zero series are never needed
        def forbidden(*args):
            raise AssertionError("renorm_factors called for an odd sideband")

        monkeypatch.setattr(renorm, "renorm_factors", forbidden)
        assert b_renorm(n, 3.5, 0.3) == 0.0

    def test_renormalized_structure(self):
        # the dominant layer carries Z and the corrected denominator; all
        # other layers keep their bare real denominators
        eps_i, g0 = 0.75, 0.1
        k = math.sqrt(2.0 * eps_i)
        eps_t = eps_i + g0 * g0 / 8.0
        fac = renorm_factors(0, 1, eps_i, g0)
        num = b_coefficient(k, 1, g0) * b_coefficient(k, 1, g0).conjugate()
        others = sum(
            b_coefficient(k, n0, g0) * b_coefficient(k, n0, g0).conjugate()
            / (eps_t - n0)
            for n0 in range(-41, 42, 2) if n0 != 1)
        expected = others + fac.Z * num / (fac.eps_R - 1.0 + 1j * fac.eta_R)
        assert b_renorm(0, eps_i, g0) == pytest.approx(expected, rel=1e-10)

    def test_renormalized_finite_on_bare_pole(self):
        eps_i = 1.0 - 0.1 * 0.1 / 8.0  # effective energy exactly on n0 = 1
        val = b_renorm(0, eps_i, 0.1)
        assert abs(val) < 1e6
        assert val.imag != 0.0

    def test_static_limit_vanishes(self):
        assert b_renorm(0, 0.5, 0.0) == 0.0

    @pytest.mark.parametrize("fn, args", [(b_renorm, (-2, 0.5, 0.3)),
                                          (renorm_factors, (-2, 1, 1.0, 0.3)),
                                          # at its exact threshold: once open
                                          (renorm_factors, (-1, 1, 1.0, 0.3))])
    def test_closed_sideband_rejected(self, fn, args):
        # k_f = sqrt(2 (eps_i + n)) is built inside: a closed n has none
        with pytest.raises(DomainError,
                           match=rf"^sideband n = {args[0]} is closed at eps_i = "):
            fn(*args)

    @pytest.mark.parametrize("args", [(1, 1, 0.9, 0.3), (0, 2, 1.9, 0.3)],
                             ids=["odd-n", "even-n0"])
    def test_pair_without_bound_term_rejected(self, args, monkeypatch):
        # no c/b/c term: these once gave eps_R 0.7152 and Z 0.9916+0.0247j,
        # and a pole at eps_R 1.7153 for an even n0
        def forbidden(*_):
            raise AssertionError("quadrature before the pair is checked")

        monkeypatch.setattr(renorm, "alpha_shift", forbidden)
        with pytest.raises(DomainError, match=re.escape(
                "n must be even and n0 odd for a c/b/c term, "
                f"got n = {args[0]}, n0 = {args[1]}")):
            renorm_factors(*args)

    def test_resonance_refuses_an_unresolved_pole(self):
        # no float resolves 2**53 from its nearest odd integers; undriven, no pole
        with pytest.raises(DomainError, match="^" + re.escape(
                "g0 must be small enough that eps_i + g0**2/8 < 2**53, "
                "got 1.0 at eps_i = 9007199254740992.0") + "$"):
            renorm._resonance(2.0 ** 53, 1.0)
        assert renorm._resonance(2.0 ** 53, 0.0)[0] == 2.0 ** 53

    @pytest.mark.parametrize("n, g0", [(0, 0.7), (2, 0.7), (0, 0.1), (2, 0.1),
                                       (16, 0.1)],
                             ids=["0", "2", "0-g0_0.1", "2-g0_0.1", "16-g0_0.1"])
    def test_series_sums_every_odd_n0(self, n, g0):
        # every even n0 term vanishes, so a layer-by-layer cutoff on a
        # zero layer once stopped both series at |n0| = 3; at g0 = 0.1 the
        # decay cutoff is shortest (13 orders), against |n0| <= 63 here;
        # at n = 16 the largest term sits at n0 = -15, beyond |n0| <= 13

        def full_sum(k_f, k_i, eps_i, denom):
            eps_t = eps_i + g0 * g0 / 8.0
            return sum(b_coefficient(k_f, n + n0, g0) * b_coefficient(k_i, n0, g0).conjugate()
                       / denom(eps_t, n0) for n0 in range(-63, 64, 2))

        eps_i = 0.9348
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        fac = renorm_factors(n, 1, eps_i, g0)

        def renormalized(eps_t, n0):
            if n0 == 1:
                return (fac.eps_R - 1.0 + 1j * fac.eta_R) / fac.Z
            return eps_t - n0

        # abs=0: at n = 16 the sums are about 1e-28
        assert b_renorm(n, eps_i, g0) == pytest.approx(
            full_sum(k_f, k_i, eps_i, renormalized), rel=1e-13, abs=0)
        eps_i = 0.93
        k_i = math.sqrt(2.0 * eps_i)
        k_f = math.sqrt(k_i * k_i + 2 * n)
        assert renorm._bound_series(k_f, k_i, n, g0, eps_i + g0 * g0 / 8.0,
                                    width=1e-8) == pytest.approx(
            full_sum(k_f, k_i, eps_i, lambda eps_t, n0: eps_t - n0 + 1e-8j),
            rel=1e-13, abs=0)

    def test_series_near_threshold_reaches_the_bound_cap(self):
        # q(k_i) = 0.82 at g0 = 0.7, eps_i = 0.01: the decay rule asks for
        # 209 orders, so the bound route's own cap, not the quadrature
        # sums' 32, sets where the series stops
        g0, eps_i = 0.7, 0.01
        k = math.sqrt(2.0 * eps_i)
        pole = eps_i + g0 * g0 / 8.0
        long_sum = sum(abs(b_coefficient(k, n0, g0)) ** 2 / (pole - n0)
                       for n0 in range(-301, 302, 2))
        assert renorm._bound_series(k, k, 0, g0, pole) == pytest.approx(long_sum,
                                                                        rel=1e-13)

    def test_resonant_term_beyond_the_decay_order(self):
        # q(k) -> 1 at small k / g0, so the n0 = 65 term still shows
        # (q**130 ~ 0.3) beyond the cap order 63; its weight must count
        k, g0, weight = 0.01, 1.0, 0.5 - 2.0j
        pole = 0.5 * k * k + g0 * g0 / 8.0
        with_weight = renorm._bound_series(k, k, 0, g0, pole, resonant=(65, weight))
        dropped = renorm._bound_series(k, k, 0, g0, pole, resonant=(65, 0.0))
        b = b_coefficient(k, 65, g0)
        assert abs(b) ** 2 > 0.01
        assert with_weight - dropped == pytest.approx(b * b.conjugate() * weight,
                                                      rel=1e-12)

    def test_pole_neighbours_beyond_the_decay_order(self):
        # a pole on an odd n0 far above the cutoff order still vanishes
        # that term's denominator, whatever the term's size
        k = math.sqrt(2.0 * 75.0)
        with pytest.raises(RegimeError, match=r"vanishes at n0 = 75$"):
            renorm._bound_series(k, k, 0, 0.7, 75.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.34), st.floats(-1.0, 1.0))
    def test_far_form_pole_rule_lies_inside_the_first_window(self, g0, u):
        # below g0 = sqrt(1.8), |eps_i - 1| < g0**2/8 puts eps_t inside the
        # n0 = 1 near window, so that rule changes no regime there
        eps_i = 1.0 + u * g0 * g0 / 8.0
        assume(abs(eps_i - 1.0) < g0 * g0 / 8.0)
        eps_t, n0 = renorm._resonance(eps_i, g0)
        assert abs(eps_t - n0) < renorm._NEAR_DISTANCE


class TestPoleCorrections:
    def test_width_seed_positive(self):
        assert beta_width(1, 0.9, 0.1) > 0.0
        assert beta_width(1, 0.9, 0.7) > 0.0

    def test_shift_negative_near_resonance(self):
        assert alpha_shift(1, 0.99, 0.1) < 0.0

    def test_factors_consistent(self):
        eps_i = 0.95
        fac = renorm_factors(0, 1, eps_i, 0.1)
        assert fac.eps_R == pytest.approx(
            eps_i + 0.1 * 0.1 / 8.0 + fac.alpha, abs=1e-15)
        assert fac.eta_R == pytest.approx(
            fac.beta * (1.0 + fac.gamma_factor), abs=1e-15)
        assert fac.n0 == 1

    def test_residue_normalization_near_unity_small_coupling(self):
        eps_i = 0.95
        fac = renorm_factors(0, 1, eps_i, 0.05)
        assert abs(fac.Z - 1.0) < 0.05

    def test_rejects_static_coupling(self):
        with pytest.raises(DomainError):
            alpha_shift(1, 0.9, 0.0)
        with pytest.raises(DomainError):
            beta_width(1, 0.9, -0.1)

    @pytest.mark.parametrize("g0", [math.nan, math.inf])
    @pytest.mark.parametrize("fn", [alpha_shift, beta_width])
    def test_non_finite_coupling_named(self, fn, g0):
        # once "ValueError: cannot convert float NaN to integer"
        with pytest.raises(DomainError, match=f"^g0 must be positive and finite, got {g0}$"):
            fn(1, 0.9, g0)

    @pytest.mark.parametrize("fn,args,name,value", [
        # once a ToleranceError on "the fold about pole 1.0" or "ValueError:
        # cannot convert float NaN to integer"
        (gamma_loop.__wrapped__, (math.nan, 1.0, 0, 0.3), "k_f", math.nan),
        (gamma_loop.__wrapped__, (1.0, math.inf, 0, 0.3), "k_i", math.inf),
        (alpha_shift.__wrapped__, (1, math.nan, 0.3), "eps_i", math.nan),
        (alpha_shift.__wrapped__, (1, math.inf, 0.3), "eps_i", math.inf),
        (beta_width.__wrapped__, (1, math.nan, 0.3), "eps_i", math.nan),
        (gamma_elastic_closed, (1.0, math.nan), "g0", math.nan),
        (gamma_elastic_closed, (math.inf, 0.3), "k_i", math.inf),
    ])
    def test_non_finite_argument_named(self, monkeypatch, fn, args, name, value):
        def no_quadrature(*_):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(renorm, "pv_halfline", no_quadrature)
        with pytest.raises(DomainError, match=f"^{name} must be positive and finite, got {value}$"):
            fn(*args)
