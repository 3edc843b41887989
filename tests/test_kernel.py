"""Poisson kernel: closed form against the pmf-summation oracle, its
structural properties, and the array kernel against the scalar reference
in ``helpers``."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import renyi_poisson_oracle, scalar_renyi_poisson
from ppdiv import InvalidAlpha, NonConvergent, renyi_poisson
from ppdiv.kernel import _ALPHA_NEAR_ONE, _BLOCK, _renyi_poisson_array

INF = math.inf
KL_2_1 = 2.0 * math.log(2.0) - 1.0  # frozen from the oracle below


class TestClosedForm:
    def test_kl_branch(self):
        assert renyi_poisson(2.0, 1.0, 1.0) == pytest.approx(KL_2_1, abs=1e-12)
        assert renyi_poisson_oracle(2.0, 1.0, 1.0) == pytest.approx(KL_2_1, abs=1e-9)

    def test_half_order(self):
        # (0.5 * 1 + 0.5 * 4 - sqrt(4)) / 0.5 = 1
        assert renyi_poisson(1.0, 4.0, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert renyi_poisson_oracle(1.0, 4.0, 0.5) == pytest.approx(1.0, abs=1e-9)

    def test_order_zero(self):
        assert renyi_poisson(0.0, 3.0, 0.0) == 3.0
        assert renyi_poisson(2.0, 3.0, 0.0) == 0.0

    def test_infinite_cases(self):
        assert renyi_poisson(5.0, 0.0, 2.0) == INF
        assert renyi_poisson(5.0, 0.0, 1.0) == INF
        assert renyi_poisson(1e-3, 0.0, 1.5) == INF

    def test_zero_t_below_one(self):
        # alpha/(1-alpha) * s against the degenerate distribution at zero
        assert renyi_poisson(3.0, 0.0, 0.25) == pytest.approx(1.0, abs=1e-12)
        # finite for every order below one, however close
        near_one = 1.0 - 1e-10
        assert renyi_poisson(1.0, 0.0, near_one) == pytest.approx(
            near_one / (1.0 - near_one), rel=1e-12)

    def test_subnormal_mean(self):
        # s/t underflows to zero; the log ratio must not
        assert renyi_poisson(5e-324, 2.0, 1.0) == pytest.approx(2.0, rel=1e-12)

    def test_overflowing_intermediates(self):
        # alpha * s or the cross term overflows; the value must not
        # collapse to 0 through inf - inf
        assert renyi_poisson(1e308, 1e-300, 2.0) == INF
        assert renyi_poisson(1e308, 1e300, 3.0) == INF
        assert renyi_poisson(1.5e308, 0.5e308, 1.5) == pytest.approx(
            1.5e308 * renyi_poisson(1.0, 1.0 / 3.0, 1.5), rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0, 2.0, 7.5])
    @pytest.mark.parametrize("s", [0.0, 0.2, 1.0, 9.0])
    def test_identical_means_vanish(self, s, alpha):
        assert renyi_poisson(s, s, alpha) == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            renyi_poisson(1.0, 1.0, -0.5)
        with pytest.raises(InvalidAlpha):
            renyi_poisson(1.0, 1.0, float("nan"))
        with pytest.raises(InvalidAlpha):
            renyi_poisson(1.0, 1.0, INF)

    def test_invalid_means(self):
        with pytest.raises(ValueError):
            renyi_poisson(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            renyi_poisson(1.0, INF, 0.5)


class TestOracle:
    def test_cross_check(self):
        assert renyi_poisson_oracle(3.0, 7.0, 2.0) == pytest.approx(
            renyi_poisson(3.0, 7.0, 2.0), abs=1e-8)

    def test_identical_means(self):
        assert renyi_poisson_oracle(1.0, 1.0, 0.5) == 0.0

    @pytest.mark.parametrize("s", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0])
    def test_agreement_grid(self, s, t, alpha):
        assert renyi_poisson_oracle(s, t, alpha) == pytest.approx(
            renyi_poisson(s, t, alpha), abs=1e-8)

    def test_term_budget(self):
        # the summand for (10, 0.1, 4) peaks near k = 1e7
        with pytest.raises(NonConvergent):
            renyi_poisson_oracle(10.0, 0.1, 4.0, max_terms=1_000_000)
        value = renyi_poisson_oracle(10.0, 0.1, 4.0, max_terms=20_000_000)
        assert value == pytest.approx(renyi_poisson(10.0, 0.1, 4.0), abs=1e-8)


_means = st.floats(min_value=1e-2, max_value=50.0)
_orders = st.floats(min_value=0.0, max_value=6.0)


class TestProperties:
    @given(s=st.floats(min_value=0.0, max_value=50.0),
           t=st.floats(min_value=0.0, max_value=50.0), alpha=_orders)
    @example(s=5e-324, t=2.0, alpha=1.0)
    @example(s=1.0, t=0.0, alpha=1.0 - 1e-10)
    @example(s=1e308, t=1e-300, alpha=2.0)
    @example(s=1e308, t=1e300, alpha=3.0)
    @example(s=1.5e308, t=0.5e308, alpha=1.5)
    def test_nonnegative_never_nan(self, s, t, alpha):
        value = renyi_poisson(s, t, alpha)
        assert value >= 0.0
        assert not math.isnan(value)

    @given(s=_means, t=_means, alpha=_orders,
           c=st.floats(min_value=1e-2, max_value=100.0))
    @example(s=2.0, t=0.75, alpha=0.99999, c=2.0)
    @example(s=1.9, t=1.0, alpha=1.0 + 1e-8, c=100.0)
    def test_homogeneous_in_the_means(self, s, t, alpha, c):
        lhs = renyi_poisson(c * s, c * t, alpha)
        rhs = c * renyi_poisson(s, t, alpha)
        # rounding of the inputs alone moves a near-zero value by
        # eps * scale, hence the absolute floor
        assert lhs == pytest.approx(rhs, rel=1e-12,
                                    abs=1e-12 * (1.0 + c * (s + t)))

    @given(s=_means, t=_means,
           alpha=_orders, beta=_orders)
    def test_monotone_in_order(self, s, t, alpha, beta):
        lo, hi = sorted((alpha, beta))
        v_lo = renyi_poisson(s, t, lo)
        v_hi = renyi_poisson(s, t, hi)
        if v_lo == INF:
            assert v_hi == INF
        else:
            assert v_lo <= v_hi + 1e-10 * (1.0 + abs(v_hi))

    @settings(max_examples=60)
    @given(s=st.floats(min_value=0.1, max_value=10.0),
           t=st.floats(min_value=0.1, max_value=10.0),
           side=st.sampled_from([-1.0, 1.0]))
    def test_continuity_at_order_one(self, s, t, side):
        # the order-derivative at 1 grows like s log^2(s/t) / 2, so the
        # tolerance scales with it; for ratio-bounded means it sits
        # inside a flat 1e-5
        at_one = renyi_poisson(s, t, 1.0)
        nearby = renyi_poisson(s, t, 1.0 + side * 1e-6)
        slope = s * math.log(s / t) ** 2 + abs(s - t)
        assert nearby == pytest.approx(at_one, abs=2e-6 * (1.0 + slope))
        if 1.0 / 3.0 <= s / t <= 3.0:
            assert nearby == pytest.approx(at_one, abs=1e-5)

    @pytest.mark.parametrize("alpha", [1.0 - _ALPHA_NEAR_ONE, 1.0 + _ALPHA_NEAR_ONE])
    def test_continuity_at_the_branch_switch(self, alpha):
        # the array kernel takes its near-one form up to |1 - alpha| = 0.25
        # and its far form beyond; a step to the next float on either side
        # must not jump
        rng = np.random.default_rng(12)
        s, t = rng.uniform(0.0, 10.0, (2, 1000)) * 10.0 ** rng.integers(-3, 4, (2, 1000))
        at = _renyi_poisson_array(s, t, alpha)
        for side in (0.0, 2.0):
            near = _renyi_poisson_array(s, t, math.nextafter(alpha, side))
            np.testing.assert_allclose(near, at, rtol=1e-11, atol=0.0)


_mean = st.floats(min_value=0.0, max_value=50.0)
_cell = st.one_of(
    st.tuples(_mean, _mean),
    _mean.map(lambda v: (v, v)),
    _mean.map(lambda v: (v, 0.0)),
    _mean.map(lambda v: (0.0, v)),
    st.tuples(_mean, st.floats(min_value=0.5, max_value=2.0)).map(
        lambda p: (p[0], p[0] * p[1])))
# orders below 1e-3 are left out: there the far form loses about
# -log10(alpha) digits to cancellation in both forms alike, so the
# last-bit differences of the libm functions no longer stay below 1e-9
_array_orders = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=1e-3, max_value=6.0),
    st.floats(min_value=0.7, max_value=1.3),
    st.floats(min_value=-1e-6, max_value=1e-6).map(lambda d: 1.0 + d))


class TestArrayForm:
    @settings(max_examples=300)
    @given(cells=st.lists(_cell, min_size=1, max_size=40), alpha=_array_orders)
    @example(cells=[(1e308, 1e-300), (1e308, 1e300), (1.5e308, 0.5e308)],
             alpha=1.5)
    @example(cells=[(5e-324, 2.0), (1.0, 0.0), (0.0, 0.0), (3.0, 3.0)],
             alpha=1.0 - 1e-10)
    def test_matches_scalar(self, cells, alpha):
        s = np.array([c[0] for c in cells])
        t = np.array([c[1] for c in cells])
        got = _renyi_poisson_array(s, t, alpha)
        want = np.array([scalar_renyi_poisson(a, b, alpha) for a, b in cells])
        assert not np.isnan(got).any()
        np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
        np.testing.assert_array_equal(got == 0.0, want == 0.0)
        finite = np.isfinite(want)
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=0)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0 - 1e-9, 2.0])
    def test_many_blocks_match_scalar(self, alpha):
        rng = np.random.default_rng(17)
        n = 3 * _BLOCK + 5
        s = rng.uniform(0.0, 5.0, n)
        t = s * rng.uniform(0.3, 3.0, n)
        s[rng.uniform(size=n) < 0.1] = 0.0
        t[rng.uniform(size=n) < 0.1] = 0.0
        s[-3:], t[-3:] = (1e308, 1e308, 1.5e308), (1e-300, 1e300, 0.5e308)
        got = _renyi_poisson_array(s.reshape(-1, 1), t.reshape(-1, 1), alpha)
        want = np.array([scalar_renyi_poisson(a, b, alpha) for a, b in zip(s, t)])
        assert got.shape == (n, 1)
        np.testing.assert_array_equal(np.isinf(got[:, 0]), np.isinf(want))
        np.testing.assert_allclose(got[:, 0], want, rtol=1e-9, atol=0)

    def test_shape_and_broadcast(self):
        s = np.array([[1.0, 2.0, 0.0], [4.0, 0.0, 3.0]])
        got = _renyi_poisson_array(s, 2.0, 0.5)
        assert got.shape == (2, 3)
        assert got[1, 1] == scalar_renyi_poisson(0.0, 2.0, 0.5)

    def test_validation(self):
        with pytest.raises(InvalidAlpha):
            _renyi_poisson_array([1.0], [1.0], -0.5)
        with pytest.raises(ValueError):
            _renyi_poisson_array([1.0, -1.0], [1.0, 1.0], 0.5)
        with pytest.raises(ValueError):
            _renyi_poisson_array([1.0], [np.nan], 0.5)
