"""Scalar Poisson kernel: closed form against the pmf-summation oracle,
plus its structural properties."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppdiv import (InvalidAlpha, NonConvergent, renyi_poisson,
                   renyi_poisson_oracle)

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
