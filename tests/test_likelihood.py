"""Log-likelihood-ratio evaluation, truncation-based sigma-finite
evaluation, and the Monte Carlo bridge to divergences."""

import math

import numpy as np
import pytest

from helpers import random_discrete_pair
from ppdiv import (DiscreteIntensity, GridIntensity, InfiniteHellinger,
                   InfiniteMass, InvalidAlpha, NotAbsolutelyContinuous,
                   PointPattern, SmoothIntensity, TruncatedLogLikelihood,
                   common_reference, log_lr_finite, log_lr_sigma_finite,
                   mc_divergence_estimate, sample_pp, tsallis)

INF = math.inf
UNIT_2 = GridIntensity([(0, 1)], [1], [2.0])
UNIT_1 = GridIntensity([(0, 1)], [1], [1.0])


class TestFinite:
    def test_doubling_with_three_points(self):
        pair = common_reference(UNIT_2, UNIT_1)
        eta = PointPattern([(0.2, 1), (0.5, 1), (0.8, 1)])
        result = log_lr_finite(pair, eta)
        assert result.in_support
        assert result.log_lr == pytest.approx(-1.0 + 3.0 * math.log(2.0),
                                              abs=1e-12)

    def test_equal_measures(self):
        pair = common_reference(UNIT_1, UNIT_1)
        eta = PointPattern([(0.1, 2), (0.9, 1)])
        assert log_lr_finite(pair, eta).log_lr == 0.0

    def test_point_in_dead_zone(self):
        lam = GridIntensity([(0, 2)], [2], [0.0, 1.0])
        mu = GridIntensity([(0, 2)], [2], [1.0, 1.0])
        pair = common_reference(lam, mu)
        result = log_lr_finite(pair, PointPattern([(0.5, 1)]))
        assert not result.in_support
        assert result.log_lr == -INF

    def test_infinite_mass_rejected(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        pair = common_reference(lam, lam)
        with pytest.raises(InfiniteMass):
            log_lr_finite(pair, PointPattern([(1.0, 1)]))

    def test_non_dominated_pair_rejected(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0)]),
                                DiscreteIntensity([("b", 1.0)]))
        with pytest.raises(NotAbsolutelyContinuous):
            log_lr_finite(pair, PointPattern([("b", 1)]))

    def test_discrete_pattern(self):
        lam = DiscreteIntensity([("a", 2.0), ("b", 1.0)])
        mu = DiscreteIntensity([("a", 1.0), ("b", 1.0)])
        pair = common_reference(lam, mu)
        eta = PointPattern([("a", 2)])
        assert log_lr_finite(pair, eta).log_lr == pytest.approx(
            -1.0 + 2.0 * math.log(2.0), abs=1e-12)

    def test_planar_pattern(self):
        lam = GridIntensity([(0, 1), (0, 2)], [2, 2], [2.0] * 4)
        mu = GridIntensity([(0, 1), (0, 2)], [1, 1], [1.0])
        pair = common_reference(lam, mu)
        eta = PointPattern([((0.5, 0.5), 1)])
        assert log_lr_finite(pair, eta).log_lr == pytest.approx(
            -2.0 + math.log(2.0), abs=1e-12)


class TestSigmaFinite:
    def lebesgue_pair(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + math.exp(-x),
                              density_bound=2.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0, density_bound=1.0)
        return common_reference(lam, mu)

    def test_window_reduction(self):
        # ratio is 1 outside [0, 1]: all four integrands vanish there
        lam = SmoothIntensity([(0.0, INF)],
                              lambda x: 2.0 if x <= 1.0 else 1.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        pair = common_reference(lam, mu)
        result = log_lr_sigma_finite(pair, PointPattern([(0.5, 1)]),
                                     n_max=10, tol=1e-9)
        assert result.converged
        assert result.log_lr == pytest.approx(-1.0 + math.log(2.0), abs=1e-8)
        assert result.truncation_trace[0][1] == pytest.approx(
            result.log_lr, abs=1e-8)

    def test_unit_ratio_gives_zero(self):
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        pair = common_reference(mu, mu)
        result = log_lr_sigma_finite(pair, PointPattern([(3.0, 1), (7.5, 2)]),
                                     n_max=10, tol=1e-9)
        assert result.converged
        assert result.log_lr == pytest.approx(0.0, abs=1e-12)

    def test_truncation_trace_stabilises(self):
        pair = self.lebesgue_pair()
        rng = np.random.default_rng(21)
        mu_model = SmoothIntensity([(0.0, 30.0)], lambda x: 1.0,
                                   density_bound=1.0)
        eta = sample_pp(mu_model, seed=rng)
        evaluator = TruncatedLogLikelihood(pair, n_max=30)
        result = evaluator.evaluate(eta, tol=0.0)
        trace = dict(result.truncation_trace)
        assert abs(trace[30] - trace[20]) < 1e-6

    def test_restriction_consistency(self):
        # measures and pattern all supported inside the first truncation:
        # the sigma-finite value equals the finite one, trace length 1
        lam = GridIntensity([(0, 1)], [2], [2.0, 3.0])
        mu = GridIntensity([(0, 1)], [2], [1.0, 1.0])
        pair = common_reference(lam, mu)
        eta = PointPattern([(0.2, 1), (0.7, 1)])
        finite = log_lr_finite(pair, eta)
        sigma = log_lr_sigma_finite(pair, eta)
        assert sigma.converged
        assert len(sigma.truncation_trace) == 1
        assert sigma.log_lr == pytest.approx(finite.log_lr, abs=1e-12)

    def test_support_flip(self):
        lam = GridIntensity([(0, 1)], [2], [0.0, 2.0])
        mu = GridIntensity([(0, 1)], [2], [1.0, 1.0])
        pair = common_reference(lam, mu)
        good = PointPattern([(0.7, 1)])
        bad = PointPattern([(0.7, 1), (0.2, 1)])
        assert log_lr_finite(pair, good).in_support
        assert log_lr_sigma_finite(pair, good).in_support
        assert not log_lr_finite(pair, bad).in_support
        assert not log_lr_sigma_finite(pair, bad).in_support
        assert log_lr_sigma_finite(pair, bad).log_lr == -INF

    def test_infinite_hellinger_rejected(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        # swap so the first is dominated: exp(-x) << 1, ratio exp(-x)
        pair = common_reference(mu, lam).swapped()
        with pytest.raises(InfiniteHellinger):
            log_lr_sigma_finite(pair.swapped(), PointPattern([(1.0, 1)]))

    def test_point_cancelling_an_increment_does_not_stop_early(self):
        # The point's log-ratio, log(1 + e^-x0) ~ e^-12 (1 - e^-1), cancels
        # the compensator increment of level 13 to within 1e-11, which
        # once ended the iteration there, 2.3e-6 short of the value.
        x0 = 12.0 - math.log(1.0 - math.exp(-1.0))
        result = log_lr_sigma_finite(self.lebesgue_pair(),
                                     PointPattern([(x0, 1)]), tol=1e-8)
        assert result.converged
        assert len(result.truncation_trace) > 13
        truth = math.log1p(math.exp(-x0)) - 1.0
        assert result.log_lr == pytest.approx(truth, abs=1e-7)

    def test_reports_nonconvergence(self):
        pair = self.lebesgue_pair()
        result = log_lr_sigma_finite(pair, PointPattern([(0.5, 1)]),
                                     n_max=3, tol=0.0)
        assert not result.converged
        assert len(result.truncation_trace) == 3


class TestMonteCarlo:
    def test_kl_consistency(self):
        pair = common_reference(UNIT_2, UNIT_1)
        target = tsallis(pair, 1.0).value
        est, se = mc_divergence_estimate(pair, 1.0, 100_000, seed=9)
        assert abs(est - target) <= 3.0 * se

    def test_equal_measures_estimate_zero(self):
        pair = common_reference(UNIT_1, UNIT_1)
        est, se = mc_divergence_estimate(pair, 1.0, 20_000, seed=10)
        assert est == 0.0
        assert se == 0.0

    def test_half_order_consistency_discrete(self):
        rng = np.random.default_rng(65)
        _, _, pair = random_discrete_pair(rng, n_atoms=5)
        target = tsallis(pair, 0.5).value
        est, se = mc_divergence_estimate(pair, 0.5, 100_000, seed=11)
        assert abs(est - target) <= 3.0 * se

    def test_normalisation_of_the_ratio(self):
        # E over the second law of exp(log ratio) is one; pattern-level
        # evaluation at moderate size, count-statistic form at 1e5
        pair = common_reference(UNIT_2, UNIT_1)
        rng = np.random.default_rng(12)
        mu_model = GridIntensity([(0, 1)], [1], [1.0])
        values = []
        for _ in range(20_000):
            eta = sample_pp(mu_model, seed=rng)
            values.append(math.exp(log_lr_finite(pair, eta).log_lr))
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        assert abs(mean - 1.0) <= 3.0 * se

        counts = np.random.default_rng(13).poisson(1.0, size=100_000)
        big = np.exp(-1.0 + counts * math.log(2.0))
        se_big = float(np.std(big, ddof=1) / math.sqrt(len(big)))
        assert abs(float(np.mean(big)) - 1.0) <= 3.0 * se_big

    def test_alpha_range_enforced(self):
        pair = common_reference(UNIT_2, UNIT_1)
        with pytest.raises(InvalidAlpha):
            mc_divergence_estimate(pair, 2.5, 100, seed=0)

    def test_sample_count_enforced(self):
        pair = common_reference(UNIT_2, UNIT_1)
        with pytest.raises(ValueError):
            mc_divergence_estimate(pair, 1.0, 0, seed=0)

    def test_same_seed_is_reproducible(self):
        pair = common_reference(UNIT_2, UNIT_1)
        a = mc_divergence_estimate(pair, 1.0, 5_000, seed=3)
        b = mc_divergence_estimate(pair, 1.0, 5_000, seed=3)
        assert a == b
