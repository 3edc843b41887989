"""Log-likelihood-ratio evaluation, truncation-based sigma-finite
evaluation, and the Monte Carlo bridge to divergences."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import log_ratio, random_discrete_pair, random_pair
from ppdiv import (DiscreteIntensity, GridIntensity, InfiniteHellinger,
                   InfiniteMass, InvalidAlpha, NonConvergent,
                   NotAbsolutelyContinuous, PointPattern, SmoothIntensity,
                   TruncatedLogLikelihood,
                   common_reference, log_lr_finite, log_lr_sigma_finite,
                   mc_divergence_estimate, sample_pp, tsallis)
from ppdiv import likelihood, measure
from ppdiv.extended import log_ratios
from ppdiv.likelihood import _loglr_batch, _sum_stat
from ppdiv.model_io import compile_density
from ppdiv.quadrature import _Adaptive, integrate_box

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

    @pytest.mark.parametrize("axis", [0, 1])
    def test_planar_pair_singular_on_upper_part_rejected(self, axis):
        lam = SmoothIntensity([(0, 1), (0, 1)], lambda x0, x1: 1.0)
        mu = SmoothIntensity([(0, 1), (0, 1)],
                             lambda *x: 1.0 if x[axis] < 0.6 else 0.0)
        with pytest.raises(NotAbsolutelyContinuous):
            log_lr_finite(common_reference(lam, mu), PointPattern([]))

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


def _half_line_pair(expression):
    lam = SmoothIntensity([(0.0, INF)], compile_density(expression, ("x",)))
    mu = SmoothIntensity([(0.0, INF)], compile_density("1", ("x",)))
    return common_reference(lam, mu)


class TestLimit:
    """The sigma-finite value is the point sum plus the integral of ``g - f``
    over the whole domain, whatever the trace does."""

    POINTS = (0.5, 2.0, 3.7)

    def closed_form(self, phi, integral, points=POINTS):
        return math.fsum(math.log(phi(x)) for x in points) + integral

    def test_slow_exponential_tail(self):
        # stepping by levels once stopped at 554 with an error of 2.9e-7
        eta = PointPattern([(x, 1) for x in self.POINTS])
        result = log_lr_sigma_finite(_half_line_pair("1 + exp(-x/30)"), eta,
                                     n_max=1000, tol=1e-8)
        want = self.closed_form(lambda x: 1.0 + math.exp(-x / 30.0), -30.0)
        assert result.converged
        assert abs(result.log_lr - want) <= 1e-12
        assert abs(result.truncation_trace[-1][1] - want) < 1e-8

    @pytest.mark.parametrize("n_max", [100, 20_000])
    def test_power_tail_is_exact_but_not_converged(self, n_max):
        # the trace's tail is 1/(1 + n), never below tol; stepping by levels
        # once claimed convergence at n = 10^4 with an error of 1e-4
        eta = PointPattern([(x, 1) for x in self.POINTS])
        result = log_lr_sigma_finite(_half_line_pair("1 + (1 + x)**-2"), eta,
                                     n_max=n_max, tol=1e-8)
        want = self.closed_form(lambda x: 1.0 + (1.0 + x) ** -2, -1.0)
        assert not result.converged and result.notes
        assert len(result.truncation_trace) == n_max
        assert abs(result.log_lr - want) <= 1e-12

    def test_kink_past_the_panel_budget(self):
        # 20000 unit segments start the levels' run with 20000 panels, past
        # the 10000 of the default spec, and the kink at 2.5 must still split
        result = log_lr_sigma_finite(_half_line_pair("1 + exp(-abs(x - 2.5))"),
                                     PointPattern([(0.5, 1)]), n_max=20_000)
        want = math.log1p(math.exp(-2.0)) - (2.0 - math.exp(-2.5))
        assert result.converged
        assert abs(result.log_lr - want) <= 1e-12

    def test_large_n_max_trace_is_pinned(self):
        # the 20000 levels are gathered from one run of 20000 segments; the
        # trace stops at level 655 and is pinned bit for bit
        eta = PointPattern([(x, 1) for x in self.POINTS])
        traces = [log_lr_sigma_finite(_half_line_pair("1 + exp(-x/30)"), eta,
                                      n_max=n_max) for n_max in (1000, 20_000)]
        short, long = (r.truncation_trace for r in traces)
        assert long == short and len(long) == 655
        assert traces[1].log_lr == traces[0].log_lr == -28.021401432111492
        assert [long[i][1] for i in (0, 99, 654)] == [
            -0.2986684164928589, -26.951181631693895, -28.021401422225406]
        assert math.fsum(v for _, v in long) == -17471.495117931187

    def test_every_segment_empty(self):
        # the levels 1..3 lie left of the domain [5, inf), so their segments
        # are all empty and add nothing
        lam = SmoothIntensity([(5.0, INF)], compile_density("1 + exp(-x)", ("x",)))
        mu = SmoothIntensity([(5.0, INF)], compile_density("1", ("x",)))
        result = log_lr_sigma_finite(common_reference(lam, mu),
                                     PointPattern([(6.0, 1)]), n_max=3)
        assert result.truncation_trace == [(1, 0.0), (2, 0.0), (3, 0.0)]
        assert result.log_lr == -0.0042622618613548345

    def test_seeded_patterns_out_to_15(self):
        evaluator = TruncatedLogLikelihood(_half_line_pair("1 + exp(-x)"))
        rng = np.random.default_rng(15)
        for _ in range(20):
            points = rng.uniform(0.0, 15.0, int(rng.integers(1, 30))).tolist()
            result = evaluator.evaluate(PointPattern([(x, 1) for x in points]))
            want = self.closed_form(lambda x: 1.0 + math.exp(-x), -1.0, points)
            assert result.converged
            assert abs(result.log_lr - want) <= 1e-12

    def test_divergent_integral_is_reported(self):
        # H is finite, as (1/(1 + x))^2 is integrable, but g - f is not
        result = log_lr_sigma_finite(_half_line_pair("1 + 1/(1 + x)"),
                                     PointPattern([(0.5, 1)]), n_max=50)
        assert not result.converged
        assert result.notes and "failed" in result.notes[0]
        assert result.log_lr == result.truncation_trace[-1][1]
        assert len(result.truncation_trace) == 50


def _pattern_sums(pair, eta, levels):
    """Sum of ``log phi`` over the points of ``eta`` up to each level."""
    locs = np.array([float(loc) for loc, _ in eta.points])
    terms = pair.log_ratio_at([loc for loc, _ in eta.points])
    return [math.fsum(terms[locs <= n].tolist()) for n in levels]


def _split_grid_levels(pair, eta, levels):
    """The paper's compensated split of the exponent at each level: the
    pattern sum, minus the compensator ``log phi * g`` of the band
    ``|log phi| <= 1``, plus the band term ``(log phi + 1 - f/g) g`` and
    the tail term ``(g - f)`` off the band, each summed on its own."""
    ref, f, g = pair.reference, pair.f, pair.g
    edges = ref.edges[0]
    out = []
    for n, pat in zip(levels, _pattern_sums(pair, eta, levels)):
        m = ref.values * np.maximum(np.minimum(edges[1:], n) - edges[:-1], 0.0)
        lr = log_ratios(f, g)
        on = np.abs(lr) <= 1.0
        lr, fo, go, mo = lr[on], f[on], g[on], m[on]
        comp = math.fsum((lr * go * mo).tolist())
        band = math.fsum(((lr + 1.0 - fo / go) * go * mo).tolist())
        tail = math.fsum(((g - f) * m)[~on].tolist())
        out.append(pat - comp + band + tail)
    return out


def _split_smooth_levels(pair, eta, levels, edge):
    """The same split for a smooth pair on ``[0, inf)`` whose band edge
    ``|log phi| = 1`` is at ``edge``, by QUADPACK on each unit segment."""
    from scipy import integrate
    f, g = pair.f, pair.g

    def parts(x):
        lr = math.log(f(x) / g(x))
        if abs(lr) <= 1.0:
            return lr * g(x), (lr + 1.0 - f(x) / g(x)) * g(x), 0.0
        return 0.0, 0.0, g(x) - f(x)

    out, total = [], 0.0
    for n, pat in zip(levels, _pattern_sums(pair, eta, levels)):
        pts = [edge] if n - 1 < edge < n else None
        comp, band, tail = (
            integrate.quad(lambda x, k=k: parts(x)[k], n - 1.0, n, points=pts,
                           epsabs=1e-13, epsrel=1e-12, limit=200)[0]
            for k in range(3))
        total += -comp + band + tail
        out.append(pat + total)
    return out


# Half-line pairs of finite Hellinger distance: 1 + e^-x, 1 + (1 + x)^-2
# and 1 + e^-|x - 2.5| (a kink inside a unit segment) against 1.
_HALF_LINE = ("1 + exp(-x)", "1 + (1 + x)**-2", "1 + exp(-abs(x - 2.5))")


class TestOneIntegralPerLevel:
    """Each truncation level adds ``mu(S_n) - lambda(S_n)``, the integral of
    ``g - f`` over its unit segment, equal at every level to the paper's
    compensated split; all the levels come from one adaptive run whose
    first panels are the segments, and the limit from one more run over
    the whole domain."""

    def test_one_quadrature_per_chunk(self, monkeypatch):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + np.exp(-x))
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + 0.0 * x)
        evaluator = TruncatedLogLikelihood(common_reference(lam, mu), n_max=7)
        runs = []
        run = _Adaptive.run
        monkeypatch.setattr(_Adaptive, "run",
                            lambda self: runs.append(self.bounds) or run(self))
        result = evaluator.evaluate(PointPattern([(0.5, 1)]), tol=0.0)
        assert len(result.truncation_trace) == 7
        assert runs == [((0.0, 7.0),), ((0.0, INF),)]

    @pytest.mark.parametrize("expression", _HALF_LINE)
    def test_chunked_levels_match_one_run_per_level(self, expression):
        lam = SmoothIntensity([(0.0, INF)], compile_density(expression, ("x",)))
        mu = SmoothIntensity([(0.0, INF)], compile_density("1", ("x",)))
        pair = common_reference(lam, mu)
        trace = TruncatedLogLikelihood(pair, n_max=40).evaluate(
            PointPattern(()), tol=0.0).truncation_trace
        assert [n for n, _ in trace] == list(range(1, 41))
        gap = 0.0
        for n, value in trace:
            inc, _ = integrate_box(lambda x: pair.g(x) - pair.f(x),
                                   [(n - 1.0, float(n))], lam.quadrature)
            gap += inc
            assert abs(value - gap) <= 1e-9

    def test_constructor_runs_no_mass_integral(self, monkeypatch):
        # T_1/2 is finite, so the hellinger check needs neither mass
        runs = []
        run = _Adaptive.run
        monkeypatch.setattr(_Adaptive, "run",
                            lambda self: runs.append(self.bounds) or run(self))
        lam = SmoothIntensity([(0.0, INF)], compile_density(_HALF_LINE[0], ("x",)))
        mu = SmoothIntensity([(0.0, INF)], compile_density("1", ("x",)))
        TruncatedLogLikelihood(common_reference(lam, mu))
        assert runs == [((0.0, INF),)]

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    @pytest.mark.parametrize("swap", [False, True])
    def test_smooth_levels_match_compensated_split(self, scale, swap):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + scale * math.exp(-x))
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        pair = common_reference(mu, lam) if swap else common_reference(lam, mu)
        # |log phi| = log(1 + scale e^-x) reaches 1 only for scale > e - 1
        edge = math.log(scale / (math.e - 1.0)) if scale > math.e - 1.0 else -1.0
        evaluator = TruncatedLogLikelihood(pair, n_max=30)
        rng = np.random.default_rng(7)
        for _ in range(3):
            eta = PointPattern([(float(x), 1) for x in rng.uniform(0.0, 6.0, 4)])
            trace = evaluator.evaluate(eta, tol=0.0).truncation_trace
            levels = [n for n, _ in trace]
            want = _split_smooth_levels(pair, eta, levels, edge)
            np.testing.assert_allclose([v for _, v in trace], want,
                                       rtol=0.0, atol=1e-12)

    def test_grid_levels_match_compensated_split(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            width = float(rng.uniform(0.5, 6.0))
            f = rng.uniform(0.05, 8.0, n) * (rng.uniform(size=n) > 0.2)
            g = rng.uniform(0.05, 4.0, n)
            lam = GridIntensity([(0.0, width)], [n], f)
            pair = common_reference(lam, GridIntensity([(0.0, width)], [n], g))
            eta = sample_pp(lam, seed=rng)
            trace = log_lr_sigma_finite(pair, eta, tol=0.0).truncation_trace
            levels = [k for k, _ in trace]
            assert levels == list(range(1, math.ceil(width) + 1))
            want = _split_grid_levels(pair, eta, levels)
            np.testing.assert_allclose([v for _, v in trace], want,
                                       rtol=0.0, atol=1e-12)


    def test_unequal_refined_cells_match_compensated_split(self):
        rng = np.random.default_rng(38)
        for _ in range(20):
            n_f = int(rng.integers(2, 9))
            n_g = n_f + 1
            width = float(rng.uniform(1.5, 6.0))
            f = rng.uniform(0.05, 8.0, n_f) * (rng.uniform(size=n_f) > 0.2)
            lam = GridIntensity([(0.0, width)], [n_f], f)
            mu = GridIntensity([(0.0, width)], [n_g], rng.uniform(0.05, 4.0, n_g))
            pair = common_reference(lam, mu)
            assert not pair.reference.equal_cells
            eta = sample_pp(lam, seed=rng)
            trace = log_lr_sigma_finite(pair, eta, tol=0.0).truncation_trace
            levels = [k for k, _ in trace]
            want = _split_grid_levels(pair, eta, levels)
            np.testing.assert_allclose([v for _, v in trace], want,
                                       rtol=0.0, atol=1e-12)


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
        # one sample has no standard error
        for n_samples in (0, 1):
            with pytest.raises(ValueError, match="at least 2"):
                mc_divergence_estimate(pair, 1.0, n_samples, seed=0)

    def test_every_pattern_off_support_is_non_convergent(self):
        # every pattern drawn under the second law has a point on "x",
        # where the first law has no mass; the true order-1/2 value is 50
        pair = common_reference(DiscreteIntensity([("x", 0.0), ("y", 1.0)]),
                                DiscreteIntensity([("x", 50.0), ("y", 1.0)]))
        assert tsallis(pair, 0.5).value == pytest.approx(50.0)
        with pytest.raises(NonConvergent, match="support"):
            mc_divergence_estimate(pair, 0.5, 20, seed=0)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_mean_past_the_poisson_limit_rejected(self, alpha):
        big = DiscreteIntensity([("a", 1e300)])
        with pytest.raises(InfiniteMass, match="Poisson limit"):
            mc_divergence_estimate(common_reference(big, big), alpha, 10, seed=0)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_power_past_the_float_range_is_non_convergent(self, alpha):
        # under the first law every log ratio is about 4000: L^(alpha - 1) overflows
        pair = common_reference(DiscreteIntensity([("a", 5000.0)]),
                                DiscreteIntensity([("a", 1000.0)]))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonConvergent, match="float range"):
                mc_divergence_estimate(pair, alpha, 2_000, seed=1)

    def test_every_order_of_the_sweep_pair_matches_tsallis(self):
        # the pair and defaults of scripts/divergence_sweep.py; orders above
        # 1/2 draw under the first law, orders at or below it under the second
        pair = common_reference(GridIntensity([(0.0, 1.0)], [4], [2.0, 0.5, 1.5, 3.0]),
                                GridIntensity([(0.0, 1.0)], [4], [1.0, 1.0, 2.0, 1.0]))
        for alpha in (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0):
            est, se = mc_divergence_estimate(pair, alpha, 200_000, seed=1)
            assert abs(est - tsallis(pair, alpha).value) <= 4.0 * se, alpha

    def test_same_seed_is_reproducible(self):
        pair = common_reference(UNIT_2, UNIT_1)
        a = mc_divergence_estimate(pair, 1.0, 5_000, seed=3)
        b = mc_divergence_estimate(pair, 1.0, 5_000, seed=3)
        assert a == b

    # Seeded estimates from before the exact and smooth draws shared one
    # block loop; a batch that fits in one block must draw them bit for bit.
    # The order-2 rows date from when orders above 1/2 drew under the first
    # law (tsallis: 4.1125 and 0.65625).
    @pytest.mark.parametrize("kind, alpha, n_samples, seed, want", [
        ("discrete", 1.0, 3000, 11, (1.473580726041498, 0.0351130064300482)),
        ("discrete", 0.5, 3000, 12, (0.6370720173402574, 0.03589843033761287)),
        ("discrete", 2.0, 2000, 13, (3.8090572918330303, 0.14961950255964945)),
        ("grid", 1.0, 3000, 11, (0.36706019609264967, 0.014476550847056978)),
        ("grid", 0.5, 3000, 12, (0.17988730953276436, 0.016460369971659464)),
        ("grid", 2.0, 2000, 13, (0.6754742671084029, 0.02963982635163642)),
        ("smooth", 1.0, 500, 21, (3.484402864864356, 0.11380873916177255)),
        ("smooth", 0.5, 500, 22, (1.6597238408747008, 0.19562193715776183)),
    ])
    def test_seeded_estimates_are_pinned(self, kind, alpha, n_samples, seed, want):
        pair = {"discrete": lambda: common_reference(
                    DiscreteIntensity([("a", 1.0), ("b", 2.5), ("c", 0.7)]),
                    DiscreteIntensity([("a", 2.0), ("b", 0.8), ("c", 0.7)])),
                "grid": lambda: common_reference(
                    GridIntensity([(0, 1)], [4], [2.0, 1.0, 0.5, 3.0]),
                    GridIntensity([(0, 1)], [2], [1.0, 2.0])),
                "smooth": _smooth_mc_pair}[kind]()
        assert mc_divergence_estimate(pair, alpha, n_samples, seed) == want

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_blocked_estimate_matches_tsallis(self, monkeypatch, alpha):
        # 64 counts a block: 21 patterns of three atoms, so about 950 blocks
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 2.5), ("c", 0.7)]),
                                DiscreteIntensity([("a", 2.0), ("b", 0.8), ("c", 0.7)]))
        monkeypatch.setattr(likelihood, "_BLOCK", 64)
        est, se = mc_divergence_estimate(pair, alpha, 20_000, seed=41)
        assert abs(est - tsallis(pair, alpha).value) <= 4.0 * se


def _smooth_mc_pair():
    lam = SmoothIntensity([(0.0, 2.0)], compile_density("6*(2 + sin(3*x))", ("x",)))
    mu = SmoothIntensity([(0.0, 2.0)], compile_density("8 + 4*x", ("x",)))
    return common_reference(lam, mu)


def _between_probes_pair():
    # 5 against 5 but on (0.44, 0.5), between the probes at 0.412 and 0.529
    lam = SmoothIntensity([(0.0, 2.0)], lambda x: 5.0 + 0.0 * x)
    mu = SmoothIntensity([(0.0, 2.0)],
                         lambda x: np.where((x > 0.44) & (x < 0.5), 0.0, 5.0))
    return common_reference(lam, mu)


class TestSmoothMonteCarlo:
    """The smooth Monte Carlo thins all patterns of a block at once."""

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    def test_estimate_matches_tsallis(self, alpha):
        pair = _smooth_mc_pair()
        est, se = mc_divergence_estimate(pair, alpha, 4_000, seed=21)
        assert abs(est - tsallis(pair, alpha).value) <= 4.0 * se

    @pytest.mark.parametrize("first", [True, False])
    def test_one_pattern_batch_is_sample_pp(self, first):
        # a batch of one pattern draws what sample_pp draws from the same
        # stream, and its log ratio is log_lr_finite's
        pair = _smooth_mc_pair()
        model = measure.intensity_from_density(pair.reference,
                                               pair.f if first else pair.g)
        for seed in range(10):
            got, = _loglr_batch(pair, 1, np.random.default_rng(seed), first)
            eta = sample_pp(model, seed=np.random.default_rng(seed))
            assert len(eta) > 0
            want = log_lr_finite(pair, eta).log_lr
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_blocks_are_reproducible(self, monkeypatch):
        # one pattern per block: the blocks draw, in turn, what sample_pp
        # draws from the one stream
        pair = _smooth_mc_pair()
        model = measure.intensity_from_density(pair.reference, pair.f)
        monkeypatch.setattr(likelihood, "_BLOCK", 1)
        blocks = _loglr_batch(pair, 30, np.random.default_rng(5), True)
        assert (blocks == _loglr_batch(pair, 30, np.random.default_rng(5), True)).all()
        rng = np.random.default_rng(5)
        want = [log_lr_finite(pair, sample_pp(model, seed=rng)).log_lr
                for _ in range(30)]
        np.testing.assert_allclose(blocks, want, rtol=1e-12, atol=0.0)
        a = mc_divergence_estimate(pair, 1.0, 50, seed=4)
        assert a == mc_divergence_estimate(pair, 1.0, 50, seed=4)

    def test_undominated_point_between_probes_raises(self):
        # mu vanishes on (0.44, 0.5), between the probes at 0.412 and 0.529
        lam = SmoothIntensity([(0.0, 2.0)], lambda x: 5.0 + 0.0 * x)
        mu = SmoothIntensity([(0.0, 2.0)],
                             lambda x: np.where((x > 0.44) & (x < 0.5), 0.0, 5.0))
        pair = common_reference(lam, mu)
        assert pair._undominated is None
        with pytest.raises(NotAbsolutelyContinuous, match="drawn under the first law is where"):
            mc_divergence_estimate(pair, 1.0, 50, seed=1)

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_orders_above_one_raise_on_a_drawn_undominated_point(self, alpha):
        # the order-2 divergence is inf; drawn under the second law, which
        # puts no point where it vanishes, the estimate was -0.600 +- 1e-17
        with pytest.raises(NotAbsolutelyContinuous, match="drawn under the first law is where"):
            mc_divergence_estimate(_between_probes_pair(), alpha, 200, seed=1)

    def test_orders_below_one_count_a_drawn_undominated_point_as_zero(self):
        pair = _between_probes_pair()
        est, se = mc_divergence_estimate(pair, 0.75, 2_000, seed=1)
        assert tsallis(pair, 0.75).value == pytest.approx(0.9)
        assert abs(est - 0.9) <= 4.0 * se

    def test_infinite_ratio_at_a_point_sums_to_inf(self):
        # mu vanishes on [1, 2], where lambda does not; as on an exact pair,
        # a pattern with a point there sums to +inf, and under mu a pattern
        # with a point where lambda vanishes sums to -inf; each row adds
        # mu(S) - lambda(S)
        lam = SmoothIntensity([(0.0, 2.0)], lambda x: 5.0 + 0.0 * x)
        mu = SmoothIntensity([(0.0, 2.0)], lambda x: np.where(x < 1.0, 5.0, 0.0))
        pair = common_reference(lam, mu)
        for p, first, want in ((pair, True, INF), (pair, False, 0.0),
                               (pair.swapped(), False, -INF)):
            # a pattern of lambda (mean 10) misses [1, 2] with chance e^-5
            ll = _loglr_batch(p, 5, np.random.default_rng(0), first)
            assert ll.tolist() == [want + p.mu_mass() - p.lambda_mass()] * 5


# (first densities, second densities, box, point, sigma-finite?): pairs
# whose density ratio at the point leaves the float range although both
# densities are positive there.
_RATIO_EDGES = {
    "grid-underflow": ([1e-200, 1.0], [1e200, 1.0], (0, 1), 0.25, False),
    "discrete-underflow": ([1e-200, 1.0], [1e200, 1.0], None, 0, False),
    "grid-overflow": ([1e200, 1.0], [1e-200, 1.0], (0, 1), 0.25, False),
    "sigma-overflow": ([1e200, 1.0], [1e-200, 1.0], (0, 1), 0.25, True),
    "sigma-underflow-off-point": ([1e-200, 1.0, 1.0, 1.0],
                                  [1e200, 1.0, 1.0, 1.0], (0, 4), 2.5, True),
}


class TestRatioEdges:
    @pytest.mark.parametrize("case", sorted(_RATIO_EDGES))
    def test_finite_true_value(self, case):
        f, g, box, point, sigma = _RATIO_EDGES[case]
        if box is None:
            lam = DiscreteIntensity(list(enumerate(f)))
            mu = DiscreteIntensity(list(enumerate(g)))
            width = 1.0
        else:
            lam = GridIntensity([box], [len(f)], f)
            mu = GridIntensity([box], [len(g)], g)
            width = (box[1] - box[0]) / len(f)
        i = int(point / width) if box else point
        want = (math.fsum(g) - math.fsum(f)) * width \
            + math.log(f[i]) - math.log(g[i])
        pair = common_reference(lam, mu)
        eta = PointPattern([(point, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = (log_lr_sigma_finite if sigma else log_lr_finite)(pair, eta)
        assert result.in_support
        assert math.isfinite(result.log_lr)
        assert result.log_lr == pytest.approx(want, rel=1e-12)


# Zeros, subnormals, the normal-range edges and values near 1e+-300.
_density = st.one_of(
    st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 1.0,
                     1e300, 1.7976931348623157e308]),
    st.floats(min_value=0.0, max_value=1e-290),
    st.floats(min_value=1e290, max_value=1.7976931348623157e308),
    st.floats(min_value=0.0, max_value=1e6))


class TestRatioConventions:
    def test_conventions(self):
        assert log_ratio(0.0, 0.0) == -INF
        assert log_ratio(0.0, 2.0) == -INF
        assert log_ratio(2.0, 0.0) == INF
        assert log_ratio(2.0, 1.0) == math.log(2.0)
        assert log_ratio(1e-200, 1e200) == math.log(1e-200) - math.log(1e200)
        got = log_ratios([0.0, 0.0, 2.0, 2.0], [0.0, 2.0, 0.0, 1.0])
        np.testing.assert_array_equal(got, [-INF, -INF, INF, math.log(2.0)])

    @settings(max_examples=300)
    @given(cells=st.lists(st.tuples(_density, _density, st.booleans()),
                          min_size=1, max_size=30))
    @example(cells=[(5e-324, 5e-324, False), (1e300, 1e-300, False),
                    (1e-300, 1e300, False), (0.0, 0.0, False),
                    (7.0, 0.0, False), (0.0, 1e-300, False)])
    def test_array_matches_scalar(self, cells):
        f = np.array([c[0] for c in cells])
        g = np.array([c[0] if c[2] else c[1] for c in cells])  # equal pairs
        got = log_ratios(f, g)
        want = np.array([log_ratio(a, b) for a, b in zip(f.tolist(), g.tolist())])
        assert not np.isnan(got).any() and not np.isnan(want).any()
        np.testing.assert_array_equal(got == INF, want == INF)
        np.testing.assert_array_equal(got == -INF, want == -INF)
        finite = np.isfinite(want)
        gap = np.abs(got[finite] - want[finite])
        assert (gap <= np.spacing(np.abs(want[finite]))).all()


class TestCrossPath:
    def test_pattern_sum_matches_count_statistic(self):
        # log_lr_finite at a sampled pattern is the Monte Carlo and
        # Bayes-risk statistic on the pattern's counts per atom or cell.
        rng = np.random.default_rng(29)
        checked = 0
        for trial in range(60):
            a, b, pair = random_pair(rng, allow_zeros=True)
            if ((pair.f > 0.0) & (pair.g == 0.0)).any():
                continue  # not dominated: no likelihood ratio
            checked += 1
            ref = pair.reference
            for model in (a, b):
                eta = sample_pp(model, seed=rng)
                counts = np.zeros(len(pair.f), dtype=np.int64)
                for loc, mult in eta.points:
                    counts[ref.index[loc] if isinstance(ref, DiscreteIntensity)
                           else ref.cell_index(loc)[0]] += mult
                _, f, g = pair.support_terms()
                want = (pair.mu_mass() - pair.lambda_mass()
                        + _sum_stat(counts[None, :], log_ratios(f, g))[0])
                got = log_lr_finite(pair, eta)
                assert got.in_support == (want != -INF)
                if want == -INF:
                    assert got.log_lr == -INF
                else:
                    assert got.log_lr == pytest.approx(want, rel=1e-12,
                                                       abs=1e-12)
        assert checked >= 20

    def test_sigma_finite_grid_left_of_zero_matches_finite(self):
        # S_1 reaches down to the domain's left end, here below 0
        rng = np.random.default_rng(32)
        for lo, hi in ((-2.5, 3.2), (-4.0, -1.0)):
            n = 5
            pair = common_reference(
                GridIntensity([(lo, hi)], [n], rng.uniform(0.5, 4.0, n)),
                GridIntensity([(lo, hi)], [n], rng.uniform(0.5, 4.0, n)))
            eta = PointPattern([(float(x), 1) for x in rng.uniform(lo, hi, 4)])
            sigma = log_lr_sigma_finite(pair, eta, tol=0.0)
            assert sigma.log_lr == pytest.approx(log_lr_finite(pair, eta).log_lr,
                                                 rel=1e-12, abs=1e-12)

    def test_sigma_finite_grid_matches_finite(self):
        # Cells that straddle the unit truncation levels exercise the
        # overlap weights of the grid segment integrals.
        rng = np.random.default_rng(31)
        for trial in range(40):
            n = int(rng.integers(2, 12))
            width = float(rng.uniform(0.5, 6.0))
            f = rng.uniform(0.05, 4.0, n) * (rng.uniform(size=n) > 0.2)
            g = rng.uniform(0.05, 4.0, n)
            pair = common_reference(GridIntensity([(0.0, width)], [n], f),
                                    GridIntensity([(0.0, width)], [n], g))
            eta = PointPattern([(float(x), 1)
                                for x in rng.uniform(0.0, width, 4)])
            finite = log_lr_finite(pair, eta)
            sigma = log_lr_sigma_finite(pair, eta, tol=0.0)
            assert sigma.in_support == finite.in_support
            assert sigma.log_lr == pytest.approx(finite.log_lr, rel=1e-12,
                                                 abs=1e-12)

    @pytest.mark.parametrize("bounds", [(0.5, 3.7), (1.25, 2.6), (0.0, 4.0),
                                        (-1.5, 2.2), (-1.9, -0.4)])
    def test_sigma_finite_smooth_matches_finite(self, bounds):
        # The unit truncation levels are cut to a domain whose ends need not
        # be integers, as a grid's cells are.
        lam = SmoothIntensity([bounds], lambda x: 2.0 + np.sin(3.0 * x))
        mu = SmoothIntensity([bounds], lambda x: 1.0 + 0.5 * x)
        pair = common_reference(lam, mu)
        eta = PointPattern([(float(x), 1) for x in
                            np.random.default_rng(37).uniform(*bounds, 5)])
        finite = log_lr_finite(pair, eta)
        sigma = log_lr_sigma_finite(pair, eta, tol=0.0)
        assert sigma.converged
        assert sigma.log_lr == pytest.approx(finite.log_lr, rel=1e-9, abs=1e-9)
