"""Chernoff information: optimizer against a dense-grid oracle, structural
symmetries, and the Bayes-risk simulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import golden_chernoff, random_pair
from ppdiv import chernoff, likelihood, sampler
from ppdiv import (DensityPair, DiscreteIntensity, GridIntensity, InfiniteMass,
                   QuadratureFailure, SmoothIntensity, bayes_risk_sim,
                   chernoff_info, common_reference, tsallis)
from ppdiv.model_io import compile_density
from ppdiv.quadrature import _Adaptive


def dense_grid_oracle(lam, mu, step=1e-6):
    """Vectorised maximisation of the per-order exponent over a fine grid."""
    alphas = np.arange(step, 1.0, step)
    total = np.zeros_like(alphas)
    for l_k, m_k in zip(lam, mu):
        if l_k == 0.0 and m_k == 0.0:
            continue
        if l_k == 0.0:
            total += (1.0 - alphas) * m_k
            continue
        if m_k == 0.0:
            total += alphas * l_k
            continue
        cross = np.exp(alphas * math.log(l_k) + (1.0 - alphas) * math.log(m_k))
        total += alphas * l_k + (1.0 - alphas) * m_k - cross
    best = int(np.argmax(total))
    return float(total[best]), float(alphas[best])


def pair_of(lam, mu):
    ids = [f"k{i}" for i in range(len(lam))]
    return common_reference(DiscreteIntensity(tuple(zip(ids, lam))),
                            DiscreteIntensity(tuple(zip(ids, mu))))


class TestChernoffInfo:
    def test_equal_pair(self):
        result = chernoff_info(pair_of([1.0, 2.0], [1.0, 2.0]))
        assert result.value == 0.0

    def test_single_atom_against_oracle(self):
        result = chernoff_info(pair_of([1.0], [4.0]))
        target, alpha_star = dense_grid_oracle([1.0], [4.0])
        assert result.value == pytest.approx(target, abs=1e-6)
        assert result.argmax_alpha == pytest.approx(alpha_star, abs=1e-5)
        assert 0.0 < result.argmax_alpha < 1.0

    def test_symmetric_pair(self):
        result = chernoff_info(pair_of([1.0, 4.0], [4.0, 1.0]))
        assert result.argmax_alpha == pytest.approx(0.5, abs=1e-6)
        # each atom contributes 0.5*5 - 2 = 0.5 at the middle order
        assert result.value == pytest.approx(1.0, abs=1e-9)

    def test_value_near_the_float_limit_is_finite(self):
        # T_a = h(a) / (1 - a) overflows at the maximiser; h(a) does not
        result = chernoff_info(pair_of([1e307], [1.0]))
        a = result.argmax_alpha
        assert a == pytest.approx(0.99072, abs=1e-5)
        want = a * 1e307 + (1.0 - a) - 1e307 ** a
        assert result.value == pytest.approx(want, rel=1e-9)

    def test_random_pairs_against_oracle(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            lam = rng.uniform(0.2, 5.0, n)
            mu = rng.uniform(0.2, 5.0, n)
            result = chernoff_info(pair_of(lam, mu))
            target, _ = dense_grid_oracle(lam, mu, step=1e-5)
            assert result.value == pytest.approx(target, abs=1e-6)

    def test_direction_symmetry(self):
        fwd = chernoff_info(pair_of([1.0, 3.0], [2.0, 0.5]))
        bwd = chernoff_info(pair_of([2.0, 0.5], [1.0, 3.0]))
        assert fwd.value == pytest.approx(bwd.value, abs=1e-9)
        assert fwd.argmax_alpha == pytest.approx(1.0 - bwd.argmax_alpha,
                                                 abs=1e-6)

    def test_scale_covariance(self):
        base = chernoff_info(pair_of([1.0, 2.0], [3.0, 0.7]))
        scaled = chernoff_info(pair_of([2.5, 5.0], [7.5, 1.75]))
        assert scaled.value == pytest.approx(2.5 * base.value, rel=1e-8)
        assert scaled.argmax_alpha == pytest.approx(base.argmax_alpha,
                                                    abs=1e-6)

    def test_objective_interval_recorded(self):
        result = chernoff_info(pair_of([1.0], [4.0]))
        assert result.bracket_width <= 1e-9
        assert 1 <= result.iterations <= 12

    @pytest.mark.parametrize("lam, mu", [([1.0], [4.0]), ([4.0], [1.0]),
                                         ([1.0, 3.0], [2.0, 0.5])])
    def test_interior_optimum_checks_one_end(self, monkeypatch, lam, mu):
        # by concavity only the end that the slope at 1/2 points to is checked
        orders = []
        slope_terms = chernoff._slope_terms

        def recorded(f, g, a):
            orders.append(a)
            return slope_terms(f, g, a)
        monkeypatch.setattr(chernoff, "_slope_terms", recorded)
        result = chernoff_info(pair_of(lam, mu))
        assert 1e-6 < result.argmax_alpha < 1.0 - 1e-6
        assert orders[0] == 0.5 and result.iterations == len(orders)
        assert len({1e-6, 1.0 - 1e-6} & set(orders)) <= 1


def singular_pair(rng):
    """A random exact pair with no cell where both densities are positive."""
    _, _, pair = random_pair(rng)
    first = rng.uniform(size=len(pair.f)) < 0.5
    return DensityPair(pair.reference, np.where(first, pair.f, 0.0),
                       np.where(first, 0.0, pair.g))


def smooth_pair(bounds, first, second, variables=("x",)):
    return common_reference(
        *(SmoothIntensity(bounds, compile_density(e, variables))
          for e in (first, second)))


class TestNewtonAgainstGoldenSection:
    """The Newton search against the golden-section search it replaced
    (``helpers.golden_chernoff``), on the same objective."""

    @staticmethod
    def assert_agrees(pair, reference):
        result = chernoff_info(pair)
        value, argmax = golden_chernoff(reference)
        assert abs(result.value - value) <= 1e-9 * (1.0 + value)
        assert 1 <= result.iterations <= 12
        assert result.bracket_width <= 1e-9
        return result, argmax

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), singular=st.booleans())
    def test_random_exact_pairs(self, seed, singular):
        rng = np.random.default_rng(seed)
        pair = singular_pair(rng) if singular else random_pair(rng, True)[2]
        result, _ = self.assert_agrees(pair, pair)
        if singular:
            # a linear objective peaks at an end of the search interval
            assert result.argmax_alpha in (1e-6, 1.0 - 1e-6)
            assert result.iterations <= 2

    @pytest.mark.parametrize("lam, mu", [
        ([1.828125e-05], [11199.58]), ([1e6], [1e-6]), ([1e-300], [1.0]),
        ([0.17788, 2.2165e-4, 262.13], [25.086, 75288.98, 0.013622]),
    ])
    def test_extreme_ratios(self, lam, mu):
        # far from its root the slope is nearly exponential in the order,
        # and unguarded Newton steps leave [0, 1]; the bracket keeps them
        result = chernoff_info(pair_of(lam, mu))
        value, _ = golden_chernoff(pair_of(lam, mu))
        assert abs(result.value - value) <= 1e-9 * (1.0 + value)
        assert result.iterations <= 16

    @pytest.mark.parametrize("bounds, first, second", [
        ([(0.0, 1.0)], "1 + x", "2 - x*x"),
        ([(0.0, 2.0)], "exp(-x)", "(x < 1.5) * 1.0"),
        ([(0.0, 2.0)], "(x < 1) * 3.0", "(x > 0.5) * 1.0"),
        ([(0.0, math.inf)], "1 + 0.9*exp(-1.2*x)", "1"),
        ([(0.0, math.inf)], "3*exp(-x)", "exp(-x)"),
    ])
    def test_smooth_pairs(self, bounds, first, second):
        result, argmax = self.assert_agrees(
            smooth_pair(bounds, first, second),
            smooth_pair(bounds, first, second))
        assert result.argmax_alpha == pytest.approx(argmax, abs=1e-6)

    def test_planar_box(self):
        args = ([(0.0, 1.0), (0.0, 1.0)], "1 + x0*x1", "2 - x0", ("x0", "x1"))
        self.assert_agrees(smooth_pair(*args), smooth_pair(*args))

    @pytest.mark.parametrize("bounds, first, second, variables", [
        ([(0.0, 1.0)], "1 + x", "2 - x*x", ("x",)),
        ([(0.0, math.inf)], "1 + 0.9*exp(-1.2*x)", "1", ("x",)),
        ([(0.0, 1.0), (0.0, 1.0)], "1 + x0*x1", "2 - x0", ("x0", "x1")),
    ])
    def test_one_run_per_slope(self, monkeypatch, bounds, first, second, variables):
        # h' and h'' are the two rows of one run, and the objective one more
        pair = smooth_pair(bounds, first, second, variables)
        tsallis(pair, 0.5)
        runs = []
        run = _Adaptive.run
        monkeypatch.setattr(_Adaptive, "run", lambda self: runs.append(1) or run(self))
        result = chernoff_info(pair)
        assert result.iterations >= 2 and len(runs) == result.iterations + 1


def half_line_pair(first, second):
    return common_reference(
        *(SmoothIntensity([(0.0, math.inf)], compile_density(e, ("x",)))
          for e in (first, second)))


class TestSmoothHalfLine:
    def test_finite_pair_against_single_atom(self):
        # f = 3 exp(-x), g = exp(-x): T_alpha is the kernel at (3, 1), so the
        # objective is that of one atom; no mass is integrated on the way
        pair = half_line_pair("3*exp(-x)", "exp(-x)")
        result = chernoff_info(pair)
        oracle = chernoff_info(pair_of([3.0], [1.0]))
        assert result.value == pytest.approx(oracle.value, rel=1e-8)
        assert result.argmax_alpha == pytest.approx(oracle.argmax_alpha, abs=1e-6)
        assert not {"lambda", "mu"} & pair._memo.keys()

    @pytest.mark.parametrize("first, second", [("exp(-x)", "1"), ("1", "exp(-x)")])
    def test_one_infinite_mass_gives_infinite_supremum(self, first, second):
        result = chernoff_info(half_line_pair(first, second))
        assert result.value == math.inf
        assert result.iterations == 1
        assert result.notes == ["singular pair: divergence infinite at every "
                                "order in (0, 1)"]

    def test_two_infinite_masses_fail(self):
        with pytest.raises(QuadratureFailure, match="probably divergent"):
            chernoff_info(half_line_pair("1", "2"))


class TestBayesRisk:
    def test_equal_intensities_decide_by_prior(self):
        pair = pair_of([2.0], [2.0])
        for prior0 in (0.3, 0.5, 0.8):
            risk, se = bayes_risk_sim(pair, prior0, 5, 100_000, seed=14)
            assert abs(risk - min(prior0, 1.0 - prior0)) <= 3.0 * se

    def test_degenerate_prior(self):
        risk, _ = bayes_risk_sim(pair_of([1.0], [4.0]), 1.0, 5, 10_000,
                                 seed=15)
        assert risk == 0.0

    def test_exponent_band(self):
        pair = pair_of([1.0], [4.0])
        C, _ = dense_grid_oracle([1.0], [4.0], step=1e-5)
        risk, _ = bayes_risk_sim(pair, 0.5, 10, 200_000, seed=16)
        exponent = -math.log(risk) / 10.0
        # pre-asymptotic: the finite-n exponent sits above C and near the
        # exact value from the Poisson tail
        exact = 0.5 * 0.0007168304479381848  # P(err | theta) averaged, n=10
        assert exponent >= C
        assert abs(risk - 2.0 * exact) <= 4.0 * math.sqrt(2 * exact / 200_000)

    def test_unnormalised_exponent_grows(self):
        pair = pair_of([1.0], [4.0])
        risks = [bayes_risk_sim(pair, 0.5, n, 300_000, seed=17)[0]
                 for n in (5, 10, 20)]
        exponents = [-math.log(r) for r in risks]
        assert exponents[0] < exponents[1] < exponents[2]

    @pytest.mark.parametrize("lam, mu, n", [
        ([1e308, 1e308], [1.0, 1.0], 1),
        ([1.0, 1.0], [1e308, 1e308], 1),
        ([1e308], [1.0], 2),
        ([1.0], [1e308], 2),
    ])
    def test_infinite_mass_over_n_observations_rejected(self, lam, mu, n):
        with pytest.raises(InfiniteMass):
            bayes_risk_sim(pair_of(lam, mu), 0.5, n, 10, seed=1)

    def test_mean_past_the_poisson_limit_rejected(self):
        # finite masses, but n times the first is beyond numpy's Poisson limit
        with pytest.raises(InfiniteMass, match="Poisson limit"):
            bayes_risk_sim(pair_of([1e300], [1.0]), 0.5, 2, 10, seed=1)

    # Seeded risks from before the risk simulator drew through the shared
    # block loop; a run that fits in one block must draw them bit for bit.
    @pytest.mark.parametrize("lam, mu, prior0, n, trials, seed, want", [
        ([1.0, 2.5], [2.0, 0.8], 0.5, 2, 20_000, 5, (0.13045, 0.002381520496447595)),
        ([1.0, 2.5], [2.0, 0.8], 0.3, 3, 3_000, 6,
         (0.06533333333333333, 0.00451164747769182)),
        ([1.0], [4.0], 0.5, 10, 50_000, 7, (0.00068, 0.0001165793806811479)),
        ([0.0, 1.0, 3.0], [2.0, 1.0, 0.0], 0.4, 1, 5_000, 8,
         (0.0192, 0.0019406885376072069)),
        ([1270.0] * 4, [1295.4] * 4, 0.5, 2, 40_000, 9,
         (0.1582, 0.001824642156698129)),
        ([0.2, 0.1, 0.4, 0.3], [0.3, 0.3, 0.1, 0.2], 0.6, 4, 700, 10,
         (0.19285714285714287, 0.014912279949573797)),
    ])
    def test_seeded_risks_are_pinned(self, lam, mu, prior0, n, trials, seed, want):
        assert bayes_risk_sim(pair_of(lam, mu), prior0, n, trials, seed) == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_grid_of_unit_cells_matches_its_atoms(self, n):
        lam, mu = [1.0, 2.5, 0.7], [2.0, 0.8, 0.7]
        grid = common_reference(GridIntensity([(0, 3)], [3], lam),
                                GridIntensity([(0, 3)], [3], mu))
        assert (bayes_risk_sim(grid, 0.4, n, 20_000, seed=50 + n)
                == bayes_risk_sim(pair_of(lam, mu), 0.4, n, 20_000, seed=50 + n))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_constant_smooth_densities_against_poisson_counts(self, n):
        # constant densities 1.5 and 3 on [0, 1]: the total count is
        # sufficient, Poisson(1.5 n) against Poisson(3 n)
        lam = SmoothIntensity([(0.0, 1.0)], compile_density("1.5", ("x",)))
        mu = SmoothIntensity([(0.0, 1.0)], compile_density("3", ("x",)))
        risk, se = bayes_risk_sim(common_reference(lam, mu), 0.5, n, 100_000,
                                  seed=60 + n)
        c = np.arange(80)
        log_fact = np.array([math.lgamma(x + 1.0) for x in c])
        p0, p1 = (np.exp(c * math.log(m) - m - log_fact) for m in (1.5 * n, 3.0 * n))
        want = float(np.minimum(0.5 * p0, 0.5 * p1).sum())
        assert abs(risk - want) <= 4.0 * se


def exact_bayes_risk(lam, mu, prior0, n):
    """``sum min(prior0 P0(c), prior1 P1(c))`` over the count vectors ``c``
    of two atoms, with ``P0``, ``P1`` the laws of independent Poisson counts
    with means ``n lam`` and ``n mu``, cut where the tail is below 1e-15."""
    def log_pmf(m, top):
        return np.array([x * math.log(m) - m - math.lgamma(x + 1) for x in range(top)])
    top = int(n * max(lam + mu) + 12.0 * math.sqrt(n * max(lam + mu))) + 30
    p0 = np.exp(np.add.outer(log_pmf(n * lam[0], top), log_pmf(n * lam[1], top)))
    p1 = np.exp(np.add.outer(log_pmf(n * mu[0], top), log_pmf(n * mu[1], top)))
    assert 1.0 - p0.sum() < 1e-15 and 1.0 - p1.sum() < 1e-15
    return float(np.minimum(prior0 * p0, (1.0 - prior0) * p1).sum())


class TestBayesRiskOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("prior0", [0.5, 0.3])
    def test_simulated_risk_against_exact_sum(self, n, prior0):
        lam, mu = [1.0, 2.5], [2.0, 0.8]
        want = exact_bayes_risk(lam, mu, prior0, n)
        risk, se = bayes_risk_sim(pair_of(lam, mu), prior0, n, 200_000,
                                  seed=30 + n)
        assert abs(risk - want) <= 4.0 * se

    @pytest.mark.parametrize("n", [1, 3])
    def test_blocked_risk_against_exact_sum(self, monkeypatch, n):
        # 256 counts a block: 128 trials of two atoms
        draws, rows = [], sampler._poisson_rows

        def poisson_rows(means, k, rng):
            draws.append(k * len(means))
            return rows(means, k, rng)

        monkeypatch.setattr(likelihood, "_BLOCK", 256)
        monkeypatch.setattr(sampler, "_poisson_rows", poisson_rows)
        lam, mu = [1.0, 2.5], [2.0, 0.8]
        risk, se = bayes_risk_sim(pair_of(lam, mu), 0.3, n, 100_000, seed=40 + n)
        assert len(draws) > 700
        assert max(draws) <= 256
        assert abs(risk - exact_bayes_risk(lam, mu, 0.3, n)) <= 4.0 * se

    def test_smooth_pair_not_dominated_against_atoms(self):
        # the second density vanishes on [0.5, 1]: a point there decides for
        # the first hypothesis, as an atom of zero second mass does
        smooth = common_reference(
            SmoothIntensity([(0.0, 1.0)], lambda x: 2.0 + 0.0 * x),
            SmoothIntensity([(0.0, 1.0)], lambda x: np.where(x < 0.5, 4.0, 0.0)))
        r_smooth, se_smooth = bayes_risk_sim(smooth, 0.5, 1, 10_000, seed=1)
        r_exact, se_exact = bayes_risk_sim(pair_of([1.0, 1.0], [2.0, 0.0]),
                                           0.5, 1, 10_000, seed=1)
        assert abs(r_smooth - r_exact) <= 4.0 * math.hypot(se_smooth, se_exact)

    def test_large_means_against_the_total_count(self):
        # n times each mean is 2540 or 2590.8, with about 60,000 trials per
        # hypothesis: every column takes the histogram draw, and at 2540
        # the rounded pmf terms sum past 1.  One ratio on every atom makes
        # the total count sufficient: Poisson(10160) against Poisson(10363.2)
        lam, mu, n = [1270.0] * 4, [1295.4] * 4, 2
        risk, se = bayes_risk_sim(pair_of(lam, mu), 0.5, n, 120_000, seed=34)
        c = np.arange(9000, 11600)
        log_fact = np.array([math.lgamma(x + 1.0) for x in c])
        p0, p1 = (np.exp(c * math.log(m) - m - log_fact)
                  for m in (n * sum(lam), n * sum(mu)))
        # the terms carry rounding errors of about 1e-12 at these counts
        assert abs(1.0 - p0.sum()) < 1e-10 and abs(1.0 - p1.sum()) < 1e-10
        decide0 = c * math.log(lam[0] / mu[0]) + n * (sum(mu) - sum(lam)) >= 0.0
        want = 0.5 * p0[~decide0].sum() + 0.5 * p1[decide0].sum()
        assert 0.1 < want < 0.25
        assert abs(risk - want) <= 4.0 * se

