"""Sampler statistics and the path transforms."""

import math

import numpy as np
import pytest
from scipy import stats

from ppdiv import (DiscreteIntensity, GridIntensity, InfiniteWindowMass,
                   MarkedModel, PointPattern, SmoothIntensity,
                   SummedIntensity, ThinningBoundMissing, compound_path,
                   count, counting_path, sample_marked, sample_pp)
from ppdiv.sampler import _poisson_column, _poisson_rows, _poisson_tail

INF = math.inf


class TestSamplePP:
    def test_zero_model_always_empty(self):
        zero = DiscreteIntensity([("a", 0.0)])
        for seed in range(5):
            assert sample_pp(zero, seed=seed).points == ()

    def test_determinism(self):
        grid = GridIntensity([(0, 2)], [4], [1.0, 0.5, 2.0, 0.1])
        assert sample_pp(grid, seed=33) == sample_pp(grid, seed=33)

    def test_unequal_cells_get_counts_by_mass(self):
        # the flattened sum of a 2-cell and a 3-cell grid has edges
        # 0, 1/3, 1/2, 2/3, 1 and densities 4, 2, 3, 4
        flat = SummedIntensity([GridIntensity([(0, 1)], [2], [1.0, 2.0]),
                                GridIntensity([(0, 1)], [3], [3.0, 1.0, 2.0])]).flattened()
        edges = np.array([0.0, 1 / 3, 1 / 2, 2 / 3, 1.0])
        want = np.array([4.0, 2.0, 3.0, 4.0]) * np.diff(edges)
        reps = 2000
        counts = np.zeros(4)
        for s in range(reps):
            locs = [loc for loc, _ in sample_pp(flat, seed=s).points]
            counts += np.bincount(np.searchsorted(edges, locs) - 1, minlength=4)
        assert np.all(np.abs(counts - reps * want) <= 5.0 * np.sqrt(reps * want))

    def test_mean_and_variance_of_counts(self):
        grid = GridIntensity([(0, 2)], [2], [2.0, 2.0])  # mass 4
        reps = 10_000
        counts = np.array([len(sample_pp(grid, seed=s)) for s in range(reps)])
        se = math.sqrt(4.0 / reps)
        assert abs(counts.mean() - 4.0) <= 3.0 * se
        # var of the sample variance for a Poisson(l) is (l + 2 l^2)/n
        se_var = math.sqrt((4.0 + 2.0 * 16.0) / reps)
        assert abs(counts.var(ddof=1) - 4.0) <= 3.0 * se_var

    def test_discrete_counts_match_weights(self):
        model = DiscreteIntensity([("a", 3.0), ("b", 1.0)])
        reps = 4000
        totals = {"a": 0, "b": 0}
        for s in range(reps):
            for pid, mult in sample_pp(model, seed=s).points:
                totals[pid] += mult
        for pid, lam in (("a", 3.0), ("b", 1.0)):
            se = math.sqrt(lam / reps)
            assert abs(totals[pid] / reps - lam) <= 3.0 * se

    def test_discrete_window_samples_the_restriction(self):
        atoms = [(f"p{i}", 0.1 + (i % 7) * 0.3) for i in range(40)]
        inside = atoms[5:30:2]
        model = DiscreteIntensity(atoms)
        restricted = DiscreteIntensity(inside)
        window = [pid for pid, _ in reversed(inside)] + ["absent"]
        for seed in range(5):
            assert (sample_pp(model, window=window, seed=seed).points
                    == sample_pp(restricted, seed=seed).points)

    def test_window_cutting_cells_on_both_axes(self):
        # x edges 0, 1, 2, 3 and y edges 0, 0.5, 1, 1.5, 2: the window cuts
        # cells on both axes and leaves out one cell per axis
        grid = GridIntensity([(0, 3), (0, 2)], [3, 4], np.arange(1.0, 13.0))
        window = ((1.4, 2.3), (0.2, 1.2))
        overlaps = np.outer([0.0, 0.6, 0.3], [0.3, 0.5, 0.2, 0.0]).reshape(-1)
        mass = float(grid._masses_in(window).sum())
        assert mass == pytest.approx(float(grid.values @ overlaps), rel=1e-14)
        reps = 2000
        counts = np.empty(reps)
        for s in range(reps):
            eta = sample_pp(grid, window=window, seed=s)
            pts = np.array([loc for loc, _ in eta.points]).reshape(-1, 2)
            assert ((pts >= [1.4, 0.2]) & (pts <= [2.3, 1.2])).all()
            counts[s] = eta.total_count()
        assert abs(counts.mean() - mass) <= 4.0 * math.sqrt(mass / reps)

    def test_restriction_property_chi_square(self):
        # counts inside a sub-window of the sampling window stay Poisson
        grid = GridIntensity([(0, 2)], [2], [2.0, 1.0])
        lam_b = 2.0  # mass of [0, 1]
        reps = 4000
        observed = np.zeros(12, dtype=int)
        for s in range(reps):
            eta = sample_pp(grid, window=(0.0, 2.0), seed=s)
            k = min(count(eta, (0.0, 1.0)), 11)
            observed[k] += 1
        pmf = stats.poisson.pmf(np.arange(12), lam_b)
        pmf[-1] = 1.0 - pmf[:-1].sum()
        keep = pmf * reps >= 5
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(pmf[keep], pmf[~keep].sum()) * reps
        _, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.01

    def test_disjoint_window_counts_uncorrelated(self):
        grid = GridIntensity([(0, 2)], [2], [1.5, 1.5])
        reps = 10_000
        left, right = np.empty(reps), np.empty(reps)
        for s in range(reps):
            eta = sample_pp(grid, seed=s)
            left[s] = count(eta, (0.0, 1.0))
            right[s] = count(eta, (1.0 + 1e-12, 2.0))
        corr = np.corrcoef(left, right)[0, 1]
        assert abs(corr) <= 3.0 / math.sqrt(reps)

    def test_smooth_thinning_mean(self):
        model = SmoothIntensity([(0, 1)], lambda x: 2.0 * x,
                                density_bound=2.0)  # mass 1
        reps = 4000
        counts = [len(sample_pp(model, seed=s)) for s in range(reps)]
        assert abs(np.mean(counts) - 1.0) <= 3.0 * math.sqrt(1.0 / reps)
        # locations concentrate toward the right end
        xs = [loc for s in range(400)
              for loc, _ in sample_pp(model, seed=s).points]
        assert np.mean(xs) == pytest.approx(2.0 / 3.0, abs=0.05)

    def test_unbounded_window_rejected(self):
        model = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        with pytest.raises(InfiniteWindowMass):
            sample_pp(model, seed=0)

    def test_grid_mass_past_the_float_range_rejected(self):
        # each cell's mass is finite, their sum is not
        model = GridIntensity([(0, 2)], [2], [1.6e308, 1.6e308])
        with pytest.raises(InfiniteWindowMass):
            sample_pp(model, seed=0)

    def test_discrete_mass_past_the_float_range_rejected(self):
        model = DiscreteIntensity([("a", 1e308), ("b", 1e308)])
        with pytest.raises(InfiniteWindowMass):
            sample_pp(model, seed=0)

    def test_wrong_bound_detected(self):
        model = SmoothIntensity([(0, 1)], lambda x: 10.0 * (x > 0.9),
                                density_bound=1.0)
        with pytest.raises(ThinningBoundMissing):
            sample_pp(model, seed=1)


class TestSampleMarked:
    def test_deterministic_kernel_marks(self):
        base = DiscreteIntensity([("a", 2.0), ("b", 2.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        model = MarkedModel(base, marks,
                            lambda t, x: float(x == ("u" if t == "a" else "v")))
        eta = sample_marked(model, seed=8)
        for (t, x), _ in eta.points:
            assert x == ("u" if t == "a" else "v")

    def test_mark_frequencies(self):
        base = GridIntensity([(0, 1)], [1], [3.0])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        model = MarkedModel(base, marks, lambda t, x: 0.5)
        total = u_count = 0
        for s in range(4000):
            for (t, x), mult in sample_marked(model, seed=s).points:
                total += mult
                u_count += mult * (x == "u")
        se = 0.5 / math.sqrt(total)
        assert abs(u_count / total - 0.5) <= 3.0 * se

    def test_product_consistency_with_flattened_model(self):
        # marked sampling and direct sampling of the product intensity
        # give the same per-atom count distribution
        base = DiscreteIntensity([("a", 1.0), ("b", 2.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        model = MarkedModel(base, marks,
                            lambda t, x: 0.25 if x == "u" else 0.75)
        flat = DiscreteIntensity([(("a", "u"), 0.25), (("a", "v"), 0.75),
                                  (("b", "u"), 0.5), (("b", "v"), 1.5)])
        reps = 3000
        for atom, lam in flat.atoms:
            marked_counts = np.zeros(9, dtype=int)
            direct_counts = np.zeros(9, dtype=int)
            for s in range(reps):
                em = sample_marked(model, seed=s)
                ed = sample_pp(flat, seed=s + 7_000_000)
                marked_counts[min(count(em, {atom}), 8)] += 1
                direct_counts[min(count(ed, {atom}), 8)] += 1
            pmf = stats.poisson.pmf(np.arange(9), lam)
            pmf[-1] = 1.0 - pmf[:-1].sum()
            keep = pmf * reps >= 5
            for observed in (marked_counts, direct_counts):
                obs = np.append(observed[keep], observed[~keep].sum())
                exp = np.append(pmf[keep], pmf[~keep].sum()) * reps
                _, p_value = stats.chisquare(obs, exp)
                assert p_value > 0.01


    def test_one_kernel_call_per_mark_on_a_diffuse_base(self):
        calls = []

        def kernel(t, x):
            calls.append(x)
            return 0.25 + 0.5 * t if x == "u" else 0.75 - 0.5 * t

        base = SmoothIntensity([(0.0, 1.0)], lambda t: 0.0 * t + 400.0,
                               density_bound=400.0)
        model = MarkedModel(base, DiscreteIntensity([("u", 1.0), ("v", 1.0)]),
                            kernel)
        calls.clear()
        eta = sample_marked(model, seed=3)
        assert sum(m for _, m in eta.points) > 300
        assert sorted(calls) == ["u", "v"]
        # the mark frequencies follow the kernel: P(u | t) = 0.25 + t / 2
        u = sum(m for (t, x), m in eta.points if x == "u")
        want = sum(m * (0.25 + 0.5 * t) for (t, _), m in eta.points)
        assert abs(u - want) <= 4.0 * math.sqrt(want)


def assert_poisson_law(draws, m, pvalue=1e-3):
    """Chi-square of ``draws`` against Poisson(m) over about twenty
    quantile bins, or all zeros at ``m = 0``."""
    if m == 0.0:
        assert (draws == 0).all()
        return
    # bin i holds the draws in (edges[i-1], edges[i]], the last those above
    edges = np.unique(stats.poisson.ppf(np.linspace(0.0, 1.0, 21)[1:-1], m))
    probs = np.diff(np.concatenate([[0.0], stats.poisson.cdf(edges, m), [1.0]]))
    observed = np.bincount(np.searchsorted(edges, draws), minlength=len(probs))
    assert stats.chisquare(observed, probs * len(draws)).pvalue > pvalue


class TestPoissonRows:
    K = 20_000
    # 4 and 40 take the histogram; 0 and 0.3 are below its smallest mean,
    # and the last mean's window (about m + 12 sqrt(m) + 30) is wider than K
    MEANS = [0.0, 0.3, 4.0, 40.0, 25_000.0]

    def rows(self, seed=21):
        return _poisson_rows(np.array(self.MEANS), self.K, np.random.default_rng(seed))

    def test_shape_and_dtype(self):
        rows = self.rows()
        assert rows.shape == (self.K, len(self.MEANS))
        assert rows.dtype == np.int64
        assert _poisson_rows(np.array(self.MEANS), 0, np.random.default_rng(1)).shape == (0, 5)
        assert _poisson_rows(np.array([]), 3, np.random.default_rng(1)).shape == (3, 0)

    def test_each_column_is_poisson(self):
        rows = self.rows()
        for j, m in enumerate(self.MEANS):
            assert_poisson_law(rows[:, j], m)

    def test_columns_are_independent(self):
        rows = self.rows()
        corr = np.corrcoef(rows[:, 1:].T)
        assert np.all(np.abs(corr[np.triu_indices(4, 1)]) <= 4.0 / math.sqrt(self.K))
        # a sum of independent Poisson counts is Poisson; columns left in
        # their histogram order would make it overdispersed
        assert_poisson_law(rows[:, 1:4].sum(axis=1), 44.3)

    @pytest.mark.parametrize("m", [1e3, 1e4, 20_001.0])
    def test_large_mean_column_keeps_the_law(self, m):
        # the rounded pmf terms of 1e4 and 20,001 sum past 1 + 1e-12
        hi = int(m + 12.0 * math.sqrt(m)) + 30
        col = _poisson_column(m, 30_000, hi, np.random.default_rng(24))
        assert len(col) == 30_000
        assert_poisson_law(col, m)

    def test_large_means_in_rows(self):
        # 30,000 rows take the histogram at 1e3, the direct draw above it
        means = np.array([1e3, 1e4, 2e4])
        rows = _poisson_rows(means, 30_000, np.random.default_rng(25))
        for j, m in enumerate(means):
            assert_poisson_law(rows[:, j], m)
        assert_poisson_law(rows.sum(axis=1), means.sum())

    def test_same_generator_state_gives_same_rows(self):
        assert np.array_equal(self.rows(seed=5), self.rows(seed=5))

    @pytest.mark.parametrize("m, hi", [(4.0, 3), (0.3, 1), (40.0, 2)])
    def test_column_with_a_short_window_keeps_the_law(self, m, hi):
        # most draws fall in the upper tail and are drawn by its inversion
        col = _poisson_column(m, self.K, hi, np.random.default_rng(22))
        assert len(col) == self.K
        assert_poisson_law(col, m)

    @pytest.mark.parametrize("m, hi", [(4.0, 6), (40.0, 2), (2.0, 30)])
    def test_tail_draws_follow_the_conditional_law(self, m, hi):
        draws = _poisson_tail(m, hi, self.K, np.random.default_rng(23))
        assert draws.min() >= hi
        # P(X = x | X >= hi) up to the last value with 5 expected draws
        x = np.arange(hi, hi + 200)
        probs = stats.poisson.pmf(x, m) / stats.poisson.sf(hi - 1, m)
        top = max(1, int(np.sum(probs * self.K >= 5.0)))
        observed = np.bincount(np.minimum(draws - hi, top - 1), minlength=top)
        want = np.append(probs[:top - 1], 1.0 - probs[:top - 1].sum()) * self.K
        if top > 1:
            assert stats.chisquare(observed, want).pvalue > 1e-3
        else:  # a tail this far out puts nearly every draw on hi
            assert np.mean(draws == hi) > 0.9


class TestPoissonLimit:
    """A finite mean above numpy's Poisson limit is refused before any draw."""

    @pytest.mark.parametrize("model", [
        DiscreteIntensity([("a", 1e300)]),
        DiscreteIntensity([("a", 1e19)]),
        GridIntensity([(0, 1)], [1], [1e300]),
        SmoothIntensity([(0, 1)], lambda x: 1e300, density_bound=1e300),
    ])
    def test_sampler_refuses_with_the_limit(self, model):
        with pytest.raises(InfiniteWindowMass, match="Poisson limit"):
            sample_pp(model, seed=0)

    def test_mean_just_below_the_limit_is_drawn(self):
        eta = sample_pp(DiscreteIntensity([("a", 9e18)]), seed=0)
        assert abs(count(eta, {"a"}) - 9e18) < 1e11


class TestPaths:
    def test_counting_path(self):
        eta = PointPattern([(0.3, 1), (0.7, 1)])
        path = counting_path(eta)
        assert path(0.5) == 1
        assert path(1.0) == 2
        assert path(0.1) == 0

    def test_counting_path_empty(self):
        path = counting_path(PointPattern(()))
        assert path(0.0) == 0
        assert path(100.0) == 0

    def test_counting_path_multiplicity_right_continuous(self):
        path = counting_path(PointPattern([(0.3, 2)]))
        assert path(0.3) == 2
        assert path(0.3 - 1e-12) == 0

    def test_compound_path(self):
        eta = PointPattern([((0.3, 2.0), 1), ((0.7, -1.0), 1)])
        path = compound_path(eta)
        assert path(0.5) == 2.0
        assert path(1.0) == 1.0
        assert path(0.0) == 0.0

    def test_compound_path_empty(self):
        path = compound_path(PointPattern(()))
        assert path(10.0) == 0.0

    def test_jump_count_equals_point_count(self):
        eta = PointPattern([((0.1, 1.0), 1), ((0.4, 2.5), 1), ((0.9, -3.0), 1)])
        assert len(compound_path(eta).times) == len(eta.points)

    def test_vector_marks(self):
        eta = PointPattern([((0.2, 1.0, 0.0), 1), ((0.6, 0.5, 2.0), 1)])
        path = compound_path(eta)
        assert path(0.4) == (1.0, 0.0)
        assert path(1.0) == (1.5, 2.0)

    @pytest.mark.parametrize("helper, eta, needs", [
        (counting_path, PointPattern([((0.3, 2.0), 1)]), "one-dimensional"),
        (counting_path, PointPattern([("a", 1), ("b", 2)]), "one-dimensional"),
        (compound_path, PointPattern([(0.3, 1), (0.7, 2)]), r"\(t, mark"),
        (compound_path, PointPattern([((0.3, "u"), 1)]), r"\(t, mark"),
    ])
    def test_wrong_pattern_kind_names_the_kind_needed(self, helper, eta, needs):
        with pytest.raises(ValueError, match=needs):
            helper(eta)

    def test_paths_match_the_point_loop(self):
        # the per-point loops the array paths replaced, on ties, integer
        # times and marks (atom-id patterns) and multiplicities
        def loop_path(pairs, marked):
            jumps = sorted(((float(loc[0] if marked else loc), i), loc, m)
                           for i, (loc, m) in enumerate(pairs))
            times, values, running = [], [], None
            for (t, _), loc, m in jumps:
                inc = (np.asarray(loc[1:], dtype=float) * m if marked else m)
                running = inc if running is None else running + inc
                val = (tuple(running.tolist()) if marked and len(loc) > 2
                       else float(running[0]) if marked else running)
                if times and times[-1] == t:
                    values[-1] = val
                else:
                    times.append(t)
                    values.append(val)
            return tuple(times), tuple(values)

        rng = np.random.default_rng(4)
        for d in (1, 2, 3):
            for ints in (False, True):
                t = rng.integers(0, 5, 30)
                marks = rng.integers(-3, 4, (30, d - 1))
                locs = [tuple(float(v) for v in row) if not ints else tuple(row.tolist())
                        for row in np.column_stack([t, marks])]
                locs = [loc[0] if d == 1 else loc for loc in locs]
                pairs = list(zip(locs, rng.integers(1, 4, 30).tolist()))
                path = (compound_path if d > 1 else counting_path)(PointPattern(pairs))
                assert (path.times, path.values) == loop_path(pairs, d > 1)
