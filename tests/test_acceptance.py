"""Acceptance suite: one test per release criterion, each printing a
PASS line with its headline numbers (run with ``pytest -s`` to see them).

Every expected value is either computed by an independent oracle inside
the test (pmf summation, dense grid search, explicit flattening, direct
summation) or is a closed-form constant checked against such an oracle.
"""

import math

import numpy as np
import pytest
from scipy import stats

from helpers import random_discrete_pair, random_grid_pair, renyi_poisson_oracle
from ppdiv import (DiscreteIntensity, GridIntensity, MarkedModel,
                   PointPattern, SmoothIntensity, TruncatedLogLikelihood,
                   bayes_risk_sim, chernoff_info, classify_pp_relation,
                   common_reference, count, dominating_intensity,
                   flatten_product, hellinger_measures, hellinger_pp,
                   mc_divergence_estimate, renyi_poisson, sample_pp,
                   tsallis, tsallis_product, AcRelation)

INF = math.inf
KL_2_1 = 2.0 * math.log(2.0) - 1.0


def test_01_scalar_kernel_vs_oracle():
    """Closed-form Poisson kernel against pmf summation on the full grid."""
    means = (0.0, 0.1, 1.0, 5.0, 10.0)
    orders = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 4.0)
    checked = 0
    for s in means:
        for t in means:
            for alpha in orders:
                closed = renyi_poisson(s, t, alpha)
                oracle = renyi_poisson_oracle(s, t, alpha, tail_tol=1e-14,
                                              max_terms=20_000_000)
                if math.isinf(closed) or math.isinf(oracle):
                    assert closed == oracle, (s, t, alpha)
                else:
                    assert abs(closed - oracle) <= 1e-8, (s, t, alpha)
                checked += 1
    print(f"ACCEPTANCE 1 PASS: kernel matches oracle to 1e-8 on "
          f"{checked} grid points")


def test_02_kl_identity_and_monte_carlo():
    """Doubled against plain Lebesgue on the unit interval."""
    pair = common_reference(GridIntensity([(0, 1)], [1], [2.0]),
                            GridIntensity([(0, 1)], [1], [1.0]))
    value = tsallis(pair, 1.0).value
    assert abs(value - KL_2_1) <= 1e-9
    est, se = mc_divergence_estimate(pair, 1.0, 100_000, seed=9)
    assert abs(est - KL_2_1) <= 3.0 * se
    print(f"ACCEPTANCE 2 PASS: KL={value:.9f} (target {KL_2_1:.9f}), "
          f"MC={est:.6f}±{se:.6f}")


def test_03_hellinger_chain():
    """Order-1/2 identity and the pattern-law Hellinger construction."""
    rng = np.random.default_rng(303)
    for _ in range(100):
        _, _, pair = random_discrete_pair(rng, allow_zeros=True)
        w, f, g = pair.support_terms()
        h2_indep = 0.5 * math.fsum(
            wi * (math.sqrt(fi) - math.sqrt(gi)) ** 2
            for wi, fi, gi in zip(w, f, g))
        assert abs(tsallis(pair, 0.5).value - 2.0 * h2_indep) <= 1e-10
        pp = hellinger_pp(pair)
        assert abs(pp * pp - (1.0 - math.exp(-h2_indep))) <= 1e-12
    print("ACCEPTANCE 3 PASS: T_1/2 = 2H^2 and the pattern-law identity "
          "hold on 100 random discrete pairs")


def _split_grid(model, n_parts):
    edges = model.edges[0]
    parts = []
    for idxs in np.array_split(np.arange(model.shape[0]), n_parts):
        sub_bounds = [(edges[idxs[0]], edges[idxs[-1] + 1])]
        parts.append(GridIntensity(sub_bounds, [len(idxs)],
                                   [model.values[i] for i in idxs]))
    return parts


def _split_discrete(model, n_parts):
    atoms = model.atoms
    return [DiscreteIntensity(tuple(atoms[i] for i in idxs))
            for idxs in np.array_split(np.arange(len(atoms)), n_parts)]


def test_04_property_suite():
    """Monotonicity, skew symmetry, sandwich bounds, triangle inequality,
    and tensorisation on 200 randomized pairs each, zero violations."""
    rng = np.random.default_rng(404)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
    for trial in range(200):
        grid_case = trial % 2 == 1
        if grid_case:
            a, b, pair = random_grid_pair(rng, n_cells=int(rng.integers(4, 9)),
                                          allow_zeros=True)
        else:
            a, b, pair = random_discrete_pair(rng,
                                              n_atoms=int(rng.integers(4, 9)),
                                              allow_zeros=True)

        values = [tsallis(pair, al).value for al in alphas]
        for lo_v, hi_v in zip(values, values[1:]):
            assert lo_v <= hi_v + 1e-10 or (lo_v == INF and hi_v == INF)

        for al in (0.25, 0.5, 0.75):
            lhs = (1.0 - al) * tsallis(pair.swapped(), al).value
            rhs = al * tsallis(pair, 1.0 - al).value
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs + rhs)

        for al, be in ((0.2, 0.6), (0.3, 0.9)):
            t_a, t_b = tsallis(pair, al).value, tsallis(pair, be).value
            assert (al / be) * ((1 - be) / (1 - al)) * t_b <= t_a + 1e-10
            assert t_a <= t_b + 1e-10

        if grid_case:
            third = GridIntensity(a.bounds, a.shape,
                                  tuple(rng.uniform(0.0, 4.0, a.shape[0])))
        else:
            third = DiscreteIntensity(tuple(
                (pid, float(rng.uniform(0.0, 4.0))) for pid, _ in a.atoms))
        h_lm = hellinger_measures(pair)
        h_lx = hellinger_measures(common_reference(a, third))
        h_mx = hellinger_measures(common_reference(b, third))
        assert h_lx <= h_lm + h_mx + 1e-10
        splitter = _split_grid if grid_case else _split_discrete
        for al in (0.5, 1.0, 2.0):
            whole = tsallis(pair, al).value
            for n_parts in (2, 4):
                parts = [
                    tsallis(common_reference(pa, pb), al).value
                    for pa, pb in zip(splitter(a, n_parts),
                                      splitter(b, n_parts))]
                if whole == INF:
                    assert any(p == INF for p in parts)
                else:
                    assert abs(math.fsum(parts) - whole) <= 1e-10
    print("ACCEPTANCE 4 PASS: 200 randomized pairs, zero property "
          "violations at 1e-10")


def test_05_disintegration_vs_flattening():
    """Product-form divergence equals the explicit product-space value."""
    rng = np.random.default_rng(505)
    orders = (0.0, 0.5, 1.0, 2.0)
    for case in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        ids = [f"t{i}" for i in range(n)]
        wa = rng.uniform(0.0, 3.0, n)
        wb = rng.uniform(0.0, 3.0, n)
        if case % 3 == 0:
            wa[rng.integers(n)] = 0.0
        base_a = DiscreteIntensity(tuple(zip(ids, wa)))
        base_b = DiscreteIntensity(tuple(zip(ids, wb)))
        marks = DiscreteIntensity(tuple((f"m{j}", 1.0) for j in range(m)))

        def kernel():
            rows = {}
            for t in ids:
                p = rng.dirichlet(np.ones(m))
                if rng.uniform() < 0.3 and m > 1:
                    p[rng.integers(m)] = 0.0
                    p = p / p.sum()
                rows[t] = dict(zip((f"m{j}" for j in range(m)), p))
            return lambda t, x: rows[t][x]

        K = MarkedModel(base_a, marks, kernel())
        L = MarkedModel(base_b, marks, kernel())
        pair = common_reference(base_a, base_b)
        flat = flatten_product(pair, K, L)
        for alpha in orders:
            split_v = tsallis_product(pair, K, L, alpha).value
            flat_v = tsallis(flat, alpha).value
            if math.isinf(split_v) or math.isinf(flat_v):
                assert split_v == flat_v, (case, alpha)
            else:
                assert abs(split_v - flat_v) <= 1e-10, (case, alpha)
        for alpha in orders:
            assert abs(tsallis_product(pair, K, K, alpha).value
                       - tsallis(pair, alpha).value) <= 1e-12
    print("ACCEPTANCE 5 PASS: 100 product cases match flattening at "
          "orders {0, 1/2, 1, 2}; equal kernels collapse exactly")


def test_06_dominating_intensity_halves_distance():
    rng = np.random.default_rng(606)
    for _ in range(100):
        a, _, pair = random_discrete_pair(rng, allow_zeros=True)
        h_full = hellinger_measures(pair)
        xi = dominating_intensity(pair)
        h_half = hellinger_measures(common_reference(a, xi))
        assert abs(h_half - 0.5 * h_full) <= 1e-12
    print("ACCEPTANCE 6 PASS: H(lambda, xi) = H(lambda, mu)/2 to 1e-12 "
          "on 100 random pairs")


def test_07_sigma_finite_likelihood():
    """Truncation trace stability and unit mean of the exponentiated
    log ratio under the second law."""
    lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0 + math.exp(-x),
                          density_bound=2.0)
    mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0, density_bound=1.0)
    pair = common_reference(lam, mu)
    evaluator = TruncatedLogLikelihood(pair, n_max=30)
    window_model = SmoothIntensity([(0.0, 30.0)], lambda x: 1.0,
                                   density_bound=1.0)
    rng = np.random.default_rng(707)
    n_samples = 10_000
    ratios = np.empty(n_samples)
    worst_gap = 0.0
    for i in range(n_samples):
        eta = sample_pp(window_model, seed=rng)
        result = evaluator.evaluate(eta, tol=0.0)
        trace = dict(result.truncation_trace)
        worst_gap = max(worst_gap, abs(trace[30] - trace[20]))
        ratios[i] = math.exp(trace[30])
    assert worst_gap < 1e-6
    mean = float(np.mean(ratios))
    se = float(np.std(ratios, ddof=1) / math.sqrt(n_samples))
    assert abs(mean - 1.0) <= 3.0 * se
    print(f"ACCEPTANCE 7 PASS: max |l(30)-l(20)| = {worst_gap:.2e}; "
          f"E[exp l] = {mean:.4f}±{se:.4f}")


def test_08_chernoff_exponent():
    """Optimizer against a dense grid, and the desk-scale error exponent
    (the infinite-sample statement itself is out of numeric reach)."""
    pair = common_reference(DiscreteIntensity([("k", 1.0)]),
                            DiscreteIntensity([("k", 4.0)]))
    alphas = np.arange(1e-6, 1.0, 1e-6)
    objective = alphas * 1.0 + (1.0 - alphas) * 4.0 - 4.0 ** (1.0 - alphas)
    c_oracle = float(objective.max())
    result = chernoff_info(pair)
    assert abs(result.value - c_oracle) <= 1e-6
    risk, _ = bayes_risk_sim(pair, 0.5, 20, 1_000_000, seed=7)
    exponent = -math.log(risk) / 20.0
    assert 0.7 * c_oracle <= exponent <= 1.3 * c_oracle
    print(f"ACCEPTANCE 8 PASS: C={result.value:.7f} (oracle {c_oracle:.7f}); "
          f"exponent/C = {exponent / c_oracle:.3f} at n=20")


def test_09_sampler_statistics():
    """Cell means, pairwise correlations, and the restriction property."""
    grid = GridIntensity([(0, 10)], [10], [0.5] * 10)
    reps = 10_000
    counts = np.zeros((reps, 10))
    for r in range(reps):
        eta = sample_pp(grid, seed=r)
        locs = [loc for loc, mult in eta.points for _ in range(mult)]
        counts[r], _ = np.histogram(locs, bins=10, range=(0.0, 10.0))
    se_mean = math.sqrt(0.5 / reps)
    for c in range(10):
        assert abs(counts[:, c].mean() - 0.5) <= 3.0 * se_mean, c
    corr = np.corrcoef(counts.T)
    off_diag = corr[~np.eye(10, dtype=bool)]
    assert np.all(np.abs(off_diag) <= 3.0 / math.sqrt(reps))

    sub_grid = GridIntensity([(0, 2)], [2], [2.0, 1.0])
    observed = np.zeros(12, dtype=int)
    chi_reps = 4_000
    for r in range(chi_reps):
        eta = sample_pp(sub_grid, window=(0.0, 2.0), seed=r)
        observed[min(count(eta, (0.0, 1.0)), 11)] += 1
    pmf = stats.poisson.pmf(np.arange(12), 2.0)
    pmf[-1] = 1.0 - pmf[:-1].sum()
    keep = pmf * chi_reps >= 5
    obs = np.append(observed[keep], observed[~keep].sum())
    exp = np.append(pmf[keep], pmf[~keep].sum()) * chi_reps
    _, p_value = stats.chisquare(obs, exp)
    assert p_value > 0.01
    print(f"ACCEPTANCE 9 PASS: cell means and correlations in band; "
          f"restriction chi-square p = {p_value:.3f}")


def test_10_ac_classification_exhaustive():
    """Every 3-atom pair with weights in {0, 1, 2} against support
    inclusion ground truth."""
    weights = (0.0, 1.0, 2.0)
    ids = ("a", "b", "c")
    cases = 0
    for wa in np.ndindex(3, 3, 3):
        for wb in np.ndindex(3, 3, 3):
            f = [weights[i] for i in wa]
            g = [weights[i] for i in wb]
            pair = common_reference(DiscreteIntensity(tuple(zip(ids, f))),
                                    DiscreteIntensity(tuple(zip(ids, g))))
            verdict = classify_pp_relation(pair)
            fwd = all(gv > 0 for fv, gv in zip(f, g) if fv > 0)
            bwd = all(fv > 0 for fv, gv in zip(f, g) if gv > 0)
            assert verdict.forward_ac == fwd, (f, g)
            assert verdict.backward_ac == bwd, (f, g)
            if fwd and bwd:
                expected = AcRelation.MUTUALLY_AC
            elif fwd or bwd:
                expected = AcRelation.ABSOLUTELY_CONTINUOUS
            elif not any(fv > 0 and gv > 0 for fv, gv in zip(f, g)):
                expected = AcRelation.MUTUALLY_SINGULAR
            else:
                expected = AcRelation.NEITHER
            assert verdict.relation is expected, (f, g)
            cases += 1
    print(f"ACCEPTANCE 10 PASS: {cases} exhaustive pairs match support "
          "inclusion")
