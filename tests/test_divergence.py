"""Divergence operations: worked examples, structural identities over
randomized pairs, and the absolute-continuity diagnostics."""

import math
import sys
import threading

import numpy as np
import pytest

from helpers import random_discrete_pair, random_pair
from ppdiv import (AcRelation, DensityPair, DiscreteIntensity, GridIntensity,
                   InfiniteHellinger, MarkedModel, NotAbsolutelyContinuous,
                   QuadratureFailure, SmoothIntensity, chernoff_info,
                   classify_pp_relation, common_reference, compound_renyi,
                   dominating_intensity, hellinger_measures, hellinger_pp,
                   kl_pp, renyi_poisson, renyi_pp, tsallis,
                   tsallis_sanity_bound, total_mass)
from ppdiv.extended import ext_fsum
from ppdiv.model_io import compile_density
from ppdiv.quadrature import _Adaptive

INF = math.inf
KL_2_1 = 2.0 * math.log(2.0) - 1.0
HSQ_2_1 = 0.5 * (math.sqrt(2.0) - 1.0) ** 2

UNIT_2 = GridIntensity([(0, 1)], [1], [2.0])
UNIT_1 = GridIntensity([(0, 1)], [1], [1.0])


def pair_2_vs_1():
    return common_reference(UNIT_2, UNIT_1)


class TestTsallis:
    def test_equal_pair_vanishes(self):
        a = GridIntensity([(0, 1)], [3], [1.0, 2.0, 0.5])
        assert tsallis(common_reference(a, a), 0.7).value == 0.0

    def test_kl_example(self):
        assert tsallis(pair_2_vs_1(), 1.0).value == pytest.approx(KL_2_1, abs=1e-12)

    def test_order_zero_is_missing_mass(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 0.0)]),
                                DiscreteIntensity([("a", 0.0), ("b", 1.0)]))
        assert tsallis(pair, 0.0).value == 1.0

    def test_smooth_matches_grid(self):
        s2 = SmoothIntensity([(0, 1)], lambda x: 2.0)
        s1 = SmoothIntensity([(0, 1)], lambda x: 1.0)
        rep = tsallis(common_reference(s2, s1), 1.0)
        assert rep.value == pytest.approx(KL_2_1, abs=1e-9)
        assert rep.quadrature_error_estimate < 1e-8

    def test_divergent_smooth_integral_fails_loudly(self):
        s2 = SmoothIntensity([(0.0, INF)], lambda x: 2.0)
        s1 = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        with pytest.raises(QuadratureFailure) as err:
            tsallis(common_reference(s2, s1), 1.0)
        assert err.value.possibly_infinite

    def test_pointwise_infinite_integrand(self):
        # g vanishes on half the domain; at order 2 the integrand is inf there
        s2 = SmoothIntensity([(0, 1)], lambda x: 1.0)
        s1 = SmoothIntensity([(0, 1)], lambda x: 1.0 if x < 0.5 else 0.0)
        rep = tsallis(common_reference(s2, s1), 2.0)
        assert rep.value == INF

    def test_planar_grids(self):
        a = GridIntensity([(0, 1), (0, 2)], [2, 2], [2.0] * 4)
        b = GridIntensity([(0, 1), (0, 2)], [1, 1], [1.0])
        value = tsallis(common_reference(a, b), 1.0).value
        assert value == pytest.approx(2.0 * KL_2_1, abs=1e-12)

    def test_planar_smooth(self):
        s2 = SmoothIntensity([(0, 1), (0, 1)], lambda x, y: 2.0)
        s1 = SmoothIntensity([(0, 1), (0, 1)], lambda x, y: 1.0)
        value = tsallis(common_reference(s2, s1), 1.0).value
        assert value == pytest.approx(KL_2_1, abs=1e-8)


class TestKl:
    def test_example(self):
        assert kl_pp(pair_2_vs_1()).value == pytest.approx(KL_2_1, abs=1e-12)

    def test_equal(self):
        assert kl_pp(common_reference(UNIT_1, UNIT_1)).value == 0.0

    def test_zero_against_positive(self):
        pair = common_reference(DiscreteIntensity([("a", 0.0)]),
                                DiscreteIntensity([("a", 1.0)]))
        assert kl_pp(pair).value == pytest.approx(1.0, abs=1e-12)


class TestRenyi:
    def test_half_order(self):
        pair = common_reference(GridIntensity([(0, 1)], [1], [1.0]),
                                GridIntensity([(0, 1)], [1], [4.0]))
        assert renyi_pp(pair, 0.5).value == pytest.approx(1.0, abs=1e-12)

    def test_infinite_at_order_two(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 1.0)]),
                                DiscreteIntensity([("a", 1.0), ("b", 0.0)]))
        assert renyi_pp(pair, 2.0).value == INF

    def test_equal_any_order(self):
        pair = common_reference(UNIT_2, UNIT_2)
        for alpha in (0.0, 0.3, 1.0, 2.5):
            assert renyi_pp(pair, alpha).value == 0.0

    def test_order_zero_gating_note(self):
        # disjoint infinite-mass-free supports keep T_{1/2} finite: no note
        pair = common_reference(DiscreteIntensity([("a", 1.0)]),
                                DiscreteIntensity([("a", 2.0)]))
        assert renyi_pp(pair, 0.0).notes == []
        # an infinite order-1/2 divergence flags the order-0 equality
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        rep = renyi_pp(common_reference(lam, mu), 0.0)
        assert any("not established" in n for n in rep.notes)


class TestHellinger:
    def test_doubling_example(self):
        h = hellinger_measures(pair_2_vs_1())
        assert h * h == pytest.approx(HSQ_2_1, abs=1e-12)

    def test_equal(self):
        assert hellinger_measures(common_reference(UNIT_1, UNIT_1)) == 0.0

    def test_disjoint_supports(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0)]),
                                DiscreteIntensity([("b", 1.0)]))
        assert hellinger_measures(pair) == pytest.approx(1.0, abs=1e-12)

    def test_pp_chain(self):
        value = hellinger_pp(pair_2_vs_1())
        assert value == pytest.approx(math.sqrt(1.0 - math.exp(-HSQ_2_1)),
                                      abs=1e-12)

    def test_pp_trivial(self):
        assert hellinger_pp(common_reference(UNIT_1, UNIT_1)) == 0.0

    def test_pp_saturates_at_infinite_distance(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        pair = common_reference(lam, mu)
        assert hellinger_measures(pair) == INF
        assert hellinger_pp(pair) == 1.0


class TestHellingerOrdering:
    """The distance reads T_1/2 first; the one-infinite-mass certificate
    only settles a smooth pair whose order-1/2 quadrature fails."""

    def test_exact_pair_with_an_overflowing_mass(self):
        # lambda(S) = 2e308 leaves the float range; H^2 = 1e308 / 2 does not
        pair = common_reference(DiscreteIntensity([("a", 1e308), ("b", 1e308)]),
                                DiscreteIntensity([("a", 1e308), ("b", 0.0)]))
        assert hellinger_measures(pair) == pytest.approx(math.sqrt(0.5e308),
                                                         rel=1e-12)

    def test_finite_distance_computes_no_mass(self):
        # both masses are infinite here; a smooth pair with exactly one
        # infinite mass is TestHellinger.test_pp_saturates_at_infinite_distance
        lam = SmoothIntensity([(0.0, INF)], compile_density("1 + exp(-x)", ("x",)))
        mu = SmoothIntensity([(0.0, INF)], compile_density("1", ("x",)))
        pair = common_reference(lam, mu)
        assert hellinger_measures(pair) < INF
        assert not {"lambda", "mu"} & pair._memo.keys()


class TestOverflowingSums:
    """An exact sum past the float range is inf, not an OverflowError."""

    BIG = DiscreteIntensity([("a", 1e308), ("b", 1e308)])
    ONES = DiscreteIntensity([("a", 1.0), ("b", 1.0)])

    def test_tsallis(self):
        assert tsallis(common_reference(self.BIG, self.ONES), 0.5).value == INF

    def test_masses(self):
        pair = common_reference(self.BIG, self.ONES)
        assert (pair.lambda_mass(), pair.mu_mass()) == (INF, 2.0)
        assert total_mass(self.BIG) == INF
        assert total_mass(GridIntensity([(0, 2)], [2], [1.6e308, 1.6e308])) == INF

    def test_classify(self):
        verdict = classify_pp_relation(common_reference(self.BIG, self.ONES))
        assert (verdict.t0_forward, verdict.t0_backward) == (0.0, 0.0)

    def test_mixed_signs_still_raise(self):
        # such a sum may be finite, so its overflow is not read as inf
        with pytest.raises(OverflowError):
            ext_fsum([1e308, 1e308, -1e308])
        assert ext_fsum([1e308, 1e308]) == INF


class TestPropertyIdentities:
    ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            _, _, pair = random_pair(rng, allow_zeros=True)
            values = [tsallis(pair, a).value for a in self.ALPHAS]
            for lo, hi in zip(values, values[1:]):
                if lo == INF:
                    assert hi == INF
                else:
                    assert hi == INF or lo <= hi + 1e-10

    def test_skew_symmetry(self):
        rng = np.random.default_rng(102)
        for _ in range(60):
            _, _, pair = random_pair(rng, allow_zeros=True)
            for alpha in (0.25, 0.5, 0.75):
                fwd = tsallis(pair.swapped(), alpha).value
                bwd = tsallis(pair, 1.0 - alpha).value
                lhs = (1.0 - alpha) * fwd
                rhs = alpha * bwd
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + lhs + rhs)

    def test_sandwich_bounds(self):
        rng = np.random.default_rng(103)
        for _ in range(60):
            _, _, pair = random_pair(rng, allow_zeros=True)
            for alpha, beta in ((0.2, 0.5), (0.5, 0.9), (0.1, 0.8)):
                t_a = tsallis(pair, alpha).value
                t_b = tsallis(pair, beta).value
                lower = (alpha / beta) * ((1.0 - beta) / (1.0 - alpha)) * t_b
                assert lower <= t_a + 1e-10
                assert t_a <= t_b + 1e-10

    def test_hellinger_tsallis_identity(self):
        rng = np.random.default_rng(104)
        for _ in range(60):
            _, _, pair = random_pair(rng, allow_zeros=True)
            h = hellinger_measures(pair)
            assert abs(tsallis(pair, 0.5).value - 2.0 * h * h) <= 1e-10

    def test_hellinger_symmetry(self):
        rng = np.random.default_rng(105)
        for _ in range(60):
            _, _, pair = random_pair(rng, allow_zeros=True)
            assert abs(tsallis(pair, 0.5).value
                       - tsallis(pair.swapped(), 0.5).value) <= 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(106)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            ids = [f"p{i}" for i in range(n)]
            models = [DiscreteIntensity(tuple(zip(ids, rng.uniform(0, 4, n))))
                      for _ in range(3)]
            lam, mu, xi = models
            h_lx = hellinger_measures(common_reference(lam, xi))
            h_lm = hellinger_measures(common_reference(lam, mu))
            h_mx = hellinger_measures(common_reference(mu, xi))
            assert h_lx <= h_lm + h_mx + 1e-10

    def test_tensorisation(self):
        rng = np.random.default_rng(107)
        for _ in range(40):
            n = 8
            ids = [f"p{i}" for i in range(n)]
            wa = rng.uniform(0, 4, n)
            wb = rng.uniform(0, 4, n)
            whole = common_reference(DiscreteIntensity(tuple(zip(ids, wa))),
                                     DiscreteIntensity(tuple(zip(ids, wb))))
            for alpha in (0.25, 1.0, 2.0):
                target = tsallis(whole, alpha).value
                for n_parts in (2, 4):
                    split = np.array_split(np.arange(n), n_parts)
                    parts = 0.0
                    for idxs in split:
                        sub = common_reference(
                            DiscreteIntensity(tuple((ids[i], wa[i]) for i in idxs)),
                            DiscreteIntensity(tuple((ids[i], wb[i]) for i in idxs)))
                        parts += tsallis(sub, alpha).value
                    assert abs(parts - target) <= 1e-10

    def test_reference_independence(self):
        rng = np.random.default_rng(108)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            ids = [f"p{i}" for i in range(n)]
            f = rng.uniform(0, 4, n)
            g = rng.uniform(0, 4, n)
            ref1 = DiscreteIntensity(tuple((i, 1.0) for i in ids))
            ref2 = DiscreteIntensity(tuple((i, 2.0) for i in ids))
            p1 = DensityPair(ref1, f, g)
            p2 = DensityPair(ref2, f / 2.0, g / 2.0)
            for alpha in (0.0, 0.5, 1.0, 2.0):
                v1 = tsallis(p1, alpha).value
                v2 = tsallis(p2, alpha).value
                assert abs(v1 - v2) <= 1e-12 * (1.0 + v1)


class TestClassification:
    def test_mutually_ac(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 2.0)]),
                                DiscreteIntensity([("a", 2.0), ("b", 1.0)]))
        verdict = classify_pp_relation(pair)
        assert verdict.relation is AcRelation.MUTUALLY_AC
        assert verdict.forward_ac and verdict.backward_ac

    def test_mutually_singular(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 0.0)]),
                                DiscreteIntensity([("a", 0.0), ("b", 1.0)]))
        verdict = classify_pp_relation(pair)
        assert verdict.relation is AcRelation.MUTUALLY_SINGULAR
        assert verdict.t0_forward == pytest.approx(pair.mu_mass(), abs=1e-12)

    def test_one_direction_only(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 1.0)]),
                                DiscreteIntensity([("a", 1.0), ("b", 0.0)]))
        verdict = classify_pp_relation(pair)
        assert verdict.relation is AcRelation.ABSOLUTELY_CONTINUOUS
        assert not verdict.forward_ac  # first law is not dominated
        assert verdict.backward_ac     # second law is
        assert verdict.t0_forward == 0.0
        assert verdict.t0_backward == 1.0

    def test_kakutani_dichotomy_infinite_case(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 2.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        verdict = classify_pp_relation(common_reference(lam, mu))
        assert verdict.relation is AcRelation.MUTUALLY_SINGULAR
        assert verdict.hellinger_sq == INF

    def test_matches_support_inspection(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            a, b, pair = random_discrete_pair(rng, allow_zeros=True)
            fa = dict(a.atoms)
            ga = dict(b.atoms)
            ids = pair.reference.support_locations()
            fwd_truth = all(ga.get(i, 0.0) > 0.0
                            for i in ids if fa.get(i, 0.0) > 0.0)
            bwd_truth = all(fa.get(i, 0.0) > 0.0
                            for i in ids if ga.get(i, 0.0) > 0.0)
            verdict = classify_pp_relation(pair)
            assert verdict.forward_ac == fwd_truth
            assert verdict.backward_ac == bwd_truth


class TestDominatingIntensity:
    def test_equal_pair_returns_same_measure(self):
        pair = common_reference(UNIT_2, UNIT_2)
        xi = dominating_intensity(pair)
        assert total_mass(xi) == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_array_equal(xi.values, [2.0])

    def test_disjoint_atoms(self):
        pair = common_reference(DiscreteIntensity([("a", 4.0)]),
                                DiscreteIntensity([("b", 4.0)]))
        xi = dominating_intensity(pair)
        assert dict(xi.atoms) == {"a": 1.0, "b": 1.0}

    def test_halves_the_distance(self):
        pair = pair_2_vs_1()
        xi = dominating_intensity(pair)
        assert xi.values[0] == pytest.approx(0.25 * (math.sqrt(2) + 1) ** 2,
                                             abs=1e-12)
        ratio = (hellinger_measures(common_reference(UNIT_2, xi))
                 / hellinger_measures(pair))
        assert ratio == pytest.approx(0.5, abs=1e-12)

    def test_requires_finite_distance(self):
        lam = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        mu = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        with pytest.raises(InfiniteHellinger):
            dominating_intensity(common_reference(lam, mu))


class TestMassBound:
    def test_equal_unit_masses(self):
        check = tsallis_sanity_bound(common_reference(UNIT_1, UNIT_1))
        assert check.holds
        assert check.lhs == pytest.approx(1.0)
        assert check.rhs == pytest.approx(4.0)

    def test_doubling(self):
        check = tsallis_sanity_bound(pair_2_vs_1())
        assert check.holds
        assert check.rhs == pytest.approx(4.0 + 6.0 * HSQ_2_1, abs=1e-12)

    def test_heavy_ratio(self):
        pair = common_reference(DiscreteIntensity([("a", 100.0)]),
                                DiscreteIntensity([("a", 1.0)]))
        check = tsallis_sanity_bound(pair)
        assert check.holds
        assert check.hellinger_sq == pytest.approx(40.5, abs=1e-10)
        assert check.rhs == pytest.approx(4.0 + 6.0 * 40.5, abs=1e-9)

    def test_requires_domination(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0)]),
                                DiscreteIntensity([("b", 1.0)]))
        with pytest.raises(NotAbsolutelyContinuous):
            tsallis_sanity_bound(pair)

    def test_random_pairs_satisfy_bound(self):
        rng = np.random.default_rng(110)
        for _ in range(40):
            _, _, pair = random_pair(rng)
            assert tsallis_sanity_bound(pair).holds


def step_pair(second):
    """Smooth constant 5 on [0, 2] against ``second`` there."""
    return common_reference(SmoothIntensity([(0.0, 2.0)], lambda x: 5.0 + 0.0 * x),
                            SmoothIntensity([(0.0, 2.0)], second))


class TestDomination:
    """``DensityPair._undominated`` is the one decision whether the first
    intensity has mass where the second density vanishes."""

    def test_names_the_atom(self):
        pair = common_reference(DiscreteIntensity([("a", 1.0), ("b", 1.0)]),
                                DiscreteIntensity([("a", 2.0), ("b", 0.0)]))
        assert pair._undominated == "b"
        assert pair.swapped()._undominated is None
        with pytest.raises(NotAbsolutelyContinuous, match="near 'b'"):
            tsallis_sanity_bound(pair)

    def test_names_the_cell_centre(self):
        grids = (GridIntensity([(0, 1)], [4], [1.0, 1.0, 1.0, 1.0]),
                 GridIntensity([(0, 1)], [4], [1.0, 1.0, 0.0, 1.0]))
        assert common_reference(*grids)._undominated == 0.625
        dominated = common_reference(*grids[::-1])
        assert dominated._undominated is None
        # a dominated grid pair builds no cell centres
        assert "_centres" not in vars(dominated.reference)

    def test_names_the_probe_point(self):
        pair = step_pair(lambda x: np.where(x < 1.0, 5.0, 0.0))
        # the first probe where g = 0 is the ninth of 17 midpoints, 1 itself
        assert pair._undominated == 2.0 * 8.5 / 17 == 1.0
        assert pair.swapped()._undominated is None

    @pytest.mark.parametrize("second", [
        lambda x: np.where(x < 1.0, 5.0, 0.0), lambda x: 1.0 + x,
        lambda x: np.where(x < 1.0, 5.0, 2.0)], ids=["step-to-0", "linear", "step-to-2"])
    def test_smooth_kl_is_inf_exactly_when_undominated(self, second):
        for pair in (step_pair(second), step_pair(second).swapped()):
            assert (tsallis(pair, 1.0).value == INF) == (pair._undominated is not None)


class TestMemo:
    """A pair memoises its integrals: each is computed once, every caller
    gets a report of its own, and a used pair reads as a fresh one."""

    MARKS = DiscreteIntensity([("u", 1.0), ("v", 1.0)])

    def smooth(self, second="2 - x*x"):
        models = [SmoothIntensity([(0.0, 1.0)], compile_density(e, ("x",)))
                  for e in ("1 + x", second)]
        K = MarkedModel(models[0], self.MARKS, lambda t, x: 0.5)
        L = MarkedModel(models[1], self.MARKS,
                        lambda t, x: 0.25 if x == "u" else 0.75)
        return models, K, L

    def everything(self, pair, K, L):
        return ([tsallis(pair, a).value for a in (0.0, 0.5, 1.0, 2.0)]
                + [hellinger_measures(pair), pair.lambda_mass(), pair.mu_mass(),
                   compound_renyi(pair, K, L, 0.5).value,
                   tsallis(pair.swapped(), 0.0).value]
                + list(vars(classify_pp_relation(pair)).values()))

    def test_notes_are_not_shared(self):
        (a, b), K, L = self.smooth()
        pair = common_reference(a, b)
        for _ in range(2):
            assert kl_pp(pair).notes == ["kullback-leibler (order-1) divergence"]
        assert tsallis(pair, 1.0).notes == []
        compound_renyi(pair, K, L, 1.0)
        assert tsallis(pair, 1.0).notes == []

    def test_infinite_base_notes_are_not_shared(self):
        # the second density vanishes on [0.5, 1], so order 2 is inf
        (a, b), K, L = self.smooth("(x < 0.5) * 1.0")
        pair = common_reference(a, b)
        notes = tsallis(pair, 2.0).notes
        assert compound_renyi(pair, K, L, 2.0).value == INF
        assert tsallis(pair, 2.0).notes == notes == [
            "integrand infinite at probe points"]

    def test_used_pair_reads_as_fresh(self):
        models, K, L = self.smooth()
        used = common_reference(*models)
        first = self.everything(used, K, L)
        assert self.everything(used, K, L) == first
        assert self.everything(common_reference(*models), K, L) == first

    def test_exact_pair_reads_as_fresh(self):
        a, b, pair = random_discrete_pair(np.random.default_rng(7))
        values = [tsallis(pair, 0.5).value, pair.lambda_mass(), pair.mu_mass()]
        assert values == [tsallis(pair, 0.5).value, pair.lambda_mass(),
                          pair.mu_mass()]
        fresh = common_reference(a, b)
        assert values == [tsallis(fresh, 0.5).value, fresh.lambda_mass(),
                          fresh.mu_mass()]

    def test_each_integral_runs_once(self, monkeypatch):
        runs = []
        run = _Adaptive.run
        monkeypatch.setattr(_Adaptive, "run",
                            lambda self: runs.append(self) or run(self))
        (a, b), K, L = self.smooth()
        pair = common_reference(a, b)
        for alpha in (0.0, 0.5, 1.0, 2.0):
            tsallis(pair, alpha)
        hellinger_measures(pair)
        classify_pp_relation(pair)
        compound_renyi(pair, K, L, 0.5)
        # four orders, two masses, the backward order 0 and the mark term
        assert len(runs) <= 8
        runs.clear()
        for alpha in (0.0, 0.5, 1.0, 2.0):
            tsallis(pair, alpha)
        hellinger_measures(pair)
        classify_pp_relation(pair)
        assert runs == []

    def test_failures_run_once(self, monkeypatch):
        # 1 against 2 on a half-line: the order-1/2 quadrature diverges
        runs = []
        run = _Adaptive.run
        monkeypatch.setattr(_Adaptive, "run",
                            lambda self: runs.append(self) or run(self))
        pair = common_reference(
            *(SmoothIntensity([(0.0, INF)], compile_density(e, ("x",)))
              for e in ("1", "2")))

        def outcomes():
            out = [classify_pp_relation(pair)]
            for call in (lambda: tsallis(pair, 0.5), lambda: chernoff_info(pair)):
                with pytest.raises(QuadratureFailure) as failure:
                    call()
                out.append((str(failure.value), failure.value.possibly_infinite))
            return out

        first = outcomes()
        assert runs
        runs.clear()
        assert outcomes() == first
        assert runs == []
        assert first[1:] == [first[1]] * 2 and first[1][1]

    def test_threads_sharing_a_pair(self):
        # a race on the memo may compute an order twice, never differently,
        # and every caller still owns its report
        a, b, _ = random_discrete_pair(np.random.default_rng(9))
        orders = [0.0, 0.25, 0.5, 1.0, 2.0] * 20
        want = [(tsallis(common_reference(a, b), x).value, 1) for x in orders]
        pair = common_reference(a, b)

        def work(out):
            for x in orders:
                report = tsallis(pair, x)
                report.notes.append("read")
                out.append((report.value, len(report.notes)))

        got = [[] for _ in range(8)]
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8
