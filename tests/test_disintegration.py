"""Product-form (marked) divergences against explicit product-space
flattening, and the compound-process specialisation."""

import math

import numpy as np
import pytest

from ppdiv import (DiscreteIntensity, GridIntensity, InvalidAlpha,
                   KernelMismatch, MarkedModel, NonDiffuseBase,
                   SmoothIntensity, ZeroMarkAtom, common_reference,
                   compound_renyi, flatten_product, renyi_pp, tsallis,
                   tsallis_product)

INF = math.inf
MARKED_KL = 0.5 * math.log(4.0 / 3.0)  # pmf (1/2,1/2) against (1/4,3/4)


def _pmf_kernel(table):
    """Location-independent discrete kernel from a mark->probability map."""
    return lambda t, x: table[x]


def single_atom_setup():
    base = DiscreteIntensity([("a", 1.0)])
    marks = DiscreteIntensity([("m1", 1.0), ("m2", 1.0)])
    K = MarkedModel(base, marks, _pmf_kernel({"m1": 0.5, "m2": 0.5}))
    L = MarkedModel(base, marks, _pmf_kernel({"m1": 0.25, "m2": 0.75}))
    return common_reference(base, base), K, L


class TestTsallisProduct:
    def test_equal_kernels_collapse_exactly(self):
        pair, K, _ = single_atom_setup()
        for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
            assert tsallis_product(pair, K, K, alpha).value == \
                tsallis(pair, alpha).value

    def test_single_atom_kl(self):
        pair, K, L = single_atom_setup()
        value = tsallis_product(pair, K, L, 1.0).value
        assert value == pytest.approx(MARKED_KL, abs=1e-12)
        flat = flatten_product(pair, K, L)
        assert tsallis(flat, 1.0).value == pytest.approx(value, abs=1e-12)

    def test_mark_term_weighted_by_shared_support(self):
        # base densities (1, 0) on both sides: kernels may differ at the
        # dead atom without contributing anything
        base_a = DiscreteIntensity([("a", 1.0), ("b", 0.0)])
        base_b = DiscreteIntensity([("a", 1.0), ("b", 0.0)])
        pair = common_reference(base_a, base_b)
        marks = DiscreteIntensity([("m1", 1.0), ("m2", 1.0)])
        K = MarkedModel(base_a, marks, _pmf_kernel({"m1": 0.5, "m2": 0.5}))
        L = MarkedModel(
            base_b, marks,
            lambda t, x: {"m1": 0.5, "m2": 0.5}[x] if t == "a"
            else {"m1": 0.1, "m2": 0.9}[x])
        assert tsallis_product(pair, K, L, 0.5).value == 0.0

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0, 2.0])
    def test_flattening_equivalence_randomised(self, alpha):
        rng = np.random.default_rng(42 + int(alpha * 4))
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 5))
            ids = [f"t{i}" for i in range(n)]
            wa = rng.uniform(0.0, 3.0, n)
            wb = rng.uniform(0.0, 3.0, n)
            if rng.uniform() < 0.3:
                wa[rng.integers(n)] = 0.0
            base_a = DiscreteIntensity(tuple(zip(ids, wa)))
            base_b = DiscreteIntensity(tuple(zip(ids, wb)))
            marks = DiscreteIntensity(tuple((f"m{j}", 1.0) for j in range(m)))

            def random_kernel():
                rows = {}
                for t in ids:
                    p = rng.dirichlet(np.ones(m))
                    if rng.uniform() < 0.25 and m > 1:
                        p[rng.integers(m)] = 0.0
                        p = p / p.sum()
                    rows[t] = {f"m{j}": p[j] for j in range(m)}
                return lambda t, x: rows[t][x]

            K = MarkedModel(base_a, marks, random_kernel())
            L = MarkedModel(base_b, marks, random_kernel())
            pair = common_reference(base_a, base_b)
            split = tsallis_product(pair, K, L, alpha).value
            flat = tsallis(flatten_product(pair, K, L), alpha).value
            if math.isinf(split) or math.isinf(flat):
                assert split == flat
            else:
                assert abs(split - flat) <= 1e-10

    def test_mark_term_never_decreases(self):
        rng = np.random.default_rng(77)
        base = DiscreteIntensity([("a", 2.0), ("b", 1.0)])
        marks = DiscreteIntensity([("m0", 1.0), ("m1", 1.0), ("m2", 1.0)])
        pair = common_reference(base, base)
        for _ in range(20):
            rows_k = {t: rng.dirichlet(np.ones(3)) for t in ("a", "b")}
            rows_l = {t: rng.dirichlet(np.ones(3)) for t in ("a", "b")}
            K = MarkedModel(base, marks,
                            lambda t, x, r=rows_k: r[t][int(x[1])])
            L = MarkedModel(base, marks,
                            lambda t, x, r=rows_l: r[t][int(x[1])])
            for alpha in (0.25, 0.5, 1.0):
                assert tsallis_product(pair, K, L, alpha).value >= \
                    tsallis(pair, alpha).value - 1e-12

    def test_mismatched_mark_references_rejected(self):
        base = DiscreteIntensity([("a", 1.0)])
        K = MarkedModel(base, DiscreteIntensity([("m1", 1.0), ("m2", 1.0)]),
                        _pmf_kernel({"m1": 0.5, "m2": 0.5}))
        L = MarkedModel(base, DiscreteIntensity([("z1", 1.0), ("z2", 1.0)]),
                        _pmf_kernel({"z1": 0.5, "z2": 0.5}))
        pair = common_reference(base, base)
        with pytest.raises(KernelMismatch):
            tsallis_product(pair, K, L, 0.5)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_kernel_read_only_on_its_own_base(self, alpha):
        # the first kernel is a table over its own base {a}; the pair also
        # holds b, where the first density is 0 and so is the mark weight
        marks = DiscreteIntensity([("m1", 1.0), ("m2", 1.0)])
        rows_k = {"a": {"m1": 0.5, "m2": 0.5}}
        rows_l = {"a": {"m1": 0.25, "m2": 0.75}, "b": {"m1": 0.9, "m2": 0.1}}
        base_a = DiscreteIntensity([("a", 1.0)])
        base_b = DiscreteIntensity([("a", 1.0), ("b", 2.0)])
        K = MarkedModel(base_a, marks, lambda t, x: rows_k[t][x])
        L = MarkedModel(base_b, marks, lambda t, x: rows_l[t][x])
        pair = common_reference(base_a, base_b)
        value = tsallis_product(pair, K, L, alpha).value
        assert math.isfinite(value)
        # flattening reads the first kernel only where the first density is
        # positive, so it needs no row at b
        flat = tsallis(flatten_product(pair, K, L), alpha).value
        assert value == pytest.approx(flat, abs=1e-12)
        # and any kernel row at b flattens to the same product pair
        rows_k["b"] = {"m1": 1.0, "m2": 0.0}
        flat = tsallis(flatten_product(pair, K, L), alpha).value
        assert value == pytest.approx(flat, abs=1e-12)

    def test_mark_term_past_the_float_range_is_inf(self):
        # each atom's order-1 mark term is finite, their sum is not
        base = DiscreteIntensity([("a", 1e308), ("b", 1e308)])
        marks = DiscreteIntensity([("m1", 1.0), ("m2", 1.0)])
        K = MarkedModel(base, marks, _pmf_kernel({"m1": 0.5, "m2": 0.5}))
        L = MarkedModel(base, marks, _pmf_kernel({"m1": 0.01, "m2": 0.99}))
        pair = common_reference(base, base)
        rep = tsallis_product(pair, K, L, 1.0)
        assert rep.value == INF
        assert rep.notes == ["mark term infinite on positive mass"]
        assert tsallis(flatten_product(pair, K, L), 1.0).value == INF

    def test_grid_base_product(self):
        base = GridIntensity([(0, 1)], [4], [1.0] * 4)
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        K = MarkedModel(base, marks, _pmf_kernel({"u": 1.0, "v": 0.0}))
        L = MarkedModel(base, marks, _pmf_kernel({"u": 0.5, "v": 0.5}))
        pair = common_reference(base, base)
        value = tsallis_product(pair, K, L, 1.0).value
        assert value == pytest.approx(math.log(2.0), abs=1e-12)


class TestCompound:
    def unit_event_pair(self):
        base = GridIntensity([(0, 1)], [1], [1.0])
        return base, common_reference(base, base)

    def test_equal_kernels_reduce_to_event_divergence(self):
        base, pair = self.unit_event_pair()
        marks = DiscreteIntensity([(1.0, 1.0), (-1.0, 1.0)])
        K = MarkedModel(base, marks, lambda t, x: 0.5)
        for alpha in (0.5, 1.0, 2.0):
            assert compound_renyi(pair, K, K, alpha).value == \
                renyi_pp(pair, alpha).value

    def test_pure_mark_information(self):
        base, pair = self.unit_event_pair()
        marks = DiscreteIntensity([(1.0, 1.0), (-1.0, 1.0)])
        K = MarkedModel(base, marks, lambda t, x: 1.0 if x == 1.0 else 0.0)
        L = MarkedModel(base, marks, lambda t, x: 0.5)
        rep = compound_renyi(pair, K, L, 1.0)
        assert rep.value == pytest.approx(math.log(2.0), abs=1e-12)
        assert any("mark information" in n for n in rep.notes)

    def test_reduces_to_event_kl(self):
        base2 = GridIntensity([(0, 1)], [1], [2.0])
        base1 = GridIntensity([(0, 1)], [1], [1.0])
        pair = common_reference(base2, base1)
        marks = DiscreteIntensity([(1.0, 1.0), (-1.0, 1.0)])
        K2 = MarkedModel(base2, marks, lambda t, x: 0.5)
        K1 = MarkedModel(base1, marks, lambda t, x: 0.5)
        assert compound_renyi(pair, K2, K1, 1.0).value == pytest.approx(
            2.0 * math.log(2.0) - 1.0, abs=1e-12)

    def test_discrete_base_rejected(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = DiscreteIntensity([(1.0, 1.0)])
        K = MarkedModel(base, marks, lambda t, x: 1.0)
        pair = common_reference(base, base)
        with pytest.raises(NonDiffuseBase):
            compound_renyi(pair, K, K, 1.0)

    def test_zero_mark_atom_rejected(self):
        base, pair = self.unit_event_pair()
        marks = DiscreteIntensity([(0.0, 1.0), (1.0, 1.0)])
        K = MarkedModel(base, marks, lambda t, x: 0.5)
        with pytest.raises(ZeroMarkAtom):
            compound_renyi(pair, K, K, 1.0)

    def test_positive_order_required(self):
        base, pair = self.unit_event_pair()
        marks = DiscreteIntensity([(1.0, 1.0)])
        K = MarkedModel(base, marks, lambda t, x: 1.0)
        with pytest.raises(InvalidAlpha):
            compound_renyi(pair, K, K, 0.0)

    def test_infinite_event_divergence_short_circuits(self):
        ep = common_reference(GridIntensity([(0, 1)], [2], [1.0, 1.0]),
                              GridIntensity([(0, 1)], [2], [1.0, 0.0]))
        marks = DiscreteIntensity([(1.0, 1.0), (-1.0, 1.0)])
        K = MarkedModel(GridIntensity([(0, 1)], [2], [1.0, 1.0]), marks,
                        lambda t, x: 0.5)
        rep = compound_renyi(ep, K, K, 2.0)
        assert rep.value == INF
        assert any("infinite" in n for n in rep.notes)

    def test_smooth_event_base(self):
        lam = SmoothIntensity([(0, 1)], lambda x: 1.0 + x)
        mu = SmoothIntensity([(0, 1)], lambda x: 1.0)
        pair = common_reference(lam, mu)
        marks = DiscreteIntensity([(1.0, 1.0), (2.0, 1.0)])
        K = MarkedModel(lam, marks, lambda t, x: 0.7 if x == 1.0 else 0.3)
        L = MarkedModel(mu, marks, lambda t, x: 0.5)
        rep = compound_renyi(pair, K, L, 1.0)
        base_kl = tsallis(pair, 1.0).value
        mark_kl = (0.7 * math.log(1.4) + 0.3 * math.log(0.6))
        # mark term integrates KL(K_t || L_t) against lambda(dt), mass 1.5
        expected = base_kl + 1.5 * mark_kl
        assert rep.value == pytest.approx(expected, abs=1e-8)
