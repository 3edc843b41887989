"""Intensity models, the common-reference reduction, point patterns, and
mark kernels."""

import io
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import random_pair
from ppdiv import (DensityPair, DiscreteIntensity, DomainMismatch,
                   GridIntensity, MarkedModel, OutOfWindow, PointPattern,
                   ScaledIntensity, SmoothIntensity, SummedIntensity,
                   common_reference, count, log_lr_finite, sample_marked,
                   sample_pp, total_mass)
from ppdiv.measure import _SNAP_ULPS, _join_axis
from ppdiv.model_io import pattern_from_csv, patterns_to_csv

INF = math.inf


class TestCommonReference:
    def test_disjoint_discrete_supports(self):
        a = DiscreteIntensity([("x", 2.0)])
        b = DiscreteIntensity([("y", 3.0)])
        pair = common_reference(a, b)
        assert pair.reference.support_locations() == ("x", "y")
        np.testing.assert_array_equal(pair.f, [2.0, 0.0])
        np.testing.assert_array_equal(pair.g, [0.0, 3.0])

    def test_grid_refinement_of_constant_density(self):
        a = GridIntensity([(0, 2)], [2], [1.0, 1.0])
        b = GridIntensity([(0, 2)], [1], [2.0])
        pair = common_reference(a, b)
        assert pair.reference.shape == (2,)
        np.testing.assert_array_equal(pair.f, [1.0, 1.0])
        np.testing.assert_array_equal(pair.g, [2.0, 2.0])

    def test_identity_pair(self):
        a = GridIntensity([(0, 1)], [4], [1.0, 2.0, 3.0, 4.0])
        pair = common_reference(a, a)
        np.testing.assert_array_equal(pair.f, pair.g)

    def test_overlapping_grids_extend_with_zeros(self):
        a = GridIntensity([(0, 2)], [2], [1.0, 2.0])
        b = GridIntensity([(1, 3)], [2], [3.0, 4.0])
        pair = common_reference(a, b)
        assert pair.reference.bounds == ((0.0, 3.0),)
        assert pair.reference.shape == (3,)
        np.testing.assert_array_equal(pair.f, [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(pair.g, [0.0, 3.0, 4.0])

    def test_disjoint_grid_boxes_rejected(self):
        a = GridIntensity([(0, 1)], [1], [1.0])
        b = GridIntensity([(2, 3)], [1], [1.0])
        with pytest.raises(DomainMismatch):
            common_reference(a, b)

    def test_class_mismatch_rejected(self):
        a = DiscreteIntensity([("x", 1.0)])
        b = GridIntensity([(0, 1)], [1], [1.0])
        with pytest.raises(DomainMismatch):
            common_reference(a, b)

    def test_incommensurate_grids_pair_on_the_join(self):
        a = GridIntensity([(0, 1)], [3], [1.0, 2.0, 3.0])
        b = GridIntensity([(0, math.sqrt(2))], [1], [1.0])
        pair = common_reference(a, b)
        np.testing.assert_array_equal(pair.reference.edges[0],
                                      [0.0, 1 / 3, 2 / 3, 1.0, math.sqrt(2)])
        np.testing.assert_array_equal(pair.f, [1.0, 2.0, 3.0, 0.0])
        np.testing.assert_array_equal(pair.g, [1.0, 1.0, 1.0, 1.0])
        assert pair.lambda_mass() == pytest.approx(2.0, rel=1e-15)
        assert pair.mu_mass() == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_roundtrip_masses(self):
        # integrating each density against the reference reproduces the
        # per-cell/atom masses of the inputs
        rng = np.random.default_rng(5)
        a = GridIntensity([(0, 2)], [4], tuple(rng.uniform(0, 3, 4)))
        b = GridIntensity([(0, 2)], [6], tuple(rng.uniform(0, 3, 6)))
        pair = common_reference(a, b)
        ref = pair.reference
        w = ref.masses
        assert math.fsum(w * np.asarray(pair.f)) == pytest.approx(
            total_mass(a), abs=1e-12)
        assert math.fsum(w * np.asarray(pair.g)) == pytest.approx(
            total_mass(b), abs=1e-12)
        for centre, fv in zip(ref.support_locations(), pair.f):
            assert fv == pytest.approx(a.density_at(centre), abs=1e-12)

    def test_smooth_pair_shares_domain(self):
        a = SmoothIntensity([(0, 1)], lambda x: 2.0)
        b = SmoothIntensity([(0, 2)], lambda x: 1.0)
        with pytest.raises(DomainMismatch):
            common_reference(a, b)


def _random_axis_pair(rng):
    """Two overlapping axis grids ``(lo, hi, n)`` with offsets, partial
    overlap, shared edges and edges that agree only up to float noise, or
    both far from the origin (near 1.7e9, as epoch seconds are)."""
    # Far from the origin the two grids' edges are kept apart: merging two
    # edges there moves a model's mass by their float noise, far above the
    # 1e-12 the mass checks ask for.
    shift = float(rng.choice([0.0, 0.0, 1.7e9]))
    while True:
        axes = []
        for _ in range(2):
            lo = float(rng.choice([0.0, 0.1, -0.3, rng.uniform(-2.0, 1.0)]))
            if shift:
                lo = shift + rng.uniform(-2.0, 1.0)
            hi = lo + float(rng.choice([0.6, 1.0, rng.uniform(0.2, 3.0)]))
            axes.append((lo, hi, int(rng.integers(1, 13))))
        (a_lo, a_hi, _), (b_lo, b_hi, _) = axes
        ea, eb = (np.linspace(lo, hi, n + 1) for lo, hi, n in axes)
        if (min(a_hi, b_hi) > max(a_lo, b_lo)
                and (not shift or np.abs(np.subtract.outer(ea, eb)).min() > 1e-4)):
            return axes


def _check_join(a, b):
    pair = common_reference(a, b)
    ref = pair.reference
    for model, dens in ((a, pair.f), (b, pair.g)):
        lo, hi = np.array(model.bounds).T
        for centre, value in zip(ref.cell_centers(), dens):
            if ((centre > lo) & (centre < hi)).all():
                assert value == model.density_at(centre)
            else:
                assert value == 0.0
    assert pair.lambda_mass() == pytest.approx(a.total_mass(), rel=1e-12)
    assert pair.mu_mass() == pytest.approx(b.total_mass(), rel=1e-12)
    for n, n_a, n_b in zip(ref.shape, a.shape, b.shape):
        assert n <= n_a + n_b + 1
    # the reference box is the hull of both boxes, so it holds their points
    assert ref.bounds == tuple((min(x[0], y[0]), max(x[1], y[1]))
                               for x, y in zip(a.bounds, b.bounds))


def _fraction_axis_map(join_edges, model_edges):
    """Cell-by-cell reference for ``_join_axis``: each join cell's centre,
    in exact rational arithmetic, located among the model's cells; -1 below
    the model's box and its cell count above it."""
    m = [Fraction(float(x)) for x in model_edges]
    out = np.empty(len(join_edges) - 1, dtype=int)
    for r in range(len(join_edges) - 1):
        centre = (Fraction(float(join_edges[r])) + Fraction(float(join_edges[r + 1]))) / 2
        if centre < m[0]:
            out[r] = -1
        elif centre > m[-1]:
            out[r] = len(m) - 1
        else:
            out[r] = next(k for k in range(len(m) - 1) if m[k] < centre < m[k + 1])
    return out


class TestIntegerRefinement:
    def test_axis_map_matches_fraction_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            ea, eb = (np.linspace(lo, hi, n + 1) for lo, hi, n in _random_axis_pair(rng))
            edges, cells_a, cells_b = _join_axis(ea, eb)
            # join edges are model edges, and each model edge is (up to
            # float noise) a join edge
            assert (np.diff(edges) > 0).all()
            assert np.isin(edges, np.concatenate([ea, eb])).all()
            tol = _SNAP_ULPS * np.spacing(max(abs(edges[0]), abs(edges[-1])))
            for e in (ea, eb):
                assert (np.abs(e[:, None] - edges[None, :]).min(axis=1) <= tol).all()
            np.testing.assert_array_equal(cells_a, _fraction_axis_map(edges, ea))
            np.testing.assert_array_equal(cells_b, _fraction_axis_map(edges, eb))

    def test_two_dimensional_refinement_matches_fraction_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            axes_a, axes_b = zip(*(_random_axis_pair(rng) for _ in range(2)))
            grids = []
            for axes in (axes_a, axes_b):
                shape = [n for _, _, n in axes]
                grids.append(GridIntensity([(lo, hi) for lo, hi, _ in axes],
                                           shape,
                                           rng.uniform(0, 3, math.prod(shape))))
            pair = common_reference(*grids)
            edges = pair.reference.edges
            for model, dens in ((grids[0], pair.f), (grids[1], pair.g)):
                maps = [_fraction_axis_map(j, e) for j, e in zip(edges, model.edges)]
                padded = np.pad(model.values_array, [(0, 1)] * model.ndim)
                want = padded[np.ix_(*maps)]
                np.testing.assert_array_equal(dens, want.reshape(-1))


class TestGridJoin:
    def test_refined_densities_match_models(self):
        rng = np.random.default_rng(11)
        # edges that differ by float noise, inside and at the top of the join
        pairs = [((0.1, 0.7, 6), (0.0, 1.0, 10)), ((0.0, 0.3, 3), (0.1, 0.1 + 0.2, 2))]
        pairs += [_random_axis_pair(rng) for _ in range(150)]
        for axis_a, axis_b in pairs:
            a, b = (GridIntensity([(lo, hi)], [n], rng.uniform(0, 3, n))
                    for lo, hi, n in (axis_a, axis_b))
            _check_join(a, b)
        for _ in range(40):
            axes_a, axes_b = zip(*(_random_axis_pair(rng) for _ in range(2)))
            a, b = (GridIntensity([(lo, hi) for lo, hi, _ in axes],
                                  [n for _, _, n in axes],
                                  rng.uniform(0, 3, math.prod(n for _, _, n in axes)))
                    for axes in (axes_a, axes_b))
            _check_join(a, b)

    def test_float_noise_edges_are_one_edge(self):
        a = GridIntensity([(0.1, 0.7)], [6], np.ones(6))
        b = GridIntensity([(0.0, 1.0)], [10], np.ones(10))
        pair = common_reference(a, b)
        assert pair.reference.shape == (10,)
        np.testing.assert_array_equal(pair.f, [0.0] + [1.0] * 6 + [0.0] * 3)

    def test_offset_axes_keep_every_cell(self):
        # 1e-3 cells on an axis at 1.7e9 (epoch seconds) are about 4000
        # float spacings wide
        lo = 1.7e9
        a = GridIntensity([(lo, lo + 1)], [1000], np.arange(1000) % 7 + 1.0)
        b = GridIntensity([(lo, lo + 1)], [500], np.arange(500) % 3 + 1.0)
        pair = common_reference(a, b)
        assert pair.reference.shape == (1000,)
        np.testing.assert_array_equal(pair.f, a.values)
        np.testing.assert_array_equal(pair.g, np.repeat(b.values, 2))
        np.testing.assert_allclose(pair.reference.masses * pair.f, a.masses, rtol=1e-12)
        np.testing.assert_allclose((pair.reference.masses * pair.g).reshape(-1, 2).sum(1),
                                   b.masses, rtol=1e-12)
        assert pair.lambda_mass() == pytest.approx(a.total_mass(), rel=1e-12)
        assert pair.mu_mass() == pytest.approx(b.total_mass(), rel=1e-12)
        _check_join(a, b)
        _check_join(a, GridIntensity([(lo + 0.2, lo + 1.7)], [7], np.ones(7)))

    def test_cells_within_float_noise_of_the_joint_axis_rejected(self):
        # at 1e12 a float spacing is 1.2e-4, so 1e-3 cells cannot be told
        # from a neighbour's edge plus noise
        a = GridIntensity([(1e12, 1e12 + 1)], [1000], np.ones(1000))
        b = GridIntensity([(1e12, 1e12 + 1)], [501], np.ones(501))
        with pytest.raises(DomainMismatch, match="too narrow"):
            common_reference(a, b)
        # one partition's cells must survive the other's coarser axis scale
        c = GridIntensity([(0, 1e-3)], [1000], np.ones(1000))
        with pytest.raises(DomainMismatch, match="too narrow"):
            common_reference(c, GridIntensity([(0, 1e12)], [2], np.ones(2)))

    def test_cells_narrower_than_float_spacing_rejected(self):
        # edges 1e16 + 0.5 k round onto each other
        with pytest.raises(ValueError, match="too narrow"):
            GridIntensity([(1e16, 1e16 + 2)], [4], np.ones(4))

    def test_join_over_budget_allocates_nothing(self):
        a = GridIntensity([(0, 1), (0, 1)], [1500, 1], np.ones(1500))
        b = GridIntensity([(0, 1), (0, 1)], [1, 1500], np.ones(1500))
        tracemalloc.start()
        try:
            with pytest.raises(DomainMismatch, match="cell budget"):
                common_reference(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestArrayModels:
    def test_values_are_read_only_float_arrays(self):
        source = np.array([1.0, 2.0])
        grid = GridIntensity([(0, 1)], [2], source)
        source[0] = 9.0
        assert grid.values.dtype == np.float64
        np.testing.assert_array_equal(grid.values, [1.0, 2.0])
        with pytest.raises(ValueError):
            grid.values[0] = 3.0
        pair = common_reference(grid, grid)
        for dens in (pair.f, pair.g):
            assert dens.dtype == np.float64 and not dens.flags.writeable

    def test_equality_and_hash_by_value(self):
        a = GridIntensity([(0, 1)], [2], [0.0, 2.0])
        b = GridIntensity([(0, 1)], [2], (-0.0, 2.0))
        assert a == b and hash(a) == hash(b)
        assert a != GridIntensity([(0, 1)], [2], [1.0, 2.0])
        assert a != GridIntensity([(0, 2)], [2], [0.0, 2.0])
        pa, pb = common_reference(a, a), common_reference(b, b)
        assert pa == pb and hash(pa) == hash(pb)
        assert pa.swapped() == pa
        assert pa != common_reference(a, GridIntensity([(0, 1)], [2], [1.0, 2.0]))
        sa = SmoothIntensity([(0, 1)], lambda x: 1.0 + x)
        sb = SmoothIntensity([(0, 1)], lambda x: 2.0)
        assert common_reference(sa, sb) == common_reference(sa, sb)
        assert common_reference(sa, sb) != common_reference(sb, sa)

    def test_marked_models_compare_mark_references(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = GridIntensity([(0, 1)], [2], [1.0, 1.0])
        k = MarkedModel(base, marks, lambda t, x: 1.0)
        same = GridIntensity([(0, 1)], [2], np.ones(2))
        assert k.mark_reference == same
        assert hash(k.mark_reference) == hash(same)

    def test_bulk_validation(self):
        for bad in ([1.0, -1.0], [1.0, INF], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                GridIntensity([(0, 1)], [2], bad)
            with pytest.raises(ValueError):
                DensityPair(DiscreteIntensity([("a", 1.0), ("b", 1.0)]),
                            bad, [1.0, 1.0])


def _dict_union(a, b):
    """The per-id-dict union of two discrete models: ``a``'s ids, then
    ``b``'s new ones, with each model's weights (zero where absent)."""
    ids = [pid for pid, _ in a.atoms]
    seen = set(ids)
    for pid, _ in b.atoms:
        if pid not in seen:
            ids.append(pid)
            seen.add(pid)
    wa, wb = dict(a.atoms), dict(b.atoms)
    return ids, [wa.get(pid, 0.0) for pid in ids], [wb.get(pid, 0.0) for pid in ids]


def _dict_sum(parts):
    merged: dict = {}
    for part in parts:
        for pid, w in part.atoms:
            merged[pid] = merged[pid] + w if pid in merged else w
    return merged


_ATOMS = st.dictionaries(st.one_of(st.sampled_from("abcdef"), st.integers(0, 5)),
                         st.one_of(st.just(0.0), st.floats(0.01, 9.0)),
                         max_size=7)


class TestAlignedSupports:
    @settings(max_examples=60, deadline=None)
    @given(a=_ATOMS.filter(bool), b=_ATOMS.filter(bool))
    def test_discrete_reference_matches_dict_union(self, a, b):
        a, b = DiscreteIntensity(a), DiscreteIntensity(b)
        ids, fa, fb = _dict_union(a, b)
        pair = common_reference(a, b)
        assert list(pair.reference.support_locations()) == ids
        np.testing.assert_array_equal(pair.reference.weights, np.ones(len(ids)))
        np.testing.assert_array_equal(pair.f, fa)
        np.testing.assert_array_equal(pair.g, fb)

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(_ATOMS, min_size=1, max_size=4))
    def test_discrete_sum_matches_dict_merge(self, parts):
        models = [DiscreteIntensity(p) for p in parts]
        flat = SummedIntensity(models).flattened()
        want = _dict_sum(models)
        assert flat.ids == tuple(want)
        np.testing.assert_array_equal(flat.weights, list(want.values()))

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(
        st.tuples(st.sampled_from([0.0, 0.5]), st.sampled_from([1.5, 2.0, 3.0]),
                  st.lists(st.one_of(st.just(0.0), st.floats(0.01, 9.0)),
                           min_size=1, max_size=5)),
        min_size=1, max_size=3))
    def test_grid_sum_matches_parts_cell_by_cell(self, parts):
        models = [GridIntensity([(lo, hi)], [len(v)], v) for lo, hi, v in parts]
        flat = SummedIntensity(models).flattened()
        want = []
        for c in flat.support_locations():
            total = 0.0
            for m in models:
                lo, hi = m.bounds[0]
                total += m.density_at(c) if lo <= c <= hi else 0.0
            want.append(total)
        np.testing.assert_array_equal(flat.values, want)

    def test_exact_models_expose_masses(self):
        grid = GridIntensity([(0, 1), (0, 2)], [2, 4], np.arange(8.0))
        np.testing.assert_array_equal(grid.masses, np.arange(8.0) * 0.25)
        assert not grid.masses.flags.writeable
        assert grid.support_locations() is grid.support_locations()
        assert grid.support_locations()[1] == (0.25, 0.75)
        atoms = DiscreteIntensity([("a", 2.0), ("b", 0.0)])
        assert atoms.masses is atoms.weights
        assert atoms == DiscreteIntensity({"a": 2.0, "b": -0.0})
        assert hash(atoms) == hash(DiscreteIntensity({"a": 2.0, "b": -0.0}))
        assert atoms != DiscreteIntensity({"b": 0.0, "a": 2.0})

    @pytest.mark.parametrize("bad", [-1.0, INF, math.nan])
    def test_bad_atom_weights_rejected(self, bad):
        with pytest.raises(ValueError, match="atom weights"):
            DiscreteIntensity([("a", 1.0), ("b", bad)])
        with pytest.raises(ValueError, match="unique"):
            DiscreteIntensity([("a", 1.0), ("a", 2.0)])


class TestTotalMass:
    def test_discrete(self):
        assert total_mass(DiscreteIntensity([("x", 2.0), ("y", 3.0)])) == 5.0

    def test_grid(self):
        assert total_mass(GridIntensity([(0, 2)], [2], [1.0, 3.0])) == 4.0

    def test_smooth_sigma_finite(self):
        lebesgue = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        assert total_mass(lebesgue) == INF

    def test_truncation_sequence_has_finite_mass(self):
        for n in (1, 5, 30):
            box = SmoothIntensity([(0.0, float(n))], lambda x: 1.0)
            assert total_mass(box) == pytest.approx(
                float(n), abs=1e-10)

    def test_smooth_finite(self):
        m = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        assert total_mass(m) == pytest.approx(1.0, abs=1e-9)

    @given(c=st.floats(min_value=0.0, max_value=50.0))
    def test_scale(self, c):
        m = DiscreteIntensity([("x", 2.0), ("y", 3.0)])
        assert total_mass(ScaledIntensity(c, m)) == pytest.approx(
            c * total_mass(m), rel=1e-12)

    def test_scale_of_infinite(self):
        lebesgue = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        assert total_mass(ScaledIntensity(2.0, lebesgue)) == INF
        assert total_mass(ScaledIntensity(0.0, lebesgue)) == 0.0

    def test_sum_extended(self):
        lebesgue = SmoothIntensity([(0.0, INF)], lambda x: 1.0)
        decaying = SmoothIntensity([(0.0, INF)], lambda x: math.exp(-x))
        assert total_mass(SummedIntensity([lebesgue, decaying])) == INF

    def test_sum_matches_parts(self):
        parts = [DiscreteIntensity([("x", 1.0), ("y", 2.0)]),
                 DiscreteIntensity([("y", 0.5), ("z", 1.5)])]
        s = SummedIntensity(parts)
        assert total_mass(s) == pytest.approx(5.0, abs=1e-12)
        flat = s.flattened()
        assert dict(flat.atoms) == {"x": 1.0, "y": 2.5, "z": 1.5}

    def test_sum_rejects_mixed_classes(self):
        with pytest.raises(DomainMismatch):
            SummedIntensity([DiscreteIntensity([("x", 1.0)]),
                             GridIntensity([(0, 1)], [1], [1.0])])

    def test_smooth_combinators_flatten(self):
        doubled = ScaledIntensity(
            2.0, SmoothIntensity([(0, 1)], lambda x: x)).flattened()
        assert doubled.density(0.5) == 1.0
        summed = SummedIntensity(
            [SmoothIntensity([(0, 1)], lambda x: 1.0),
             SmoothIntensity([(0, 1)], lambda x: 2.0)]).flattened()
        assert summed.density(0.3) == 3.0
        assert total_mass(summed) == pytest.approx(3.0, abs=1e-10)


class TestPointPattern:
    def test_count_interval(self):
        eta = PointPattern([(0.3, 1), (0.7, 1)])
        assert count(eta, (0.0, 0.5)) == 1

    def test_count_empty(self):
        assert count(PointPattern(()), (0.0, 1.0)) == 0

    def test_count_multiplicity(self):
        eta = PointPattern([(0.3, 2)])
        assert count(eta, (0.0, 1.0)) == 2

    def test_out_of_window(self):
        eta = PointPattern([(0.3, 1)], window=(0.0, 1.0))
        with pytest.raises(OutOfWindow):
            count(eta, (0.0, 2.0))

    def test_discrete_regions(self):
        eta = PointPattern([("a", 2), ("b", 1)], window=frozenset("abc"))
        assert count(eta, {"a"}) == 2
        assert count(eta, {"a", "b"}) == 3
        with pytest.raises(OutOfWindow):
            count(eta, {"z"})

    @pytest.mark.parametrize("eta, region", [
        (PointPattern([(0.3, 1)], window=(0.0, 1.0)), {"a"}),
        (PointPattern([("a", 1)], window=frozenset("ab")), (0.0, 1.0)),
    ])
    def test_region_of_the_other_kind_is_out_of_window(self, eta, region):
        with pytest.raises(OutOfWindow):
            count(eta, region)

    def test_window_containment_enforced(self):
        with pytest.raises(ValueError):
            PointPattern([(1.5, 1)], window=(0.0, 1.0))

    def test_positive_multiplicity(self):
        with pytest.raises(ValueError):
            PointPattern([(0.5, 0)])

    @pytest.mark.parametrize("mult", [2.9, 2.0, "2", None])
    def test_multiplicities_are_integers(self, mult):
        with pytest.raises(ValueError):
            PointPattern([(0.5, 1), (0.3, mult)])


# The pattern kinds of the property test below: atom ids with the weights
# of two discrete models, and boxes with two smooth densities.
_ATOMS = {"str": {"a": (1.0, 2.0), "b": (2.0, 1.0), "c": (0.5, 1.5), "d": (3.0, 0.25)},
          "int": {0: (1.0, 2.0), 1: (2.0, 1.0), 2: (0.5, 1.5), 7: (3.0, 0.25)}}
_BOXES = {"1d": ((0.0, 1.0),), "2d": ((0.0, 1.0), (0.0, 2.0))}
_DENSITIES = {"1d": (lambda x: 1.0 + x, lambda x: 2.0 - x),
              "2d": (lambda x0, x1: 1.0 + x0 * x1, lambda x0, x1: 1.0 + x0)}
_PAIRS = {**{k: common_reference(*(DiscreteIntensity({i: w[j] for i, w in atoms.items()})
                                   for j in (0, 1)))
             for k, atoms in _ATOMS.items()},
          **{k: common_reference(*(SmoothIntensity(_BOXES[k], d) for d in _DENSITIES[k]))
             for k in _BOXES}}


@st.composite
def _patterns(draw):
    """``(kind, pairs, window)``: pairs of string or int ids, 1-d floats or
    2-d float tuples with multiplicities 1 to 3, and no window or one
    holding every point."""
    kind = draw(st.sampled_from(["str", "int", "1d", "2d"]))
    if kind in _ATOMS:
        loc = st.sampled_from(sorted(_ATOMS[kind]))
    else:
        axes = [st.floats(lo, hi) for lo, hi in _BOXES[kind]]
        loc = axes[0] if kind == "1d" else st.tuples(*axes)
    pairs = draw(st.lists(st.tuples(loc, st.integers(1, 3)), max_size=12))
    window = None
    if draw(st.booleans()):
        window = frozenset([*_ATOMS[kind], "z"]) if kind in _ATOMS else _BOXES[kind]
    return kind, pairs, window


class TestPatternArrays:
    """Patterns held as arrays against the tuple path they replaced, which
    kept the pairs as given and summed over them point by point."""

    @settings(max_examples=200, deadline=None)
    @given(_patterns())
    @example(("str", [("a", 2), ("c", 1), ("a", 3)], None))
    @example(("int", [(7, 1), (0, 3)], frozenset([0, 1, 2, 7, "z"])))
    @example(("1d", [(0.0, 1), (1.0, 2), (0.5, 3), (0.5, 1)], ((0.0, 1.0),)))
    @example(("2d", [((0.25, 1.5), 2), ((1.0, 0.0), 1)], None))
    @example(("1d", [], ((0.0, 1.0),)))
    def test_matches_the_tuple_path(self, case):
        kind, pairs, window = case
        eta = PointPattern(pairs, window)
        assert repr(eta.points) == repr(tuple(pairs))
        again = PointPattern(eta.points, eta.window)
        assert again == eta and hash(again) == hash(eta)
        assert len(eta) == eta.total_count() == sum(m for _, m in pairs)

        if kind in _ATOMS:
            region = set(sorted(_ATOMS[kind])[:2])
            inside = [loc in region for loc, _ in pairs]
        else:
            region = ((0.0, 0.5),) + _BOXES[kind][1:]
            inside = [all(lo <= x <= hi for x, (lo, hi) in zip(np.atleast_1d(loc), region))
                      for loc, _ in pairs]
        assert count(eta, region) == sum(m for (_, m), ok in zip(pairs, inside) if ok)

        buf = io.StringIO()
        patterns_to_csv([eta], buf)
        buf.seek(0)
        read = pattern_from_csv(buf, discrete=kind in _ATOMS)
        as_text = str if kind == "int" else (lambda loc: loc)
        assert repr(read.points) == repr(tuple((as_text(loc), m) for loc, m in pairs))

        pair = _PAIRS[kind]
        if kind in _ATOMS:
            f, g = (lambda loc, j=j: _ATOMS[kind][loc][j] for j in (0, 1))
        else:
            f, g = (lambda loc, d=d: d(*np.atleast_1d(loc)) for d in _DENSITIES[kind])
        want = pair.mu_mass() - pair.lambda_mass() + math.fsum(
            m * math.log(f(loc) / g(loc)) for loc, m in pairs)
        assert abs(log_lr_finite(pair, eta).log_lr - want) <= 1e-12 * (1.0 + abs(want))

    def test_sampled_patterns_rebuild_from_their_points(self):
        grid = GridIntensity([(0, 1), (0, 2)], [2, 2], [1.0, 2.0, 3.0, 4.0])
        marked = MarkedModel(GridIntensity([(0, 1)], [1], [6.0]),
                             DiscreteIntensity([("u", 1.0), ("v", 1.0)]), lambda t, x: 0.5)
        for seed in range(5):
            for eta in (sample_pp(grid, window=((0.0, 0.5), (0.0, 2.0)), seed=seed),
                        sample_pp(DiscreteIntensity([("a", 3.0), (1, 2.0)]), seed=seed),
                        sample_pp(SmoothIntensity([(0, 1)], lambda x: 1 + x), seed=seed),
                        sample_marked(marked, seed=seed)):
                assert PointPattern(eta.points, eta.window) == eta
                assert not eta.mult.flags.writeable
                assert eta.coords is None or not eta.coords.flags.writeable


class TestMarkKernel:
    def test_normalised_kernel_accepted(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        MarkedModel(base, marks, lambda t, x: 0.5)

    def test_unnormalised_kernel_rejected(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        with pytest.raises(ValueError):
            MarkedModel(base, marks, lambda t, x: 0.6)

    def test_nan_kernel_rejected(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        with pytest.raises(ValueError, match="probability kernel"):
            MarkedModel(base, marks, lambda t, x: math.nan)

    def test_normalisation_tolerance(self):
        base = DiscreteIntensity([("a", 1.0)])
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        MarkedModel(base, marks, lambda t, x: 0.5 + 4e-11)

    def test_grid_mark_reference(self):
        base = GridIntensity([(0, 1)], [2], [1.0, 1.0])
        marks = GridIntensity([(0, 1)], [4], [1.0] * 4)
        MarkedModel(base, marks, lambda t, x: 1.0)

    def test_planar_smooth_base_probed_at_coordinate_tuples(self):
        base = SmoothIntensity([(0, 1), (0, 1)], lambda x0, x1: 1.0)
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        model = MarkedModel(base, marks,
                            lambda t, x: 0.5 + (0.25 if x == "u" else -0.25) * t[0])
        assert all(len(t) == 2 for t in model._probe_locations())
        with pytest.raises(ValueError, match="probability kernel"):
            MarkedModel(base, marks,
                        lambda t, x: 0.5 if t[1] < 0.5 else 0.7)

    def test_line_smooth_base_probed_at_floats(self):
        base = SmoothIntensity([(0, INF)], lambda x: 1.0)
        marks = DiscreteIntensity([("u", 1.0), ("v", 1.0)])
        model = MarkedModel(base, marks, lambda t, x: 0.5)
        assert all(isinstance(t, float) for t in model._probe_locations())
        # a kernel off only beyond the old [0, 8] probe range is caught
        with pytest.raises(ValueError, match="probability kernel"):
            MarkedModel(base, marks, lambda t, x: 0.5 if t < 20.0 else 0.7)

    def test_negative_kernel_value_rejected(self):
        # the values sum to one over the marks, but mark 2 could never be drawn
        with pytest.raises(ValueError, match="probability kernel at t='a'"):
            MarkedModel(DiscreteIntensity({"a": 50.0}), DiscreteIntensity({1: 1.0, 2: 1.0}),
                        lambda t, x: {1: 1.5, 2: -0.5}[x])

    def test_negative_kernel_value_between_probes_rejected_when_sampled(self):
        # the kernel is 0.5 +- 0.6 only on (0.44, 0.5), between the probes at
        # 0.412 and 0.529: the model is built, but points drawn there refuse it
        base = SmoothIntensity([(0.0, 2.0)], lambda t: 100.0 + 0.0 * t)
        marked = MarkedModel(base, DiscreteIntensity({1: 1.0, 2: 1.0}), lambda t, x: np.where(
            (t > 0.44) & (t < 0.5), 0.5 + (0.6 if x == 1 else -0.6), 0.5))
        with pytest.raises(ValueError, match="probability kernel at t=0.4"):
            sample_marked(marked, seed=1)


class TestDensityPair:
    def test_reference_weights_respected(self):
        # same measures via nu and 2*nu must carry halved densities
        ref1 = DiscreteIntensity([("a", 1.0), ("b", 1.0)])
        ref2 = DiscreteIntensity([("a", 2.0), ("b", 2.0)])
        p1 = DensityPair(ref1, [1.0, 2.0], [2.0, 1.0])
        p2 = DensityPair(ref2, [0.5, 1.0], [1.0, 0.5])
        assert p1.lambda_mass() == p2.lambda_mass() == 3.0

    def test_exact_masses_are_sums_over_the_reference(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            _, _, pair = random_pair(rng, allow_zeros=True)
            masses = pair.reference.masses
            assert pair.lambda_mass() == math.fsum((masses * pair.f).tolist())
            assert pair.mu_mass() == math.fsum((masses * pair.g).tolist())

    def test_infinite_density_rejected(self):
        ref = DiscreteIntensity([("a", 1.0)])
        with pytest.raises(ValueError):
            DensityPair(ref, [INF], [1.0])

    def test_grid_boundary_tie_break(self):
        grid = GridIntensity([(0, 2)], [2], [1.0, 5.0])
        # interior boundary points belong to the lower-index cell
        assert grid.density_at(1.0) == 1.0
        assert grid.density_at(1.0 + 1e-12) == 5.0
        assert grid.density_at(2.0) == 5.0
