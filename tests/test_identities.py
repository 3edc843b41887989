"""The paper's identities between divergences, on random discrete and grid
pairs with zero densities (exact summation paths), and the exact paths
against quadrature of the same pairs written as step densities."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import exact_hellinger
from ppdiv import (DensityPair, DiscreteIntensity, GridIntensity, MarkedModel,
                   PPDivError, SmoothIntensity, bayes_risk_sim, chernoff_info,
                   common_reference, flatten_product, hellinger_measures,
                   hellinger_pp, kl_pp, mc_divergence_estimate, renyi_pp,
                   tsallis, tsallis_product)
from ppdiv.model_io import compile_density

INF = math.inf
_ORDERS = st.one_of(st.sampled_from([0.25, 0.5, 0.999, 1.0, 1.001, 2.0]),
                    st.floats(0.01, 3.0))
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.05, 5.0))
# Weights whose distinct values differ by at least 1/40 relative: the
# direct Hellinger sum loses every digit where two densities nearly agree.
_LATTICE_WEIGHT = st.integers(0, 40).map(lambda k: k / 8.0)


def _weights(draw, n, weight=_WEIGHT):
    return draw(st.lists(weight, min_size=n, max_size=n))


@st.composite
def exact_pairs(draw, weight=_WEIGHT):
    """A discrete pair on overlapping id sets, or a grid pair on one box
    with its own cell count per side (so the reference is a refinement)."""
    if draw(st.booleans()):
        ids_a = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1,
                              max_size=6, unique=True))
        ids_b = draw(st.lists(st.sampled_from("abcdefgh"), min_size=1,
                              max_size=6, unique=True))
        return common_reference(
            DiscreteIntensity(zip(ids_a, _weights(draw, len(ids_a), weight))),
            DiscreteIntensity(zip(ids_b, _weights(draw, len(ids_b), weight))))
    width = draw(st.sampled_from([0.5, 1.0, 1.5, 3.0]))
    n_a, n_b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    return common_reference(
        GridIntensity([(0.0, width)], [n_a], _weights(draw, n_a, weight)),
        GridIntensity([(0.0, width)], [n_b], _weights(draw, n_b, weight)))


def _close(a, b, rel=1e-9, abs_=1e-12):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


class TestPaperIdentities:
    @settings(max_examples=100, deadline=None)
    @given(pair=exact_pairs())
    def test_hellinger_identities(self, pair):
        h = hellinger_measures(pair)
        assert _close(2.0 * h * h, tsallis(pair, 0.5).value)
        assert hellinger_pp(pair) == pytest.approx(
            math.sqrt(-math.expm1(-h * h)), rel=1e-12, abs=1e-15)
        assert kl_pp(pair).value == tsallis(pair, 1.0).value

    @settings(max_examples=200, deadline=None)
    @given(pair=exact_pairs(_LATTICE_WEIGHT), power=st.integers(-60, 60))
    def test_hellinger_matches_the_direct_sum(self, pair, power):
        scale = 2.0 ** power  # exact, so the pair's shape is unchanged
        pair = DensityPair(pair.reference, pair.f * scale, pair.g * scale)
        want = exact_hellinger(pair)
        assert abs(hellinger_measures(pair) - want) <= 1e-13 * want

    @settings(max_examples=100, deadline=None)
    @given(pair=exact_pairs(), alpha=_ORDERS)
    def test_renyi_of_pattern_laws_is_tsallis(self, pair, alpha):
        assert renyi_pp(pair, alpha).value == tsallis(pair, alpha).value

    @settings(max_examples=40, deadline=None)
    @given(pair=exact_pairs())
    def test_chernoff_against_dense_order_grid(self, pair):
        # (1 - a) T_a = sum w (a f + (1 - a) g - f^a g^(1-a)) is concave in
        # a; the grid spans the orders chernoff_info searches, whose ends
        # hold the supremum of a singular pair.
        w, f, g = pair.support_terms()
        a = np.linspace(1e-6, 1.0 - 1e-6, 20001)[:, None]
        grid = (w * (a * f + (1.0 - a) * g
                     - np.power(f, a) * np.power(g, 1.0 - a))).sum(axis=1)
        top = float(grid.max())
        got = chernoff_info(pair).value
        assert top - 1e-10 * (1.0 + top) <= got <= top + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(pair=exact_pairs())
    def test_chernoff_objective_concave(self, pair):
        a = np.linspace(1e-6, 1.0 - 1e-6, 101)
        h = np.array([(1.0 - x) * tsallis(pair, x).value for x in a])
        assert np.all(np.diff(h, 2) <= 1e-12 * (1.0 + np.abs(h).max()))


@st.composite
def marked_discrete_pairs(draw):
    """Two discrete bases on shared ids with discrete marks; kernel rows
    may put zero mass on some marks."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    ids = [f"t{i}" for i in range(n)]
    mark_masses = draw(st.lists(st.floats(0.25, 2.0), min_size=m, max_size=m))
    marks = DiscreteIntensity(zip(range(m), mark_masses))

    def kernel():
        table = {}
        for t in ids:
            row = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.1, 1.0)),
                                min_size=m, max_size=m).filter(any))
            total = sum(r * mw for r, mw in zip(row, mark_masses))
            table[t] = [r / total for r in row]
        return lambda t, x: table[t][x]

    K = MarkedModel(DiscreteIntensity(zip(ids, _weights(draw, n))), marks,
                    kernel())
    L = MarkedModel(DiscreteIntensity(zip(ids, _weights(draw, n))), marks,
                    kernel())
    return common_reference(K.base, L.base), K, L


class TestProductSplit:
    @settings(max_examples=60, deadline=None)
    @given(setup=marked_discrete_pairs(),
           alpha=st.one_of(st.just(0.0), _ORDERS))
    def test_split_matches_flattened_product(self, setup, alpha):
        pair, K, L = setup
        split = tsallis_product(pair, K, L, alpha).value
        flat = tsallis(flatten_product(pair, K, L), alpha).value
        assert _close(split, flat)


# The accuracy QUADPACK is asked for (``QuadratureSpec.abs_tol`` and the
# relative tolerance of ``ppdiv.quadrature``).
_QUAD_TOL = 1e-10


def _step_density(width, values):
    n = len(values)
    return lambda x: values[min(int(x * n / width), n - 1)]


def _within_quadrature(exact, smooth):
    return _close(exact, smooth, rel=_QUAD_TOL, abs_=_QUAD_TOL)


class TestExactAgainstQuadrature:
    @settings(max_examples=20, deadline=None)
    @given(width=st.sampled_from([0.5, 1.0, 1.5, 3.0]),
           a=st.lists(_WEIGHT, min_size=1, max_size=5),
           b=st.lists(_WEIGHT, min_size=1, max_size=5))
    def test_grid_pair_as_step_densities(self, width, a, b):
        # with at most 5 cells a side every refined cell holds a 1-d probe
        # point, so the smooth path finds each infinite integrand
        box = [(0.0, width)]
        exact = common_reference(GridIntensity(box, [len(a)], a),
                                 GridIntensity(box, [len(b)], b))
        smooth = common_reference(SmoothIntensity(box, _step_density(width, a)),
                                  SmoothIntensity(box, _step_density(width, b)))
        for alpha in (0.0, 0.5, 1.0, 2.0):
            assert _within_quadrature(tsallis(exact, alpha).value,
                                      tsallis(smooth, alpha).value)
        assert _within_quadrature(hellinger_measures(exact) ** 2,
                                  hellinger_measures(smooth) ** 2)
        assert _within_quadrature(chernoff_info(exact).value,
                                  chernoff_info(smooth).value)


_CELL_VALUE = st.one_of(st.just(0.0), st.floats(0.5, 4.0))


def _three_classes(values):
    """``values`` on equal cells of [0, 1] as a grid, as a smooth chain of
    ``a if x < e else b``, and as one atom per cell of the cell's mass."""
    k = len(values)
    grid = GridIntensity([(0.0, 1.0)], [k], values)
    expression = repr(values[-1])
    for i in reversed(range(k - 1)):
        expression = f"{values[i]!r} if x < {(i + 1) / k!r} else ({expression})"
    smooth = SmoothIntensity([(0.0, 1.0)], compile_density(expression, ("x",)))
    return grid, smooth, DiscreteIntensity(enumerate(grid.masses.tolist()))


def _outcome(function, *args):
    """The value of ``function(*args)``, or the type of its library error."""
    try:
        return function(*args)
    except PPDivError as exc:
        return type(exc)


class TestThreeClasses:
    """One piecewise-constant measure written as a grid, a smooth density and
    atoms gives the Monte Carlo functions and ``tsallis`` one answer.  With
    at most 8 equal cells every cell holds a probe point, so the smooth
    class sees every zero cell."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(k=st.sampled_from([1, 2, 4, 8]),
           a=st.lists(_CELL_VALUE, min_size=8, max_size=8),
           b=st.lists(_CELL_VALUE, min_size=8, max_size=8))
    @example(k=2, a=[1.0, 2.0] + [0.0] * 6, b=[0.0, 3.0] + [0.0] * 6)
    def test_one_measure_three_classes(self, k, a, b):
        first, second = _three_classes(a[:k]), _three_classes(b[:k])
        for lams, mus in ((first, second), (second, first)):
            pairs = [common_reference(lam, mu) for lam, mu in zip(lams, mus)]
            grid, smooth, atoms = pairs
            for alpha in (0.0, 0.5, 1.0, 2.0):
                exact = tsallis(grid, alpha).value
                assert _close(tsallis(atoms, alpha).value, exact, rel=1e-12, abs_=0.0)
                assert _within_quadrature(exact, tsallis(smooth, alpha).value)
            for alpha in (0.5, 0.75, 1.0, 2.0):
                g, s, d = (_outcome(mc_divergence_estimate, p, alpha, 2_000, 7)
                           for p in pairs)
                assert g == d
                if isinstance(g, type) or isinstance(s, type):
                    assert s is g
                elif alpha in (0.5, 1.0):
                    want = tsallis(grid, alpha).value
                    assert abs(s[0] - want) <= 4.0 * s[1] + _QUAD_TOL * (1.0 + want)
            g, s, d = (_outcome(bayes_risk_sim, p, 0.4, 2, 2_000, 7) for p in pairs)
            assert g == d
            if isinstance(g, type) or isinstance(s, type):
                assert s is g
            else:
                assert abs(s[0] - g[0]) <= 4.0 * math.hypot(s[1], g[1])
