"""The vectorised Gauss-Kronrod integrator: values against QUADPACK, the
failure contract, array integrands, probe points and the batched probe
checks."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from ppdiv import (DiscreteIntensity, MarkedModel, PointPattern,
                   QuadratureFailure, SmoothIntensity, common_reference,
                   count, quadrature, tsallis)
from ppdiv.divergence import _require_ac
from ppdiv.extended import ext_muls
from ppdiv.model_io import compile_density
from ppdiv.quadrature import (QuadratureSpec, _wynn_epsilon, integrate_box,
                              integrate_segments, probe_points)

INF = math.inf
SPEC = QuadratureSpec()
PEAK_MASS = 1.7089815403622


class _Counted:
    """Array integrand wrapper counting calls and evaluated nodes."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = self.nodes = 0

    def __call__(self, *cols):
        self.calls += 1
        self.nodes += cols[0].size
        return self.fn(*cols)


class TestRegressions:
    def test_narrow_peak_is_right_or_raises(self):
        model = SmoothIntensity(
            [(0.0, 1.0)],
            compile_density("1 + 200*exp(-((x-0.3001)/2e-3)**2)", ("x",)))
        try:
            mass = model.total_mass()
        except QuadratureFailure:
            return
        assert abs(mass - PEAK_MASS) <= 1e-8

    def test_divergent_half_line_mass_is_infinite_quickly(self):
        density = _Counted(compile_density("1 + exp(-x)", ("x",)))
        assert SmoothIntensity([(0.0, INF)], density).total_mass() == INF
        assert density.nodes < 15 * 100

    def test_divergent_half_line_raises_possibly_infinite(self):
        counted = _Counted(lambda x: 1.0 + np.exp(-x))
        with pytest.raises(QuadratureFailure, match="probably divergent") as info:
            integrate_box(counted, [(0.0, INF)], SPEC)
        assert info.value.possibly_infinite
        assert counted.calls < 10

    @pytest.mark.parametrize("expression", ["1", "1/(1+x)", "1/(2+x)", "x**0.5"])
    def test_divergent_tails_stay_within_quadpack_reach(self, expression):
        reach = []
        density = compile_density(expression, ("x",))

        def fn(x):
            reach.append(float(x.max()))
            return density(x)

        with pytest.raises(QuadratureFailure, match="probably divergent"):
            integrate_box(fn, [(0.0, INF)], SPEC)
        # qagi evaluated exp(-x/1e5) out to x = 4.9e8
        assert max(reach) < 4.92e8

    @pytest.mark.parametrize("expression, mass", [
        ("(1+x)**-1.02", 50.0),
        ("(1+x)**-1.1", 10.0),
        ("(2+x)**-1.05", 20.0 * 2.0 ** -0.05),
        ("(1+x)**-1.5 + exp(-x)", 3.0),
        ("1/(1+x*x)", math.pi / 2.0),
    ])
    def test_slow_power_tail_is_extrapolated(self, expression, mass):
        density = _Counted(compile_density(expression, ("x",)))
        got = SmoothIntensity([(0.0, INF)], density).total_mass()
        assert abs(got - mass) <= 1e-10 * mass
        assert density.calls <= 12

    @pytest.mark.parametrize("density", [
        compile_density("exp(x/1e5)", ("x",)),
        compile_density("x**40", ("x",)),
        compile_density("1e-300*x**300", ("x",)),
        lambda x: math.exp(x / 1e5),
    ])
    def test_growing_density_has_infinite_mass(self, density):
        assert SmoothIntensity([(0.0, INF)], density).total_mass() == INF

    def test_overflow_is_a_density_error_and_an_overflow(self):
        density = compile_density("exp(x)", ("x",))
        for error in (FloatingPointError, OverflowError):
            with pytest.raises(error, match="overflow"):
                density(np.array([1.0, 800.0]))
        with pytest.raises(FloatingPointError, match="invalid"):
            compile_density("sqrt(x - 2)", ("x",))(np.array([1.0]))

    def test_sum_past_the_float_range_is_a_quadrature_failure(self):
        # every panel value is finite; their sum, 1.2e309, is not
        with pytest.raises(QuadratureFailure, match="overflows") as info:
            SmoothIntensity([(0.0, 80.0)], lambda x: 1.5e307 + 0.0 * x).total_mass()
        assert info.value.possibly_infinite

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_overflow_at_a_probe_is_a_quadrature_failure(self, alpha):
        # the half-line probes reach x = 0.1 * 2^23, where x**60 overflows;
        # from order 1 the pair's probe read sees it before any node does
        pair = common_reference(
            *(SmoothIntensity([(0.0, INF)], compile_density(e, ("x",)))
              for e in ("x**60", "1")))
        for call in (lambda: tsallis(pair, alpha), lambda: _require_ac(pair)):
            with pytest.raises(QuadratureFailure, match="overflow") as info:
                call()
            assert info.value.possibly_infinite

    @pytest.mark.parametrize("scale", [1.0, 100.0, 1e4])
    def test_slow_exponential_tail_converges(self, scale):
        value, err = integrate_box(lambda x: np.exp(-x / scale), [(0.0, INF)], SPEC)
        assert abs(value - scale) <= 1e-9 * scale
        assert err <= 1e-10 * scale

    @pytest.mark.parametrize("axis", [0, 1])
    def test_planar_step_density(self, axis):
        counted = _Counted(lambda *x: np.where(x[axis] < 0.6, 1.0, 0.0))
        value, err = integrate_box(counted, [(0.0, 1.0), (0.0, 2.0)], SPEC)
        assert abs(value - (1.2 if axis == 0 else 0.6)) <= 1e-9
        assert err <= 1e-10
        # boxes are split across the step only: a few per round
        assert counted.nodes < 225 * 200

    def test_planar_step_density_as_scalar_callable(self):
        model = SmoothIntensity([(0.0, 1.0), (0.0, 1.0)],
                                lambda x0, x1: 1.0 if x1 < 0.6 else 0.0)
        assert model.total_mass() == pytest.approx(0.6, abs=1e-9)

    def test_raw_math_density_uses_the_per_point_fallback(self):
        model = SmoothIntensity([(0.0, 1.0)], lambda x: math.exp(-x))
        assert model.total_mass() == pytest.approx(1.0 - math.exp(-1.0),
                                                   abs=1e-12)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureFailure) as info:
            integrate_box(lambda x: 1.0 / np.sqrt(x), [(0.0, 1.0)],
                          QuadratureSpec(max_subdivisions=20))
        assert info.value.possibly_infinite

    def test_integrable_endpoint_singularity(self):
        value, _ = integrate_box(lambda x: 1.0 / np.sqrt(x), [(0.0, 1.0)], SPEC)
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(QuadratureFailure, match="not finite"):
            integrate_box(lambda x: np.where(x > 0.5, np.inf, 1.0), [(0.0, 1.0)], SPEC)

    def test_empty_interval(self):
        assert integrate_box(lambda x: x, [(1.0, 1.0)], SPEC) == (0.0, 0.0)

    def test_unbounded_box_rejected(self):
        with pytest.raises(ValueError):
            integrate_box(lambda x, y: x, [(0.0, INF), (0.0, 1.0)], SPEC)


class TestHalfLineStart:
    """A half-line on a budget of at least 32 panels starts from the initial
    panels of a bounded interval, the tail box [0, 1/8] in s, so a smooth
    tail settles in a round or two."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """The panel count of each rule pass of every run."""
        passes = []
        rules = quadrature._Adaptive._rules

        def counted(self, lo, width):
            passes.append(len(lo))
            return rules(self, lo, width)

        monkeypatch.setattr(quadrature._Adaptive, "_rules", counted)
        return passes

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_tsallis_orders_settle_in_one_round(self, passes, alpha):
        pair = common_reference(
            *(SmoothIntensity([(0.0, INF)], compile_density(e, ("x",)))
              for e in ("1 + exp(-x)", "1")))
        tsallis(pair, alpha)
        assert passes == [8]

    def test_exponential_settles_in_two_rounds(self, passes):
        value, _ = integrate_box(lambda x: np.exp(-x), [(0.0, INF)], SPEC)
        assert value == pytest.approx(1.0, rel=1e-13)
        assert passes[0] == 8 and len(passes) <= 2

    @pytest.mark.parametrize("expression, lo, budget, want", [
        ("exp(-x)", 0.0, 1, None),
        ("exp(-x)", 0.0, 3, None),
        ("exp(-x)", 0.0, 5, 1.0),
        ("exp(-x)", 1.875, 5, math.exp(-1.875)),
        ("(1+x)**-2", 0.0, 1, 1.0),
        ("(1+x)**-2", 0.0, 3, 1.0),
        ("(1+x)**-2", 1.875, 1, None),
        ("(1+x)**-2", 1.875, 3, 1.0 / 2.875),
        ("1/(1+x*x)", 0.0, 5, None),
        ("1/(1+x*x)", 1.875, 3, math.atan2(1.0, 1.875)),
        # each of these ran out of panels from the eight-panel start
        ("exp(-x)", 0.0, 8, 1.0),
        ("x*exp(-x)", 0.0, 11, 1.0),
        ("(1+x)**-1.02", 0.0, 12, 50.0),
        ("(1+x)**-1.1", 1.875, 16, 10.0 * 2.875 ** -0.1),
        ("exp(-x/1e4)", 0.0, 22, None),
        ("exp(-x/1e4)", 0.0, 23, 1e4),
        ("exp(-x/1e4)", 1.875, 31, 1e4 * math.exp(-1.875e-4)),
    ])
    def test_small_budget_starts_from_one_panel(self, passes, expression, lo,
                                                budget, want):
        # a budget below 32 panels keeps the one-panel start, with the
        # values and failures it had
        density = compile_density(expression, ("x",))
        spec = QuadratureSpec(max_subdivisions=budget)
        if want is None:
            with pytest.raises(QuadratureFailure, match=f"{budget} subdivisions"):
                integrate_box(density, [(lo, INF)], spec)
        else:
            value, _ = integrate_box(density, [(lo, INF)], spec)
            assert value == pytest.approx(want, rel=1e-10)
        assert passes[0] == 1

    @pytest.mark.parametrize("expression, lo, want", [
        ("exp(-x/1e4)", 1.875, 1e4 * math.exp(-1.875e-4)),
        ("(1+x)**-1.1", 1.875, 10.0 * 2.875 ** -0.1),
    ])
    def test_budget_of_32_starts_from_eight_panels(self, passes, expression, lo, want):
        density = compile_density(expression, ("x",))
        value, _ = integrate_box(density, [(lo, INF)], QuadratureSpec(max_subdivisions=32))
        assert value == pytest.approx(want, rel=1e-10)
        assert passes[0] == 8

    @pytest.mark.parametrize("budget", [1, 2, 3, 5, 6, 7, 8])
    def test_bounded_start_takes_the_budget(self, passes, budget):
        # a bounded interval starts from as many of the initial panels as
        # the budget holds, so a peak at the midpoint settles on budget 6
        gauss = compile_density("exp(-4*(x - 2)**2)", ("x",))
        spec = QuadratureSpec(max_subdivisions=budget)
        if budget < 6:
            with pytest.raises(QuadratureFailure, match=f"{budget} subdivisions"):
                integrate_box(gauss, [(0.0, 4.0)], spec)
        else:
            value, _ = integrate_box(gauss, [(0.0, 4.0)], spec)
            assert value == pytest.approx(math.sqrt(math.pi) / 2 * math.erf(4.0), rel=1e-10)
        assert passes[0] == budget


class TestSegments:
    """One adaptive run over break points gives each segment's integral."""

    def test_segments_against_quadpack(self):
        fn = lambda x: 1.0 + np.exp(-np.abs(x - 2.5)) + np.sqrt(x)
        edges = [0.0, 0.5, 0.5, 1.0, 2.0, 4.0, 7.25]
        values, errors = integrate_segments(fn, edges, SPEC)
        assert values[1] == errors[1] == 0.0
        assert sum(errors) <= max(SPEC.abs_tol, 1e-10 * abs(sum(values)))
        for (lo, hi), value in zip(zip(edges, edges[1:]), values):
            want = integrate.quad(fn, lo, hi, points=[2.5] if lo < 2.5 < hi else None,
                                  epsabs=1e-13, epsrel=1e-13)[0] if hi > lo else 0.0
            assert value == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_one_segment_is_integrate_box(self):
        fn = lambda x: np.sin(3.0 * x) + 2.0
        value, error = integrate_box(fn, [(0.25, 3.0)], SPEC)
        assert integrate_segments(fn, [0.25, 3.0], SPEC) == ([value], [error])

    def test_one_call_per_round(self):
        counted = _Counted(lambda x: np.exp(-x))
        values, _ = integrate_segments(counted, np.arange(9.0), SPEC)
        assert counted.calls == 1
        np.testing.assert_allclose(values, np.exp(-np.arange(8.0)) * (1 - math.exp(-1)),
                                   rtol=1e-13)

    def test_budget_counts_panels_past_one_per_segment(self):
        # 40 segments start from 40 panels, past a budget of 20, and the
        # kink at 2.5 still splits
        fn = lambda x: np.exp(-np.abs(x - 2.5))
        values, _ = integrate_segments(fn, np.arange(41.0), QuadratureSpec(max_subdivisions=20))
        want = 2.0 - math.exp(-2.5) - math.exp(-37.5)
        assert math.fsum(values) == pytest.approx(want, rel=0.0, abs=1e-10)

    @pytest.mark.parametrize("edges", [[0.0, INF], [1.0, 0.5], [0.0, math.nan]])
    def test_bad_edges_rejected(self, edges):
        with pytest.raises(ValueError):
            integrate_segments(lambda x: x, edges, SPEC)


class TestRows:
    """A ``(rows, n)`` integrand is integrated in one run, each row to its
    own tolerance."""

    @pytest.mark.parametrize("rows, bounds", [
        # rows that differ in scale and smoothness
        ((lambda x: 1e6 * (2.0 + np.sin(3.0 * x)),
          lambda x: np.exp(-np.abs(x - 0.3001))), [(0.0, 1.0)]),
        ((lambda x: 1e4 * np.exp(-x / 30.0), lambda x: (1.0 + x) ** -2.5),
         [(0.0, INF)]),
        # each row varies along one axis only, so a box must be cut across
        # the axis of its worst row
        ((lambda x, y: 1e6 * (1.0 + 0.5 * np.cos(20.0 * x)),
          lambda x, y: 1.0 + 0.5 * np.cos(20.0 * y)), [(0.0, 1.0), (0.0, 1.0)]),
    ])
    def test_rows_match_one_run_each(self, rows, bounds):
        values, errors = integrate_box(
            lambda *x: np.stack([np.broadcast_to(r(*x), x[0].shape) for r in rows]),
            bounds, SPEC)
        for row, value, error in zip(rows, values, errors):
            alone, _ = integrate_box(row, bounds, SPEC)
            tol = max(SPEC.abs_tol, 1e-10 * abs(alone))
            assert error <= tol
            assert abs(value - alone) <= 2.0 * tol

    @pytest.mark.parametrize("fn, bounds, want", [
        (lambda x: np.sin(3.0 * x) + 2.0, [(0.25, 3.0)],
         (6.0476063769195, 6.714191843525951e-14)),
        (lambda x: np.exp(-x / 30.0), [(0.0, INF)], (30.0, 1.0088508929404653e-09)),
        (lambda x: (1.0 + x) ** -1.02, [(1.875, INF)],
         (48.95502169361146, 1.010001076468946e-09)),
        (lambda x, y: 1.0 + np.cos(3.0 * x + 2.0 * y) * np.exp(-x * y),
         [(0.0, 1.0), (0.0, 2.0)], (1.4879868124367421, 9.263308313834823e-14)),
    ])
    def test_one_row_is_the_scalar_run(self, fn, bounds, want):
        # pinned from the integrator before it took rows
        assert integrate_box(fn, bounds, SPEC) == want
        assert integrate_box(lambda *x: fn(*x)[None], bounds, SPEC) == (
            [want[0]], [want[1]])

    @pytest.mark.parametrize("second, bounds, spec, match", [
        (lambda x: 1.0 + np.exp(-x), [(0.0, INF)], SPEC, "probably divergent"),
        (lambda x: 1.0 / np.sqrt(x), [(0.0, 1.0)], QuadratureSpec(max_subdivisions=8),
         "subdivisions"),
    ])
    def test_one_failing_row_fails_the_run(self, second, bounds, spec, match):
        with pytest.raises(QuadratureFailure, match=match) as info:
            integrate_box(lambda x: np.stack([np.exp(-x), second(x)]), bounds, spec)
        assert info.value.possibly_infinite
        assert len(info.value.value) == len(info.value.error_estimate) == 2

    def test_empty_domains_give_zero_rows(self):
        rows = lambda x: np.stack([x, 2.0 * x, 3.0 * x])
        assert integrate_box(rows, [(1.0, 1.0)], SPEC) == ([0.0] * 3, [0.0] * 3)
        assert integrate_segments(rows, [2.0, 2.0, 2.0], SPEC) == (
            [[0.0] * 2] * 3, [[0.0] * 2] * 3)

    def test_segment_rows_match_one_run_each(self):
        rows = (lambda x: 1e6 * (2.0 + np.cos(10.0 * x)), lambda x: np.exp(-np.abs(x - 2.5)))
        edges = [0.0, 1.0, 1.0, 2.25, 4.0, 5.0]
        values, errors = integrate_segments(lambda x: np.stack([r(x) for r in rows]),
                                            edges, SPEC)
        for row, value, error in zip(rows, values, errors):
            alone, _ = integrate_segments(row, edges, SPEC)
            tol = max(SPEC.abs_tol, 1e-10 * abs(math.fsum(alone)))
            assert math.fsum(error) <= tol
            np.testing.assert_allclose(value, alone, rtol=0.0, atol=2.0 * tol)

    @pytest.mark.parametrize("n_seg", [1, 2, 20_000])
    def test_segments_match_one_box_each(self, n_seg):
        # cos(10 x) needs two or more panels on most unit segments
        fn = lambda x: 2.0 + np.cos(10.0 * x)
        spec = QuadratureSpec(max_subdivisions=100_000)
        edges = np.arange(n_seg + 1.0)
        values, errors = integrate_segments(fn, edges, spec)
        assert math.fsum(errors) <= max(spec.abs_tol, 1e-10 * math.fsum(values))
        for lo, hi, value, error in zip(edges, edges[1:], values, errors):
            alone, alone_err = integrate_box(fn, [(lo, hi)], spec)
            assert abs(value - alone) <= error + alone_err


def _family(kind, a, b, c):
    """A smooth positive function as (numpy form, math form)."""
    if kind == "decay":
        return (lambda x: a + b * np.exp(-c * x),
                lambda x: a + b * math.exp(-c * x))
    if kind == "wave":
        return (lambda x: a + b * np.sin(c * x) ** 2,
                lambda x: a + b * math.sin(c * x) ** 2)
    if kind == "bump":
        return (lambda x: a + b * np.exp(-((x - 1.0) * c) ** 2),
                lambda x: a + b * math.exp(-((x - 1.0) * c) ** 2))
    return (lambda x: a + b * x ** 4 / (1.0 + c * x * x),
            lambda x: a + b * x ** 4 / (1.0 + c * x * x))


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["decay", "wave", "bump", "rational"]),
       a=st.floats(0.0, 5.0), b=st.floats(0.0, 50.0), c=st.floats(0.1, 8.0),
       lo=st.floats(-2.0, 2.0), width=st.floats(0.01, 6.0))
def test_bounded_interval_against_quadpack(kind, a, b, c, lo, width):
    fn, scalar = _family(kind, a, b, c)
    hi = lo + width
    got, _ = integrate_box(fn, [(lo, hi)], SPEC)
    want = integrate.quad(scalar, lo, hi, epsabs=1e-13, epsrel=1e-13,
                          limit=500)[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@pytest.mark.parametrize("b, c, d, p, lo", [
    (41.0, 1.75, 1.0, 2.390625, 1.875),
    (35.165622751140475, 3.8039329336120233, 1.9467953162175604,
     2.339315473650026, 0.499353230740577),
])
def test_half_line_extrapolation_is_not_trusted_early(b, c, d, p, lo):
    # the limits at three depths agreed to 4.7e-11 here while the tail was
    # off by 5.6e-10 (11 times the tolerance in the second case)
    got, err = integrate_box(lambda x: b * np.exp(-c * x) + (d + x) ** -p,
                             [(lo, INF)], SPEC)
    want = b / c * math.exp(-c * lo) + (d + lo) ** (1.0 - p) / (p - 1.0)
    assert abs(got - want) <= 1e-10 * (1.0 + want)
    assert abs(got - want) <= max(err, 1e-15 * want)


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.01, 50.0), c=st.floats(0.05, 8.0), p=st.floats(2.0, 4.0),
       lo=st.floats(0.0, 3.0))
def test_half_line_against_quadpack(b, c, p, lo):
    def fn(x):
        return b * np.exp(-c * x) + (1.0 + x) ** -p

    got, _ = integrate_box(fn, [(lo, INF)], SPEC)
    want = integrate.quad(lambda x: b * math.exp(-c * x) + (1.0 + x) ** -p,
                          lo, INF, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.0, 50.0), c=st.floats(0.05, 8.0), d=st.floats(0.5, 4.0),
       p=st.floats(1.02, 2.0), lo=st.floats(0.0, 3.0))
# extrapolated from the whole sequence of ring sums, this tail was off by
# 2.3e-9 with an error estimate of 4.6e-11
@example(b=1.25, c=1.125, d=1.09375, p=1.25, lo=1.09375)
def test_slow_half_line_tails_against_closed_form(b, c, d, p, lo):
    got, _ = integrate_box(lambda x: b * np.exp(-c * x) + (d + x) ** -p,
                           [(lo, INF)], SPEC)
    want = b / c * math.exp(-c * lo) + (d + lo) ** (1.0 - p) / (p - 1.0)
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_wynn_epsilon_is_exact_on_geometric_sums():
    seq = np.cumsum([3.0 * 0.9 ** k + 0.5 ** k for k in range(9)]).tolist()
    assert _wynn_epsilon(seq) == pytest.approx(30.0 + 2.0, rel=1e-12)
    assert _wynn_epsilon([1.0, 2.0, 2.0, 2.0]) == 2.0


@settings(max_examples=20, deadline=None)
@given(a=st.floats(0.1, 3.0), b=st.floats(0.0, 3.0), c=st.floats(0.1, 4.0),
       d=st.floats(0.1, 4.0))
def test_planar_box_against_nested_quadpack(a, b, c, d):
    got, _ = integrate_box(lambda x, y: a + b * np.cos(c * x + d * y),
                           [(0.0, 1.0), (0.0, 2.0)], SPEC)
    want = integrate.dblquad(lambda y, x: a + b * math.cos(c * x + d * y),
                             0.0, 1.0, 0.0, 2.0, epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


class TestProbePoints:
    def test_line_probes_are_distinct_and_inside(self):
        points = probe_points([(0.0, 1.0)])
        xs = [p[0] for p in points]
        assert len(points) == 23 and len(set(xs)) == 23
        assert all(0.0 < x < 1.0 for x in xs)

    def test_box_probes_unchanged(self):
        mids = [(i + 0.5) / 9 for i in range(9)]
        want = list(itertools.product(mids, [2.0 * m for m in mids]))
        np.testing.assert_array_equal(probe_points([(0.0, 1.0), (0.0, 2.0)]), want)


class _CountedDensity:
    def __init__(self, fn):
        self.fn = fn
        self.array_calls = self.scalar_calls = 0

    def __call__(self, *args):
        if isinstance(args[0], np.ndarray):
            self.array_calls += 1
        else:
            self.scalar_calls += 1
        return self.fn(*args)


class TestBatchedProbes:
    def test_domination_probe_is_one_call_per_density(self):
        f = _CountedDensity(compile_density("1 + x", ("x",)))
        g = _CountedDensity(compile_density("2 + x", ("x",)))
        _require_ac(common_reference(SmoothIntensity([(0, 1)], f),
                                     SmoothIntensity([(0, 1)], g)))
        assert (f.array_calls, f.scalar_calls) == (1, 0)
        assert (g.array_calls, g.scalar_calls) == (1, 0)

    def test_mark_kernel_check_is_one_call_per_mark(self):
        kernel = _CountedDensity(compile_density("(1 + 0.3*sin(t)*(x - 2))/3",
                                                 ("t", "x")))
        marks = DiscreteIntensity([(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)])
        MarkedModel(SmoothIntensity([(0, 2)], lambda t: 1.0), marks, kernel)
        assert (kernel.array_calls, kernel.scalar_calls) == (3, 0)


def test_array_product_matches_scalar_convention():
    a = [0.0, 0.0, INF, 2.0, INF, 3.0, 1e200]
    b = [INF, 0.0, 0.0, 0.5, 2.0, INF, 1e200]
    want = [0.0, 0.0, 0.0, 1.0, INF, INF, INF]
    np.testing.assert_array_equal(ext_muls(a, b), want)


class TestWindows:
    def test_planar_box_window(self):
        window = ((0.0, 1.0), (0.0, 2.0))
        eta = PointPattern([((0.5, 1.5), 2), ((1.0, 0.0), 1)], window=window)
        assert count(eta, ((0.0, 1.0), (1.0, 2.0))) == 2
        assert count(eta, window) == 3
        with pytest.raises(ValueError, match=r"\(0\.5, 2\.5\)"):
            PointPattern([((0.5, 1.0), 1), ((0.5, 2.5), 1)], window=window)

    def test_line_window_takes_floats_and_tuples(self):
        eta = PointPattern([(0.25, 1), ((0.75,), 3)], window=(0.0, 1.0))
        assert count(eta, (0.5, 1.0)) == 3
        with pytest.raises(ValueError):
            PointPattern([(0.25, 1), (1.5, 1)], window=(0.0, 1.0))
