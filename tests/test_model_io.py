"""Compiled densities on arrays against the ``math`` reference in
``helpers``, and the smooth paths that call a density once per array of
points: thinning, its bound probe and pattern log-ratios."""

import ast
import io
import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ppdiv
from helpers import math_density
from ppdiv import (DiscreteIntensity, MarkedModel, ParseError, PointPattern,
                   SmoothIntensity, ThinningBoundMissing, common_reference,
                   log_lr_finite, mc_divergence_estimate, sample_pp)
from ppdiv.divergence import _require_ac
from ppdiv.measure import SummedIntensity, density_values
from ppdiv.model_io import (_EXPR_NAMES, compile_density, load_pattern,
                            model_from_dict, model_ids, pattern_from_csv,
                            patterns_to_csv)

# One expression per allowed name, nonnegative and finite on [0, 1.5].
NAME_CASES = {
    "exp": "exp(-x)", "log": "log(2 + x)", "log1p": "log1p(x)",
    "expm1": "expm1(x)", "sqrt": "sqrt(x)", "sin": "2 + sin(3*x)",
    "cos": "2 + cos(3*x)", "tan": "tan(x)", "atan": "atan(x)",
    "floor": "floor(4*x)", "ceil": "ceil(4*x)", "abs": "abs(x - 1)",
    "min": "min(x, 1, 0.5 + 0.25*x)", "max": "max(x, 1, 0.5 + 0.25*x)",
    "pow": "pow(x, 1.5)", "pi": "pi*x", "e": "e**x", "inf": "min(x, inf)",
}


class _Counted:
    """Density wrapper counting its calls on arrays and on floats."""

    def __init__(self, fn):
        self.fn = fn
        self.array_calls = self.scalar_calls = 0

    def __call__(self, *args):
        if isinstance(args[0], np.ndarray):
            self.array_calls += 1
        else:
            self.scalar_calls += 1
        return self.fn(*args)


class TestArrayDensity:
    def test_every_name_has_a_case(self):
        assert set(NAME_CASES) == set(_EXPR_NAMES)

    @pytest.mark.parametrize("name", sorted(NAME_CASES))
    @settings(max_examples=25, deadline=None)
    @given(xs=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=16))
    def test_array_values_match_scalar_values(self, name, xs):
        density = compile_density(NAME_CASES[name], ("x",))
        values = density(np.array(xs))
        assert values.shape == (len(xs),)
        reference = math_density(NAME_CASES[name], ("x",))
        want = np.array([reference(x) for x in xs], dtype=float)
        np.testing.assert_array_max_ulp(values, want, maxulp=4)

    def test_two_variables_and_constants_broadcast(self):
        x0, x1 = np.array([0.0, 0.5, 2.0]), np.array([1.0, 3.0, 0.25])
        density = compile_density("min(x0, x1) + x0*x1", ("x0", "x1"))
        reference = math_density("min(x0, x1) + x0*x1", ("x0", "x1"))
        want = [reference(a, b) for a, b in zip(x0.tolist(), x1.tolist())]
        np.testing.assert_array_max_ulp(density(x0, x1), want, maxulp=4)
        np.testing.assert_array_equal(
            compile_density("2", ("x0", "x1"))(x0, x1), [2.0, 2.0, 2.0])

    @pytest.mark.parametrize("expression", ["sqrt(x - 2)", "1/(x-x)", "x - 0.5",
                                            "-1", "(x - 2)**0.5", "inf*0", "inf"])
    def test_invalid_values_raise_on_both_paths(self, expression):
        density = compile_density(expression, ("x",))
        named = re.escape(f"density {expression!r}")
        with pytest.raises(FloatingPointError, match=named):
            density(0.25)
        with pytest.raises(FloatingPointError, match=named):
            density(np.linspace(0.0, 1.0, 5))

    def test_raw_callables_fall_back_to_points(self):
        xs = np.linspace(0.0, 1.0, 7)
        for fn in (lambda x: 2.0 + math.sin(x),
                   lambda x: 1.0 if x < 0.5 else 2.0):
            np.testing.assert_array_equal(density_values(fn, [xs]),
                                          [fn(x) for x in xs.tolist()])

    @pytest.mark.parametrize("expression", [
        # the untaken branch is undefined below 2, so it must not run there
        "sqrt(x - 2) if x > 2 else 0.5", "(0.25 < x < 0.75) + 1",
        "1 if x < 0.5 else 2", "(x - 1 if x > 1 else 1 - x) if x != 2 else 7"])
    def test_conditionals_and_chained_comparisons_take_one_call(self, expression):
        xs = np.linspace(0.0, 3.0, 7)
        density = _Counted(compile_density(expression, ("x",)))
        got = density_values(density, [xs])
        assert (density.array_calls, density.scalar_calls) == (1, 0)
        reference = math_density(expression, ("x",))
        np.testing.assert_array_equal(got, [reference(x) for x in xs.tolist()])

    def test_floats_in_floats_out(self):
        density = compile_density("sqrt(x - 2) if x > 2 else 0.5", ("x",))
        assert type(density(1.0)) is float and density(6.0) == 2.0
        model = SmoothIntensity([(0, 3)], density)
        assert type(model.density_at(2.5)) is float
        assert type(model.density_at((1.0,))) is float

    def test_unread_arguments_stay_as_given(self):
        # a constant kernel on string atom ids and string mark ids
        model = MarkedModel(DiscreteIntensity([("a", 1.0), ("b", 2.0)]),
                            DiscreteIntensity([("u", 1.0), ("v", 1.0)]),
                            compile_density("0.5", ("t", "x")))
        np.testing.assert_array_equal(model.mark_table(["a", "b"]),
                                      np.full((2, 2), 0.5))

    def test_raw_callables_keep_their_value_error(self):
        with pytest.raises(ValueError, match="nonnegative"):
            density_values(lambda x: x - 0.5, [np.linspace(0.0, 1.0, 5)])
        with pytest.raises(ValueError, match="NaN"):
            density_values(lambda x: np.nan * x, [np.linspace(0.0, 1.0, 5)])


class TestAllowList:
    """Only numbers, variables, arithmetic, comparisons, conditionals and
    calls of the math names by bare name compile."""

    @pytest.mark.parametrize("expression", [
        # a lambda's names live in a nested code object
        "(lambda y: y.__class__.__mro__.__len__() + 0.0)(1.0)",
        "[1.0 for q in (1,)][0] + x",
        "__import__('os').system('true')", "x.real", "pi(x)", "exp + x",
        "x(1.0)", "(1.0)(x)", "max(x, key=abs)", "min(*x)", "1j*x",
        "True + x", "'a'", "x and 1", "not x", "~x", "x @ x", "x is x",
    ])
    def test_rejected_when_compiled(self, expression):
        with pytest.raises(ParseError):
            compile_density(expression, ("x",))

    def test_rejected_when_loaded(self):
        with pytest.raises(ParseError, match="Call"):
            model_from_dict({"type": "smooth", "bounds": [[0, 1]],
                             "density": "(lambda y: y.real)(1.0)"})

    def test_every_allowed_node(self):
        expression = (
            "-x // 2 % 3 + +x**2 / 4 - (x <= 1) * (x != 2) + (x > 0) * (x >= 0)"
            " + (x == x) + (x < 1) + (1 if x > 0.5 else 2) + max(x, pi)")
        density = compile_density(expression, ("x",))
        reference = math_density(expression, ("x",))
        xs = np.linspace(0.0, 1.5, 7)
        np.testing.assert_array_max_ulp(density_values(density, [xs]),
                                        [reference(x) for x in xs.tolist()])

    @pytest.mark.parametrize("expression", [
        "exp(x, x)", "sqrt()", "min(x)", "pow(x)", "sin(x, 1, 2)"])
    def test_wrong_argument_count_is_rejected(self, expression):
        with pytest.raises(ParseError):
            compile_density(expression, ("x",))

    def test_long_sum_compiles(self):
        density = compile_density(" + ".join(["x"] * 300), ("x",))
        assert density(0.5) == 150.0

    def test_library_calls_no_eval(self):
        """No module of the library calls ``eval``, ``exec`` or
        ``compile`` by bare name: expressions run only through the tree."""
        calls = []
        for path in sorted(pathlib.Path(ppdiv.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("eval", "exec", "compile")):
                    calls.append(f"{path.name}:{node.lineno} {node.func.id}")
        assert calls == []

    def test_only_the_integral_entries_name_the_integrator(self):
        """Pointwise terms of a pair, the mark term among them, are
        integrated through ``DensityPair._integrals``: besides
        ``quadrature``, which defines ``integrate_box`` and
        ``integrate_segments``, only ``measure`` (that entry and the
        single-model masses) names them."""
        users = _modules_naming("integrate_box", "integrate_segments")
        assert users - {"quadrature.py"} <= {"measure.py"}

    def test_only_the_pair_reads_the_probes(self):
        """A pair's densities are read at the probe points only by
        ``DensityPair._probes``: besides ``quadrature``, which defines
        ``probe_points``, only ``measure`` names it, and no module names
        ``probe_columns`` or ``_probe_densities``."""
        assert _modules_naming("probe_points") - {"quadrature.py"} <= {"measure.py"}
        assert _modules_naming("probe_columns", "_probe_densities") == set()

    def test_only_the_draw_and_the_finite_ratio_read_the_masses(self):
        """In ``chernoff`` and ``likelihood`` only ``_loglr_batch`` and
        ``log_lr_finite`` name ``lambda_mass`` or ``mu_mass``, so the Monte
        Carlo refusal of an infinite mass and its ``mu(S) - lambda(S)`` have
        one home; ``_loglr_batch`` takes no ``base``."""
        def masses_named(node):
            return sum(getattr(n, "attr", getattr(n, "id", None)) in ("lambda_mass", "mu_mass")
                       for n in ast.walk(node))
        for name in ("chernoff.py", "likelihood.py"):
            path = pathlib.Path(ppdiv.__file__).parent / name
            tree = ast.parse(path.read_text(), str(path))
            owners = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name in ("_loglr_batch", "log_lr_finite")}
            assert masses_named(tree) == sum(map(masses_named, owners.values())), name
        assert "base" not in [a.arg for a in owners["_loglr_batch"].args.args]


def _modules_naming(*names) -> set:
    """The library modules that name any of ``names``: an import, a
    definition, a bare name or an attribute."""
    users = set()
    for path in sorted(pathlib.Path(ppdiv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = (getattr(node, "name", None) if isinstance(node, ast.alias)
                    else getattr(node, "attr", getattr(node, "id", None)))
            if name in names:
                users.add(path.name)
    return users


class TestBatchedThinning:
    @pytest.mark.parametrize("bound", [3.0, None])
    def test_math_callable_and_compiled_density_agree(self, bound):
        raw = SmoothIntensity([(0, 3)], lambda x: 2.0 + math.sin(x),
                              density_bound=bound)
        compiled = SmoothIntensity(
            [(0, 3)], compile_density("2 + sin(x)", ("x",)),
            density_bound=bound)
        for seed in range(5):
            eta = sample_pp(compiled, seed=seed)
            assert len(eta) > 0
            assert sample_pp(raw, seed=seed) == eta

    def test_bound_missing_is_detected(self):
        model = SmoothIntensity([(0, 1)], compile_density("10*(x > 0.9)", ("x",)),
                                density_bound=1.0)
        with pytest.raises(ThinningBoundMissing):
            sample_pp(model, seed=1)

    def test_two_dimensional_samples_stay_in_the_window(self):
        model = SmoothIntensity([(0, 2), (0, 1)],
                                compile_density("100*(1 + x0*x1)", ("x0", "x1")))
        window = ((0.5, 1.5), (0.25, 1.0))
        mass = 100 * (0.75 + 1.0 * (1.0 - 0.0625) / 2)
        reps = 200
        counts = []
        for seed in range(reps):
            eta = sample_pp(model, window=window, seed=seed)
            pts = np.array([loc for loc, _ in eta.points])
            assert pts.shape == (len(eta), 2)
            assert (pts >= [0.5, 0.25]).all() and (pts <= [1.5, 1.0]).all()
            counts.append(len(eta))
        assert abs(np.mean(counts) - mass) <= 4.0 * math.sqrt(mass / reps)


class TestNoPerPointCalls:
    """Guards against a return to one density call per point."""

    def test_sampling_probes_and_thins_in_two_calls(self):
        density = _Counted(compile_density("100*(2 + sin(3*x))", ("x",)))
        eta = sample_pp(SmoothIntensity([(0, 2)], density), seed=4)
        assert len(eta) > 100
        assert density.array_calls + density.scalar_calls <= 2

    def test_log_lr_finite_calls_each_density_at_most_twice_per_pattern(self):
        f = _Counted(compile_density("100*(2 + sin(3*x))", ("x",)))
        g = _Counted(compile_density("150 + 20*x", ("x",)))
        lam = SmoothIntensity([(0, 2)], f, density_bound=300.0)
        pair = common_reference(lam, SmoothIntensity([(0, 2)], g))
        big = sample_pp(lam, seed=5)
        assert len(big) > 100
        scalar_calls = []
        for eta in (PointPattern(()), big):
            f.array_calls = f.scalar_calls = g.array_calls = g.scalar_calls = 0
            log_lr_finite(pair, eta)
            assert f.array_calls <= 2 and g.array_calls <= 2
            scalar_calls.append((f.scalar_calls, g.scalar_calls))
        # the mass integrals and the domination probes do not see the pattern
        assert scalar_calls[0] == scalar_calls[1]

    def test_domination_is_decided_once_per_pair(self):
        # past the memoised masses, each density is called once at the
        # probes for every check of the pair, and once per non-empty pattern
        f = _Counted(compile_density("100*(2 + sin(3*x))", ("x",)))
        g = _Counted(compile_density("150 + 20*x", ("x",)))
        pair = common_reference(SmoothIntensity([(0, 2)], f),
                                SmoothIntensity([(0, 2)], g))
        pair.lambda_mass(), pair.mu_mass()
        f.array_calls = f.scalar_calls = g.array_calls = g.scalar_calls = 0
        _require_ac(pair)
        _require_ac(pair)
        for eta in (PointPattern(()), PointPattern([(0.5, 1)]),
                    PointPattern([(0.25, 1), (1.5, 2)])):
            log_lr_finite(pair, eta)
        assert (f.array_calls, f.scalar_calls) == (g.array_calls, g.scalar_calls) == (3, 0)

    def test_smooth_monte_carlo_calls_do_not_grow_with_samples(self):
        calls = []
        for n_samples in (2, 20, 400):
            f = _Counted(compile_density("100*(2 + sin(3*x))", ("x",)))
            g = _Counted(compile_density("150 + 20*x", ("x",)))
            pair = common_reference(SmoothIntensity([(0, 2)], f),
                                    SmoothIntensity([(0, 2)], g))
            for alpha in (1.0, 0.5):
                mc_divergence_estimate(pair, alpha, n_samples, seed=6)
            calls.append((f.array_calls, f.scalar_calls, g.array_calls, g.scalar_calls))
        assert calls[0] == calls[1] == calls[2]
        assert calls[0][1] == calls[0][3] == 0


class TestPatternIds:
    """A discrete pattern read back with its model keeps the model's ids."""

    LAM = DiscreteIntensity([(1, 3.0), (2, 1.5), (7, 0.5)])
    MU = DiscreteIntensity([(1, 2.0), (2, 1.5), (7, 0.5)])

    def _csv(self, eta):
        buf = io.StringIO()
        patterns_to_csv([eta], buf)
        buf.seek(0)
        return buf

    def test_integer_ids_round_trip(self, tmp_path):
        pair = common_reference(self.LAM, self.MU)
        eta = PointPattern([(2, 1), (7, 2)])
        text = pattern_from_csv(self._csv(eta), discrete=True)
        assert text.ids == ("2", "7")
        assert log_lr_finite(pair, text).log_lr == -math.inf
        read = pattern_from_csv(self._csv(eta), model=pair.reference)
        assert read == eta
        assert log_lr_finite(pair, read).log_lr == -1.0
        path = tmp_path / "eta.csv"
        path.write_text(self._csv(eta).getvalue())
        assert load_pattern(path, model=self.LAM) == eta
        with pytest.raises(TypeError, match="discrete or model"):
            load_pattern(path, discrete=True, model=self.LAM)

    def test_model_decides_discreteness(self):
        eta = PointPattern([((0.25,), 1), ((0.5,), 3)])
        smooth = SmoothIntensity([(0, 1)], lambda x: 1.0)
        assert pattern_from_csv(self._csv(eta), model=smooth) == eta
        ids = PointPattern([(7, 2)])
        summed = SummedIntensity([self.LAM, self.MU])
        assert pattern_from_csv(self._csv(ids), model=summed) == ids

    def test_unknown_texts_and_marked_bases(self):
        marked = MarkedModel(self.LAM, DiscreteIntensity([("u", 1.0)]),
                             compile_density("1", ("t", "x")))
        for model in (self.LAM, marked):
            assert model_ids(["7", "7.0", "a"], model) == [7, "7.0", "a"]
        assert model_ids(["7"], SmoothIntensity([(0, 1)], lambda x: 1.0)) == ["7"]

