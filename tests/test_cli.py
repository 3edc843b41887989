"""Command-line interface: outputs, exit codes, schema conformance, and
model/pattern file round-trips."""

import json
import math
import os
import pathlib
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

import ppdiv
from ppdiv import DiscreteIntensity, GridIntensity, PointPattern
from ppdiv.cli import main
from ppdiv.model_io import (_EXPR_NAMES, compile_density, load_model,
                            load_pattern, model_from_dict, model_to_dict,
                            patterns_to_csv, save_model)

SCHEMA = json.loads(
    (pathlib.Path(__file__).parent.parent / "docs" / "schema.json").read_text())

GRID_2 = {"type": "grid", "bounds": [[0, 1]], "shape": [1], "values": [2.0]}
GRID_1 = {"type": "grid", "bounds": [[0, 1]], "shape": [1], "values": [1.0]}
POISSON_1 = {"type": "discrete", "atoms": [["k", 1.0]]}
POISSON_4 = {"type": "discrete", "atoms": [["k", 4.0]]}


@pytest.fixture
def files(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)
    return write, tmp_path


def _validate(payload, definition):
    jsonschema.validate(
        payload, {"$defs": SCHEMA["$defs"], "$ref": f"#/$defs/{definition}"})


class TestDivergence:
    def test_kl_table(self, files, capsys):
        write, _ = files
        code = main(["divergence", write("a.json", GRID_2),
                     write("b.json", GRID_1), "--kind", "kl"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "divergence")
        assert out["rows"][0]["alpha"] == 1.0
        assert out["rows"][0]["value"] == pytest.approx(2 * math.log(2) - 1,
                                                        abs=1e-9)

    def test_identical_models_all_zero(self, files, capsys):
        write, _ = files
        code = main(["divergence", write("a.json", GRID_2),
                     write("b.json", GRID_2),
                     "--alphas", "0,0.5,1,2", "--kind", "tsallis"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "divergence")
        assert [row["value"] for row in out["rows"]] == [0.0] * 4

    def test_singular_pair_serialises_inf(self, files, capsys):
        write, _ = files
        a = {"type": "discrete", "atoms": [["x", 1.0], ["y", 0.0]]}
        b = {"type": "discrete", "atoms": [["x", 0.0], ["y", 1.0]]}
        code = main(["divergence", write("a.json", a), write("b.json", b),
                     "--alphas", "0,0.5,1,2", "--kind", "renyi"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "divergence")
        values = {row["alpha"]: row["value"] for row in out["rows"]}
        assert values[1.0] == "inf"
        assert values[2.0] == "inf"
        assert values[0.5] == pytest.approx(2.0)

    def test_csv_format(self, files, capsys):
        write, _ = files
        code = main(["divergence", write("a.json", GRID_2),
                     write("b.json", GRID_1), "--kind", "kl",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "alpha,value,error_estimate,notes"
        assert len(lines) == 2

    def test_parse_error_exit_code(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        write, _ = files
        assert main(["divergence", str(bad), write("b.json", GRID_1)]) == 1

    def test_bad_order_is_a_parse_error(self, files, capsys):
        write, _ = files
        code = main(["divergence", write("a.json", GRID_2),
                     write("b.json", GRID_1), "--alphas", "abc"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_domain_mismatch_exit_code(self, files):
        write, _ = files
        assert main(["divergence", write("a.json", POISSON_1),
                     write("b.json", GRID_1)]) == 1

    def test_quadrature_failure_exit_code(self, files):
        write, _ = files
        two = {"type": "smooth", "bounds": [[0, "inf"]], "density": "2.0"}
        one = {"type": "smooth", "bounds": [[0, "inf"]], "density": "1.0"}
        assert main(["divergence", write("a.json", two),
                     write("b.json", one), "--kind", "kl"]) == 2


class TestLogLr:
    def test_finite_example(self, files, capsys, tmp_path):
        write, _ = files
        pattern = tmp_path / "eta.csv"
        pattern.write_text("loc_1,multiplicity\n0.2,1\n0.5,1\n0.8,1\n")
        code = main(["loglr", write("a.json", GRID_2), write("b.json", GRID_1),
                     str(pattern)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "loglr")
        assert out["in_support"] is True
        assert out["log_lr"] == pytest.approx(-1 + 3 * math.log(2), abs=1e-9)

    def test_equal_models_zero(self, files, capsys, tmp_path):
        write, _ = files
        pattern = tmp_path / "eta.csv"
        pattern.write_text("loc_1\n0.4\n")
        main(["loglr", write("a.json", GRID_1), write("b.json", GRID_1),
              str(pattern)])
        out = json.loads(capsys.readouterr().out)
        assert out["log_lr"] == 0.0

    def test_out_of_support_serialises_minus_inf(self, files, capsys, tmp_path):
        write, _ = files
        a = {"type": "grid", "bounds": [[0, 2]], "shape": [2],
             "values": [0.0, 1.0]}
        b = {"type": "grid", "bounds": [[0, 2]], "shape": [2],
             "values": [1.0, 1.0]}
        pattern = tmp_path / "eta.csv"
        pattern.write_text("loc_1\n0.5\n")
        main(["loglr", write("a.json", a), write("b.json", b), str(pattern)])
        out = json.loads(capsys.readouterr().out)
        _validate(out, "loglr")
        assert out == {"in_support": False, "log_lr": "-inf",
                       "converged": True}

    def test_sigma_finite_trace(self, files, capsys, tmp_path):
        write, _ = files
        lam = {"type": "smooth", "bounds": [[0, "inf"]],
               "density": "1 + exp(-x)"}
        mu = {"type": "smooth", "bounds": [[0, "inf"]], "density": "1.0"}
        pattern = tmp_path / "eta.csv"
        pattern.write_text("loc_1\n0.5\n")
        code = main(["loglr", write("a.json", lam), write("b.json", mu),
                     str(pattern), "--sigma-finite", "--n-max", "40"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "loglr")
        assert out["converged"] is True
        assert len(out["trace"]) >= 2


class TestSample:
    def test_zero_model_empty_body(self, files, capsys):
        write, _ = files
        zero = {"type": "discrete", "atoms": [["a", 0.0]]}
        code = main(["sample", write("m.json", zero), "--seed", "1"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["replicate,loc_1,multiplicity"]

    def test_seed_determinism_byte_identical(self, files, capsys):
        write, _ = files
        code = main(["sample", write("m.json", GRID_2), "--seed", "9",
                     "--count", "2"])
        assert code == 0
        first = capsys.readouterr().out
        main(["sample", write("m2.json", GRID_2), "--seed", "9",
              "--count", "2"])
        assert capsys.readouterr().out == first

    def test_replicate_blocks(self, files, capsys):
        write, _ = files
        model = {"type": "discrete", "atoms": [["a", 5.0]]}
        main(["sample", write("m.json", model), "--seed", "3",
              "--count", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        reps = {line.split(",")[0] for line in lines[1:]}
        assert reps == {"0", "1", "2"}

    def test_negative_seed_is_a_parse_error(self, files, capsys):
        write, _ = files
        code = main(["sample", write("m.json", GRID_2), "--seed", "-1"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("density", ["sqrt(x - 2)", "1/(x-x)"])
    def test_domain_error_is_a_numeric_failure(self, files, capsys, density):
        write, _ = files
        bad = {"type": "smooth", "bounds": [[0, 1]], "density": density}
        assert main(["sample", write("m.json", bad), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"numeric failure: density {density!r}")
        assert captured.err.count("\n") == 1

    def test_marked_sampling(self, files, capsys):
        write, _ = files
        model = {"type": "marked", "base": GRID_2,
                 "mark_reference": {"type": "discrete",
                                    "atoms": [[1.0, 1.0], [-1.0, 1.0]]},
                 "mark_density": "0.5"}
        code = main(["sample", write("m.json", model), "--seed", "5",
                     "--marked"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "replicate,loc_1,loc_2,multiplicity"


class TestChernoffCommand:
    def test_value_and_argmax(self, files, capsys):
        write, _ = files
        code = main(["chernoff", write("a.json", POISSON_1),
                     write("b.json", POISSON_4)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "chernoff")
        assert out["C"] == pytest.approx(0.5065507, abs=1e-6)
        assert out["alpha_star"] == pytest.approx(0.443135, abs=1e-4)

    def test_equal_models(self, files, capsys):
        write, _ = files
        main(["chernoff", write("a.json", POISSON_1),
              write("b.json", POISSON_1)])
        out = json.loads(capsys.readouterr().out)
        assert out["C"] == 0.0

    def test_simulation_fields(self, files, capsys):
        write, _ = files
        code = main(["chernoff", write("a.json", POISSON_1),
                     write("b.json", POISSON_4),
                     "--simulate", "5", "20000", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        _validate(out, "chernoff")
        assert set(out) == {"C", "alpha_star", "risk", "se"}

    def test_simulation_of_grid_models_rejected(self, files, capsys):
        write, _ = files
        code = main(["chernoff", write("a.json", GRID_2),
                     write("b.json", GRID_1),
                     "--simulate", "5", "1000", "7"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_bad_simulation_count_is_a_parse_error(self, files, capsys):
        write, _ = files
        code = main(["chernoff", write("a.json", POISSON_1),
                     write("b.json", POISSON_4),
                     "--simulate", "x", "1000", "7"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("extra", [
        ["--prior0", "2", "--simulate", "5", "1000", "7"],
        ["--prior0", "nan", "--simulate", "5", "1000", "7"],
        ["--simulate", "0", "1000", "7"],
        ["--simulate", "5", "0", "7"],
        ["--simulate", "5", "1000", "-1"],
    ])
    def test_bad_simulation_setting_is_a_parse_error(self, files, capsys,
                                                     extra):
        write, _ = files
        code = main(["chernoff", write("a.json", POISSON_1),
                     write("b.json", POISSON_4)] + extra)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_simulation_ignores_thread_variable(self, files, capsys,
                                                monkeypatch):
        write, _ = files
        argv = ["chernoff", write("a.json", POISSON_1),
                write("b.json", POISSON_4), "--simulate", "5", "1000", "7"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("PPDIV_THREADS", "abc")
        assert main(argv) == 0
        assert capsys.readouterr().out == plain


class TestModelFiles:
    def test_roundtrip_discrete(self, tmp_path):
        model = DiscreteIntensity([("a", 1.5), ("b", 0.0)])
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_roundtrip_grid(self, tmp_path):
        model = GridIntensity([(0, 2), (0, 1)], [2, 3],
                              [0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        path = tmp_path / "m.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_roundtrip_smooth_expression(self, tmp_path):
        model = model_from_dict({"type": "smooth", "bounds": [[0, "inf"]],
                                 "density": "exp(-x)", "density_bound": 1.0})
        path = tmp_path / "m.json"
        save_model(model, path)
        again = load_model(path)
        assert again == model
        assert again.density(1.3) == pytest.approx(math.exp(-1.3))

    def test_roundtrip_combinators(self, tmp_path):
        model = model_from_dict(
            {"type": "scale", "factor": 2.0,
             "inner": {"type": "sum",
                       "parts": [GRID_2, GRID_1]}})
        path = tmp_path / "m.json"
        save_model(model, path)
        assert model_to_dict(load_model(path)) == model_to_dict(model)

    def test_expression_name_whitelist(self):
        with pytest.raises(Exception):
            model_from_dict({"type": "smooth", "bounds": [[0, 1]],
                             "density": "__import__('os').system('true')"})

    @pytest.mark.parametrize("spec", [
        {"type": "smooth", "bounds": [[0, 1]], "density": "1" + "0" * 400},
        {"type": "discrete", "atoms": [["a", 10 ** 400]]},
    ])
    def test_integer_beyond_float_range_is_a_parse_error(self, spec):
        with pytest.raises(ppdiv.ParseError):
            model_from_dict(spec)

    def test_pattern_roundtrip(self, tmp_path):
        eta = PointPattern([(0.25, 1), (0.75, 2)])
        path = tmp_path / "eta.csv"
        with open(path, "w", newline="") as fh:
            patterns_to_csv([eta], fh)
        again = load_pattern(path)
        assert again.points == eta.points


def _density_families(rng):
    """The expression families of the benchmark workloads, with the
    parameters drawn from ``rng``, and their variables."""
    a, b, c, d = (repr(float(v)) for v in rng.uniform(0.2, 3.0, size=4))
    return [
        ("x**2 + 3*x - 7//2", ("x",)),
        ("1 + exp(-x)", ("x",)),
        ("1", ("x",)),
        (f"{a} + {b}*exp(-{c}*(x - {d})**2)", ("x",)),
        (f"{a} + {b}*sin({c}*x + {d})", ("x",)),
        (f"{a} + {b}*x + {c}*x**2", ("x",)),
        (f"{a} + {b}*log1p({c}*x)", ("x",)),
        (f"{a} + {b}*exp(-{c}*x0*x1)", ("x0", "x1")),
        (f"{a} + {b}*cos({c}*x0 + {d}*x1)", ("x0", "x1")),
        (f"(1 + {a}*sin({c}*t)*(x - 2))/3", ("t", "x")),
        (f"(1 + {a}*exp(-t)*(x - 2))/3", ("t", "x")),
        (f"(1 + {a}*(x - 2))/3", ("t", "x")),
    ]


class TestFloatLiterals:
    """``compile_density`` turns integer literals into floats; on float
    arguments, and on the integer marks of mark kernels, every value stays
    what the expression gave with its integers as written."""

    @staticmethod
    def as_written(expression, variables):
        code = compile(expression, "<density>", "eval")
        return lambda *args: eval(code, {"__builtins__": {}, **_EXPR_NAMES},
                                  dict(zip(variables, args)))

    def test_values_bit_identical(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            for expression, variables in _density_families(rng):
                new = compile_density(expression, variables)
                old = self.as_written(expression, variables)
                for _ in range(25):
                    args = [float(v) for v in rng.uniform(0.0, 6.0,
                                                          len(variables))]
                    if variables == ("t", "x"):
                        args[1] = int(rng.integers(1, 4))
                    value = new(*args)
                    assert isinstance(value, float)
                    assert value.hex() == float(old(*args)).hex(), expression


def _run_child(args, cwd, timeout):
    env = dict(os.environ)
    src = str(pathlib.Path(ppdiv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


class TestFreshProcess:
    @pytest.mark.parametrize("density", ["9**9**9", "exp(1000)",
                                         "sqrt(x - 2)", "1/(x-x)"])
    def test_overflowing_density_is_a_numeric_failure(self, files, density):
        write, tmp_path = files
        bad = {"type": "smooth", "bounds": [[0, 1]], "density": density}
        good = {"type": "smooth", "bounds": [[0, 1]], "density": "1 + x"}
        proc = _run_child(["-m", "ppdiv.cli", "divergence",
                           write("a.json", bad), write("b.json", good)],
                          tmp_path, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("numeric failure: ")
        assert proc.stderr.count("\n") == 1

    def test_exact_commands_do_not_load_scipy(self, files):
        # Discrete and grid models need no quadrature, and a smooth model
        # with a density bound samples without any: none of these loads
        # SciPy.  A smooth divergence then loads scipy.integrate.
        write, tmp_path = files
        (tmp_path / "eta.csv").write_text("loc_1,multiplicity\n0.5,1\n")
        smooth = {"type": "smooth", "bounds": [[0, 1]], "density": "1 + x"}
        write("s.json", dict(smooth, density_bound=2.0))
        write("t.json", dict(smooth, density="2 - x"))
        write("g2.json", GRID_2)
        write("g1.json", GRID_1)
        write("p1.json", POISSON_1)
        write("p4.json", POISSON_4)
        script = """
import sys
import ppdiv.cli

def run(*argv):
    assert ppdiv.cli.main(list(argv) + ["--output", "out.txt"]) == 0, argv

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

run("divergence", "g2.json", "g1.json", "--alphas", "0,0.5,1,2")
run("loglr", "g2.json", "g1.json", "eta.csv")
run("sample", "s.json", "--seed", "3", "--count", "2")
run("chernoff", "p1.json", "p4.json", "--simulate", "5", "1000", "7")
print(scipy_modules())
run("divergence", "s.json", "t.json", "--kind", "kl")
print("scipy.integrate" in scipy_modules())
"""
        proc = _run_child(["-c", script], tmp_path, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True"]
