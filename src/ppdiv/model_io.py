"""JSON intensity-model files and CSV point-pattern files.

Model files carry a ``type`` tag (``discrete``, ``grid``, ``smooth``,
``scale``, ``sum``, ``marked``).  Smooth densities are arithmetic
expressions in ``x`` (or ``x0, x1, ...``; mark densities use ``t`` and
``x``) evaluated in a restricted math namespace, and are kept on the
model so a written file re-parses to an equal model.

Pattern files have one row per point with columns ``loc_1 .. loc_d`` and
``multiplicity`` (default 1); sampled batches prepend a ``replicate``
column.
"""

from __future__ import annotations

import ast
import csv
import functools
import json
import math
from typing import Any

import numpy as np

from .errors import ParseError
from .measure import (DiscreteIntensity, GridIntensity, IntensityModel,
                      MarkedModel, PointPattern, ScaledIntensity,
                      SmoothIntensity, SummedIntensity)
from .quadrature import QuadratureSpec

_EXPR_NAMES = {
    "exp": math.exp, "log": math.log, "log1p": math.log1p, "expm1": math.expm1,
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "atan": math.atan, "floor": math.floor, "ceil": math.ceil,
    "abs": abs, "min": min, "max": max, "pow": pow,
    "pi": math.pi, "e": math.e, "inf": math.inf,
}
_SCALAR_NS = {"__builtins__": {}, **_EXPR_NAMES}
# ufunc twins; min and max reduce, as a bare ufunc takes a third argument as ``out``
_ARRAY_NS = {
    **_SCALAR_NS,
    "exp": np.exp, "log": np.log, "log1p": np.log1p, "expm1": np.expm1,
    "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "tan": np.tan,
    "atan": np.arctan, "floor": np.floor, "ceil": np.ceil, "abs": np.abs,
    "min": lambda *a: functools.reduce(np.minimum, a),
    "max": lambda *a: functools.reduce(np.maximum, a), "pow": np.power,
}
_ALLOWED_NODES = tuple(getattr(ast, name) for name in (
    "Expression Constant Name Load BinOp UnaryOp Compare IfExp Call Add Sub "
    "Mult Div FloorDiv Mod Pow UAdd USub Lt LtE Gt GtE Eq NotEq").split())


def _check_node(node, variables, called: bool):
    """Raise :class:`ParseError` unless ``node`` is a number (an int becomes
    a float), a variable, arithmetic, a comparison, ``a if c else b`` or an
    ``_EXPR_NAMES`` constant, or calls (``called``) an ``_EXPR_NAMES``
    function by bare name."""
    if isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _EXPR_NAMES:
            raise ParseError(f"density expression uses unknown name {node.id!r}")
        if called != (node.id not in variables and callable(_EXPR_NAMES[node.id])):
            raise ParseError(f"density expression misuses the name {node.id!r}")
    elif (not isinstance(node, _ALLOWED_NODES)
          or isinstance(node, ast.Call) and not isinstance(node.func, ast.Name)
          or isinstance(node, ast.Constant) and type(node.value) not in (int, float)):
        raise ParseError(f"density expression may not use {type(node).__name__}")
    elif isinstance(node, ast.Constant):
        node.value = float(node.value)


def compile_density(expression: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression into a positional callable of one
    float, or one float64 array (evaluated with numpy ufuncs), per variable.

    Syntax that :func:`_check_node` does not allow, such as a lambda or an
    attribute, is a :class:`ParseError`.  Integer literals become floats,
    so the expression evaluates in float arithmetic: ``9**9**9`` overflows
    at once instead of building a 370-million-digit integer.  A domain
    error (``sqrt(-1)``, ``1/0``) or a negative, NaN or complex value
    raises ``FloatingPointError`` naming the expression.
    """
    try:
        tree = ast.parse(expression, mode="eval")
        nodes = list(ast.walk(tree))
        called = {id(n.func) for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            _check_node(node, variables, id(node) in called)
        code = compile(tree, "<density>", "eval")
    except (SyntaxError, OverflowError) as exc:
        raise ParseError(f"bad density expression {expression!r}: {exc}") from exc

    def fail(args, reason):
        return FloatingPointError(
            f"density {expression!r} at ({', '.join(map(str, args))}): {reason}")

    def density(*args):
        scope = dict(zip(variables, args))
        for a in args:
            if isinstance(a, np.ndarray):
                return density_array(scope, args)
        try:
            value = eval(code, _SCALAR_NS, scope)
        except (ValueError, ZeroDivisionError) as exc:
            raise fail(args, exc) from exc
        if isinstance(value, complex) or not value >= 0.0:
            raise fail(args, f"value {value!r} is not a nonnegative real")
        return value

    def density_array(scope, args):
        try:
            with np.errstate(divide="raise", invalid="raise", over="call",
                             call=_raise_overflow):
                value = eval(code, _ARRAY_NS, scope)
        except (FloatingPointError, ZeroDivisionError) as exc:
            kind = _Overflow if isinstance(exc, OverflowError) else FloatingPointError
            raise kind(f"density {expression!r} on an array of points: {exc}") from exc
        shape = (args[0].shape if len(args) == 1
                 else np.broadcast_shapes(*(np.shape(a) for a in args)))
        out = np.asarray(value, dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape)
        if np.count_nonzero(out >= 0.0) != out.size:
            bad = np.flatnonzero(~(out >= 0.0))[0]
            raise fail([a.flat[bad] for a in np.broadcast_arrays(*args)],
                       f"value {float(out.flat[bad])!r} is not a nonnegative real")
        return out

    return density


class _Overflow(FloatingPointError, OverflowError):
    """A density value beyond the float range on an array of points: a
    ``FloatingPointError`` like every bad density value, and the
    ``OverflowError`` that the scalar path's ``math`` functions raise,
    which quadrature reads as an integrand too large to integrate."""


def _raise_overflow(kind, flag):
    raise _Overflow(f"{kind} encountered")


def _smooth_variables(ndim: int) -> tuple[str, ...]:
    if ndim == 1:
        return ("x",)
    return tuple(f"x{i}" for i in range(ndim))


def model_from_dict(spec: dict) -> IntensityModel | MarkedModel:
    try:
        kind = spec["type"]
    except (TypeError, KeyError):
        raise ParseError("model spec needs a 'type' field") from None
    try:
        if kind == "discrete":
            return DiscreteIntensity(tuple((a[0], float(a[1]))
                                           for a in spec["atoms"]))
        if kind == "grid":
            return GridIntensity(tuple(tuple(b) for b in spec["bounds"]),
                                 tuple(spec["shape"]), spec["values"])
        if kind == "smooth":
            bounds = tuple((float(lo), _parse_hi(hi)) for lo, hi in spec["bounds"])
            variables = _smooth_variables(len(bounds))
            quad = QuadratureSpec(**spec.get("quadrature", {}))
            return SmoothIntensity(
                bounds, compile_density(spec["density"], variables),
                quadrature=quad, density_bound=spec.get("density_bound"),
                expression=spec["density"])
        if kind == "scale":
            return ScaledIntensity(float(spec["factor"]),
                                   model_from_dict(spec["inner"]))
        if kind == "sum":
            return SummedIntensity(tuple(model_from_dict(p)
                                         for p in spec["parts"]))
        if kind == "marked":
            return MarkedModel(
                base=model_from_dict(spec["base"]),
                mark_reference=model_from_dict(spec["mark_reference"]),
                mark_density=compile_density(spec["mark_density"], ("t", "x")),
            )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"bad {kind!r} model spec: {exc}") from exc
    raise ParseError(f"unknown model type {kind!r}")


def _parse_hi(hi) -> float:
    if hi in ("inf", "Infinity"):
        return math.inf
    return float(hi)


def model_to_dict(model) -> dict:
    if isinstance(model, DiscreteIntensity):
        return {"type": "discrete",
                "atoms": [[pid, w] for pid, w in zip(model.ids, model.weights.tolist())]}
    if isinstance(model, GridIntensity):
        return {"type": "grid", "bounds": [list(b) for b in model.bounds],
                "shape": list(model.shape), "values": model.values.tolist()}
    if isinstance(model, SmoothIntensity):
        if model.expression is None:
            raise ParseError("smooth models built from raw callables have no "
                             "serialisable density expression")
        out: dict[str, Any] = {
            "type": "smooth",
            "bounds": [[lo, "inf" if math.isinf(hi) else hi]
                       for lo, hi in model.bounds],
            "density": model.expression,
            "quadrature": {"abs_tol": model.quadrature.abs_tol,
                           "max_subdivisions": model.quadrature.max_subdivisions},
        }
        if model.density_bound is not None:
            out["density_bound"] = model.density_bound
        return out
    if isinstance(model, ScaledIntensity):
        return {"type": "scale", "factor": model.factor,
                "inner": model_to_dict(model.inner)}
    if isinstance(model, SummedIntensity):
        return {"type": "sum", "parts": [model_to_dict(p) for p in model.parts]}
    raise ParseError(f"cannot serialise {type(model).__name__}")


def load_model(path) -> IntensityModel | MarkedModel:
    try:
        with open(path) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(spec)


def save_model(model, path):
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Point-pattern CSV
# ---------------------------------------------------------------------------

def _location_cells(loc):
    if isinstance(loc, tuple):
        return [_cell(v) for v in loc]
    return [_cell(loc)]


def _cell(v):
    return v if isinstance(v, str) else repr(float(v)) if isinstance(v, float) else repr(v)


def patterns_to_csv(patterns, fh):
    """Write patterns with a replicate id column."""
    dims = 1
    for pat in patterns:
        for loc, _ in pat.points:
            dims = max(dims, len(loc) if isinstance(loc, tuple) else 1)
    writer = csv.writer(fh)
    writer.writerow(["replicate"] + [f"loc_{i + 1}" for i in range(dims)]
                    + ["multiplicity"])
    for rep, pat in enumerate(patterns):
        for loc, mult in pat.points:
            cells = _location_cells(loc)
            cells += [""] * (dims - len(cells))
            writer.writerow([rep] + cells + [mult])


def pattern_from_csv(fh, discrete: bool = False) -> PointPattern:
    """Read one pattern; a replicate column, if present, is ignored."""
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        return PointPattern(())
    header = [h.strip() for h in header]
    loc_cols = [i for i, h in enumerate(header) if h.startswith("loc_")]
    if not loc_cols:
        raise ParseError("pattern file needs loc_1..loc_d columns")
    mult_col = header.index("multiplicity") if "multiplicity" in header else None
    points = []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        raw = [row[i].strip() for i in loc_cols if i < len(row) and row[i].strip() != ""]
        if discrete:
            loc: Any = raw[0]
        else:
            coords = tuple(float(v) for v in raw)
            loc = coords[0] if len(coords) == 1 else coords
        mult = 1
        if mult_col is not None and mult_col < len(row) and row[mult_col].strip():
            mult = int(row[mult_col])
        points.append((loc, mult))
    return PointPattern(tuple(points))


def load_pattern(path, discrete: bool = False) -> PointPattern:
    try:
        with open(path, newline="") as fh:
            return pattern_from_csv(fh, discrete=discrete)
    except OSError as exc:
        raise ParseError(f"cannot read pattern file {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad pattern file {path}: {exc}") from exc
