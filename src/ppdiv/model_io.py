"""JSON intensity-model files and CSV point-pattern files.

Model files carry a ``type`` tag (``discrete``, ``grid``, ``smooth``,
``scale``, ``sum``, ``marked``).  Smooth densities are arithmetic
expressions in ``x`` (or ``x0, x1, ...``; mark densities use ``t`` and
``x``), compiled once into a tree of numpy closures (:func:`compile_density`)
and kept on the model so a written file re-parses to an equal model.

Pattern files have one row per point with columns ``loc_1 .. loc_d`` and
``multiplicity`` (default 1); sampled batches prepend a ``replicate`` column.
"""

from __future__ import annotations

import ast
import csv
import functools
import json
import math
import operator
from typing import Any

import numpy as np

from .errors import ParseError
from .measure import (DiscreteIntensity, GridIntensity, IntensityModel,
                      MarkedModel, PointPattern, ScaledIntensity,
                      SmoothIntensity, SummedIntensity)
from .quadrature import QuadratureSpec

# The allowed names: numpy ufuncs and constants.  min and max reduce, as a
# bare ufunc takes a third argument as ``out``.
_EXPR_NAMES = {
    "exp": np.exp, "log": np.log, "log1p": np.log1p, "expm1": np.expm1, "sqrt": np.sqrt,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "atan": np.arctan, "floor": np.floor,
    "ceil": np.ceil, "abs": np.abs, "pow": np.power, "pi": math.pi, "e": math.e,
    "inf": math.inf, "min": lambda *a: functools.reduce(np.minimum, a),
    "max": lambda *a: functools.reduce(np.maximum, a)}
# The allowed operators.  On arrays Python's operators are numpy's ufuncs;
# on the float64 scalars that floats become, they round as Python's do.
_OPERATORS = {getattr(ast, node): getattr(operator, op) for node, op in zip(
    "Add Sub Mult Div FloorDiv Mod Pow UAdd USub Lt LtE Gt GtE Eq NotEq".split(),
    "add sub mul truediv floordiv mod pow pos neg lt le gt ge eq ne".split())}


def _build(node, variables, slots):
    """The closure that evaluates ``node`` on the values of the variables it
    reads, numbered in ``slots``; a node outside the tables is a ParseError."""
    kind, fn, parts = type(node).__name__, None, []
    if kind == "Name" and node.id in variables:
        i = slots.setdefault(node.id, len(slots))
        return lambda env: env[i]
    if kind in ("Constant", "Name"):
        value = node.value if kind == "Constant" else _EXPR_NAMES.get(node.id)
        if type(value) in (int, float):
            value = np.float64(value)
            return lambda env: value
    elif kind == "IfExp":  # each branch runs only at the points that take it
        test, body, orelse = (_build(n, variables, slots)
                              for n in (node.test, node.body, node.orelse))

        def branch(env):
            take = test(env) != 0.0
            if take.all() or not take.any():
                return body(env) if take.all() else orelse(env)
            shape = np.broadcast_shapes(*map(np.shape, env))
            take, out = np.broadcast_to(take, shape), np.empty(shape)
            for run, where in ((body, take), (orelse, ~take)):
                out[where] = run([np.broadcast_to(v, shape)[where] for v in env])
            return out
        return branch
    elif kind == "Call" and type(node.func) is ast.Name and not node.keywords:
        fn, parts = _EXPR_NAMES.get(node.func.id), node.args
        fn = fn if len(parts) == getattr(fn, "nin", max(len(parts), 2)) else None
    elif kind in ("UnaryOp", "BinOp"):
        fn = _OPERATORS.get(type(node.op))
        parts = [node.operand] if kind == "UnaryOp" else [node.left, node.right]
    elif kind == "Compare":  # 1 where every part holds, else 0, as bools add up
        ops = [_OPERATORS.get(type(op)) for op in node.ops]
        fn = None if None in ops else lambda *v: functools.reduce(
            np.logical_and, [op(a, b) for op, a, b in zip(ops, v, v[1:])]) * 1.0
        parts = [node.left, *node.comparators]
    if not callable(fn):
        raise ParseError(f"density expression may not use {kind} {ast.unparse(node)!r}")
    parts = [_build(n, variables, slots) for n in parts]
    if len(parts) == 1:  # a direct call costs a quarter of a comprehension
        return lambda env: fn(parts[0](env))
    if len(parts) == 2:
        return lambda env: fn(parts[0](env), parts[1](env))
    return lambda env: fn(*[part(env) for part in parts])


def compile_density(expression: str, variables: tuple[str, ...]):
    """Compile an arithmetic expression, once, into a tree of numpy closures
    that takes one float or float64 array per variable (those it never reads
    stay as given) and returns a float or an array.  Numbers (integers become
    floats, so ``9**9**9`` overflows at once), the variables, ``_OPERATORS``,
    ``a if c else b`` and the ``_EXPR_NAMES`` (functions called by bare name)
    compile; anything else is a :class:`ParseError`.  A domain error or a
    negative, infinite or NaN value raises ``FloatingPointError`` naming the
    expression, an overflow :class:`_Overflow`."""
    slots: dict[str, int] = {}
    try:
        root = _build(ast.parse(expression, mode="eval").body, variables, slots)
    except (SyntaxError, OverflowError, RecursionError) as exc:
        raise ParseError(f"bad density expression {expression!r}: {exc}") from exc
    read = [variables.index(name) for name in slots]

    def density(*args):
        env = [np.asarray(args[i], dtype=float)[()] for i in read]
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        shape = arrays[0].shape if len(arrays) == 1 else np.broadcast(*arrays).shape
        try:
            with np.errstate(divide="raise", invalid="raise", over="call",
                             call=_raise_overflow):
                out = np.asarray(root(env), dtype=float)
        except FloatingPointError as exc:
            at = "on an array of points" if shape else f"at {args}"
            raise type(exc)(f"density {expression!r} {at}: {exc}") from exc
        out = out if out.shape == shape else np.broadcast_to(out, shape)
        if not shape and 0.0 <= (value := float(out)) < math.inf:
            return value  # a float check costs a twentieth of an array check
        ok = (out >= 0.0) & (out < math.inf)
        if np.count_nonzero(ok) != out.size:
            bad = np.flatnonzero(~ok)[0]
            at = ", ".join(str(a.flat[bad]) for a in np.broadcast_arrays(*args))
            raise FloatingPointError(f"density {expression!r} at ({at}): value "
                                     f"{float(out.flat[bad])!r} is not a finite nonnegative real")
        return out

    return density


class _Overflow(FloatingPointError, OverflowError):
    """An overflowing density value, which quadrature reads as divergence."""


def _raise_overflow(kind, flag):
    raise _Overflow(f"{kind} encountered")


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
            bounds = tuple((float(lo), float(hi)) for lo, hi in spec["bounds"])
            variables = (("x",) if len(bounds) == 1
                         else tuple(f"x{i}" for i in range(len(bounds))))
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


def model_to_dict(model) -> dict:
    if isinstance(model, DiscreteIntensity):
        return {"type": "discrete",
                "atoms": [[pid, w] for pid, w in zip(model.ids, model.weights.tolist())]}
    if isinstance(model, GridIntensity):
        if not model.equal_cells:
            raise ParseError("grids with unequal cells have no model-file form")
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

def _location_cells(pat) -> list:
    """CSV cells per location of ``pat``: strings as they are, else reprs."""
    if pat.coords is not None:
        return [list(map(repr, row)) for row in pat.coords.tolist()]
    return [[v if isinstance(v, str) else repr(float(v)) if isinstance(v, float)
             else repr(v) for v in (loc if isinstance(loc, tuple) else (loc,))]
            for loc in pat.ids]


def patterns_to_csv(patterns, fh):
    """Write patterns with a replicate id column."""
    cells = [_location_cells(pat) for pat in patterns]
    dims = max([1] + [len(row) for rows in cells for row in rows])
    writer = csv.writer(fh)
    writer.writerow(["replicate"] + [f"loc_{i + 1}" for i in range(dims)]
                    + ["multiplicity"])
    for rep, (pat, rows) in enumerate(zip(patterns, cells)):
        for row, mult in zip(rows, pat.mult.tolist()):
            writer.writerow([rep] + row + [""] * (dims - len(row)) + [mult])


def model_ids(texts, model) -> list:
    """Each text as the atom id of ``model`` (or of a marked model's base)
    whose ``str()`` it is, if any, else as it is."""
    model = (model.base if isinstance(model, MarkedModel) else model).flattened()
    ids = {str(pid): pid for pid in model.ids} if isinstance(model, DiscreteIntensity) else {}
    return [ids.get(text, text) for text in texts]


def pattern_from_csv(fh, discrete: bool | None = None, model=None) -> PointPattern:
    """Read one pattern; a replicate column, if present, is ignored.  A
    ``discrete`` pattern's locations are atom ids, read as text.  Given
    ``model`` instead, the pattern is discrete when the model is (a
    :class:`DiscreteIntensity` once flattened; a marked pattern is read as
    coordinates), and its ids are the model's whose ``str()`` they are
    (:func:`model_ids`)."""
    if model is not None:
        if discrete is not None:
            raise TypeError("pattern_from_csv takes discrete or model, not both")
        discrete = (not isinstance(model, MarkedModel)
                    and isinstance(model.flattened(), DiscreteIntensity))
    reader = csv.reader(fh)
    header = [h.strip() for h in next(reader, ["loc_1"])]  # an empty file has no points
    loc_cols = [i for i, h in enumerate(header) if h.startswith("loc_")]
    if not loc_cols:
        raise ParseError("pattern file needs loc_1..loc_d columns")
    mult_col = header.index("multiplicity") if "multiplicity" in header else None
    points = []
    for row in reader:
        if not row or all(not c.strip() for c in row):
            continue
        raw = [row[i].strip() for i in loc_cols if i < len(row) and row[i].strip() != ""]
        mult = row[mult_col].strip() if mult_col is not None and mult_col < len(row) else ""
        points.append((raw[0] if discrete else tuple(map(float, raw)), int(mult or 1)))
    if discrete and model is not None:
        points = list(zip(model_ids([loc for loc, _ in points], model),
                          [m for _, m in points]))
    return PointPattern(tuple(points))


def load_pattern(path, discrete: bool | None = None, model=None) -> PointPattern:
    try:
        with open(path, newline="") as fh:
            return pattern_from_csv(fh, discrete=discrete, model=model)
    except OSError as exc:
        raise ParseError(f"cannot read pattern file {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        raise ParseError(f"bad pattern file {path}: {exc}") from exc
