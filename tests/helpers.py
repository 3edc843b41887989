"""Shared random-model builders for the test suite, and the scalar
references that the library's array code is tested against: the branchy
one-pair Poisson kernel, the direct Hellinger sum, the one-pair log ratio
and a ``math``-namespace evaluator of density expressions."""

from __future__ import annotations

import ast
import math

import numpy as np

from ppdiv import DiscreteIntensity, GridIntensity, common_reference, tsallis
from ppdiv.extended import _TINY, INF
from ppdiv.kernel import (_ALPHA_NEAR_ONE, _RATIO_HI, _RATIO_LO, _SERIES_Z,
                          _validate)

ATOM_IDS = tuple("abcdefghijkl")


def random_discrete(rng, n_atoms=None, allow_zeros=False, scale=5.0):
    n = n_atoms or int(rng.integers(2, 9))
    weights = rng.uniform(0.05, scale, size=n)
    if allow_zeros:
        mask = rng.uniform(size=n) < 0.25
        weights = np.where(mask, 0.0, weights)
    return DiscreteIntensity(tuple(zip(ATOM_IDS[:n], map(float, weights))))


def random_discrete_pair(rng, n_atoms=None, allow_zeros=False, scale=5.0):
    n = n_atoms or int(rng.integers(2, 9))
    a = random_discrete(rng, n, allow_zeros, scale)
    b = random_discrete(rng, n, allow_zeros, scale)
    return a, b, common_reference(a, b)


def random_grid(rng, n_cells=None, width=None, allow_zeros=False, scale=4.0):
    n = n_cells or int(rng.integers(2, 9))
    w = width or float(rng.uniform(0.5, 3.0))
    values = rng.uniform(0.05, scale, size=n)
    if allow_zeros:
        mask = rng.uniform(size=n) < 0.25
        values = np.where(mask, 0.0, values)
    return GridIntensity([(0.0, w)], [n], tuple(map(float, values)))


def random_grid_pair(rng, n_cells=None, allow_zeros=False, scale=4.0):
    n = n_cells or int(rng.integers(2, 9))
    w = float(rng.uniform(0.5, 3.0))
    a = random_grid(rng, n, w, allow_zeros, scale)
    b = random_grid(rng, n, w, allow_zeros, scale)
    return a, b, common_reference(a, b)


def random_pair(rng, allow_zeros=False):
    """Randomly a discrete or a grid pair, as the property suites want."""
    if rng.uniform() < 0.5:
        return random_discrete_pair(rng, allow_zeros=allow_zeros)
    return random_grid_pair(rng, allow_zeros=allow_zeros)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_chernoff(pair, alpha_tol=1e-9):
    """``(value, argmax)`` of ``(1 - a) tsallis(pair, a)`` over
    ``[1e-6, 1 - 1e-6]`` by one golden-section search, a final bracket
    that reaches an end being compared with the end itself: the reference
    for the Newton search of ``chernoff_info`` (finite objectives only)."""
    def h(a):
        return (1.0 - a) * tsallis(pair, a).value

    a, b = lo, hi = 1e-6, 1.0 - 1e-6
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = h(x1), h(x2)
    while b - a > alpha_tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = h(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = h(x2)
    points = [(x1, f1), (x2, f2)]
    points += [(end, h(end)) for end in (lo, hi) if end in (a, b)]
    arg, value = max(points, key=lambda p: p[1])
    return value, arg


def scalar_renyi_poisson(s: float, t: float, alpha: float) -> float:
    """The Renyi divergence of Poisson(s) from Poisson(t), order ``alpha``,
    one pair of means at a time with ``math`` functions and the same
    branches as the array kernel: its scalar reference."""
    s, t = float(s), float(t)
    _validate(s, t, alpha)
    alpha = float(alpha)
    if alpha == 0.0:
        return t if s == 0.0 else 0.0
    if s == t:
        return 0.0
    if s == 0.0:
        return t
    one_m = 1.0 - alpha
    if t == 0.0:
        return alpha / one_m * s if alpha < 1.0 else INF
    in_band = _RATIO_LO <= s / t <= _RATIO_HI
    if abs(one_m) <= _ALPHA_NEAR_ONE:
        # With L = log(s/t) and z = -(1-alpha) L the closed form is
        # s L + t - s + s L (expm1(z) - z) / z, which is the KL value at
        # z = 0 and has no 1/(1-alpha) left to cancel.
        if in_band:
            x = (s - t) / t
            log_ratio = math.log1p(x)
            kl = t * ((1.0 + x) * log_ratio - x)
        else:
            log_ratio = math.log(s) - math.log(t)
            kl = s * log_ratio + t - s
        z = -one_m * log_ratio
        if abs(z) < _SERIES_Z:
            excess = z * (1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0
                                                            + z / 120.0)))
        else:
            excess = (math.expm1(z) - z) / z
        value = kl + s * log_ratio * excess
    elif in_band:
        x = (s - t) / t
        value = t * (alpha * x - math.expm1(alpha * math.log1p(x))) / one_m
    else:
        try:
            cross = math.exp(alpha * math.log(s) + one_m * math.log(t))
        except OverflowError:
            cross = INF
        value = (alpha * s + one_m * t - cross) / one_m
    m = max(s, t)
    if not math.isfinite(value) and m > 1.0:
        # An intermediate overflowed (alpha * s, or inf - inf); by degree-one
        # homogeneity the means rescaled to at most 1 give the value, which
        # is then inf only when it truly exceeds the float range.
        value = m * scalar_renyi_poisson(s / m, t / m, alpha)
    return 0.0 if value < 0.0 else value


def exact_hellinger(pair) -> float:
    """Hellinger distance of a discrete or grid pair as the direct sum
    ``sqrt(0.5 * fsum(w (sqrt f - sqrt g)^2))`` over its support: the
    reference for ``hellinger_measures``, which reads ``T_1/2``."""
    w, f, g = pair.support_terms()
    return math.sqrt(0.5 * math.fsum(w * (np.sqrt(f) - np.sqrt(g)) ** 2))


def log_ratio(f: float, g: float) -> float:
    """``log(f/g)`` of one pair under the ratio conventions of
    :mod:`ppdiv.extended` (``0/0 = 0``, ``t/0 = inf``): ``log(f/g)`` when
    the quotient is a normal finite float and ``log f - log g`` otherwise.
    The scalar reference of ``extended.log_ratios``."""
    if f == 0.0:
        return -INF
    if g == 0.0:
        return INF
    q = f / g
    if _TINY <= q < INF:
        return math.log(q)
    return math.log(f) - math.log(g)


MATH_NAMES = {
    "exp": math.exp, "log": math.log, "log1p": math.log1p, "expm1": math.expm1,
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "tan": math.tan,
    "atan": math.atan, "floor": math.floor, "ceil": math.ceil,
    "abs": abs, "min": min, "max": max, "pow": pow,
    "pi": math.pi, "e": math.e, "inf": math.inf,
}


def math_density(expression: str, variables: tuple[str, ...]):
    """A density expression as a callable of one float per variable,
    evaluated by ``eval`` in the ``math`` namespace with integer literals
    read as floats: the per-point reference of compiled densities.  A
    domain error or a negative, NaN or complex value raises
    ``FloatingPointError``."""
    tree = ast.parse(expression, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) is int:
            node.value = float(node.value)
    code = compile(tree, "<density>", "eval")

    def density(*args):
        try:
            value = eval(code, {"__builtins__": {}, **MATH_NAMES},
                         dict(zip(variables, args)))
        except (ValueError, ZeroDivisionError) as exc:
            raise FloatingPointError(f"density {expression!r}: {exc}") from exc
        if isinstance(value, complex) or not value >= 0.0:
            raise FloatingPointError(f"density {expression!r}: value {value!r}")
        return float(value)

    return density
