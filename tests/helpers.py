"""Shared random-model builders for the test suite, and the scalar
references that the library's array code is tested against: the branchy
one-pair Poisson kernel, its pmf-summation oracle, the direct Hellinger
sum, the one-pair log ratio and a ``math``-namespace evaluator of density
expressions."""

from __future__ import annotations

import ast
import math

import numpy as np

from ppdiv import DiscreteIntensity, GridIntensity, common_reference, tsallis
from ppdiv.errors import NonConvergent
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


_ORACLE_BLOCK = 4096


def _log_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    return -mean + k * math.log(mean) - _log_factorial(k)


# log k! for k below _STIRLING_FROM, from math.lgamma
_STIRLING_FROM = 30
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(_STIRLING_FROM)])


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``log k!`` of integer-valued floats: a table below 30 and Stirling's
    series above, whose first omitted term is under 1e-16 there."""
    n = np.maximum(k, _STIRLING_FROM) + 1.0
    inv = 1.0 / n
    inv2 = inv * inv
    series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 / 1680.0)))
    stirling = (n - 0.5) * np.log(n) - n + 0.5 * math.log(2.0 * math.pi) + series
    small = k < _STIRLING_FROM
    return np.where(small, _LOG_FACTORIALS[np.where(small, k, 0).astype(int)],
                    stirling)


def _logsumexp(values) -> float:
    """``log(sum(exp(values)))`` without overflow; -inf for no mass."""
    values = np.asarray(values, dtype=float)
    top = float(values.max())
    if top == -INF:
        return -INF
    return top + math.log(float(np.sum(np.exp(values - top))))


def renyi_poisson_oracle(s: float, t: float, alpha: float,
                         tail_tol: float = 1e-14,
                         max_terms: int = 1_000_000) -> float:
    """Reference value by direct summation over the Poisson pmfs.

    Sums ``sum_k p_s(k)^alpha p_t(k)^(1-alpha)`` (or the pointwise KL sum
    at alpha = 1) until both pmf tails drop below ``tail_tol`` and, for
    alpha > 1, until the summand itself has passed its peak and become
    negligible.  The reference of the closed form in ``ppdiv.kernel``.
    """
    s, t = float(s), float(t)
    _validate(s, t, alpha)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    alpha = float(alpha)

    if alpha == 0.0:
        # -log p_t(support of p_s): full support for s > 0, {0} for s = 0
        return t if s == 0.0 else 0.0
    if s == 0.0 and t == 0.0:
        return 0.0
    if s == 0.0:
        # only the k = 0 term survives: log e^{-t(1-alpha)} / (alpha - 1) = t
        return t
    if t == 0.0:
        if alpha >= 1.0:
            return INF
        return -alpha * s / (alpha - 1.0)

    if alpha == 1.0:
        return _oracle_kl(s, t, tail_tol, max_terms)
    return _oracle_power(s, t, alpha, tail_tol, max_terms)


def _oracle_kl(s, t, tail_tol, max_terms):
    total = []
    cdf_s = cdf_t = 0.0
    k0 = 0
    while k0 < max_terms:
        k = np.arange(k0, min(k0 + _ORACLE_BLOCK, max_terms), dtype=float)
        lp_s = _log_pmf(k, s)
        lp_t = _log_pmf(k, t)
        p_s = np.exp(lp_s)
        total.append(float(np.sum(p_s * (lp_s - lp_t))))
        cdf_s += float(np.sum(p_s))
        cdf_t += float(np.sum(np.exp(lp_t)))
        k0 += len(k)
        if 1.0 - cdf_s < tail_tol and 1.0 - cdf_t < tail_tol:
            return max(math.fsum(total), 0.0)
    raise NonConvergent(f"KL summation exceeded {max_terms} terms")


def _oracle_power(s, t, alpha, tail_tol, max_terms):
    # The summand is proportional to peak^k / k!, a Poisson-shaped sequence
    # peaking near k = s^alpha t^(1-alpha); for alpha > 1 that peak can sit
    # far beyond both pmf tails and must be summed past explicitly.
    log_peak_mean = alpha * math.log(s) + (1.0 - alpha) * math.log(t)
    peak = math.exp(log_peak_mean) if log_peak_mean < 700 else INF
    if peak > max_terms:
        raise NonConvergent(
            f"summand peaks near k={peak:.3g}, beyond the {max_terms}-term budget")
    log_z = -INF
    cdf_s = cdf_t = 0.0
    k0 = 0
    log_tol = math.log(tail_tol)
    while k0 < max_terms:
        k = np.arange(k0, min(k0 + _ORACLE_BLOCK, max_terms), dtype=float)
        lp_s = _log_pmf(k, s)
        lp_t = _log_pmf(k, t)
        terms = alpha * lp_s + (1.0 - alpha) * lp_t
        log_z = _logsumexp([log_z, _logsumexp(terms)])
        cdf_s += float(np.sum(np.exp(lp_s)))
        cdf_t += float(np.sum(np.exp(lp_t)))
        k0 += len(k)
        tails_done = (1.0 - cdf_s < tail_tol) and (1.0 - cdf_t < tail_tol)
        past_peak = k0 > peak
        block_negligible = float(np.max(terms)) - log_z < log_tol
        if tails_done and past_peak and block_negligible:
            return max(log_z / (alpha - 1.0), 0.0)
    raise NonConvergent(f"summation exceeded {max_terms} terms")


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
