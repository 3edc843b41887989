"""Small helpers for nonnegative extended reals, the codomain [0, inf].

All divergence outputs are plain floats where ``math.inf`` is a legal
value and NaN never is.

Density ratios ``f/g`` of two densities in [0, inf) follow the
measure-theoretic conventions ``0/0 = 0`` and ``t/0 = inf`` for ``t > 0``.
:func:`log_ratios` is the only place they are applied: the log ratio is
``-inf`` where ``f = 0`` (so at ``0/0`` too), ``+inf`` where only
``g = 0``, and finite wherever both densities are positive, even when
``f/g`` itself leaves the float range.
"""

from __future__ import annotations

import math
import sys

import numpy as np

INF = math.inf

# Smallest normal float: a quotient below it has lost digits to underflow.
_TINY = sys.float_info.min


def ensure_extended(value: float, what: str = "value") -> float:
    """Validate that ``value`` lies in [0, inf]; NaN is always rejected."""
    v = float(value)
    if math.isnan(v):
        raise ValueError(f"{what} must not be NaN")
    if v < 0.0:
        raise ValueError(f"{what} must be nonnegative, got {v!r}")
    return v


def ext_fsum(values) -> float:
    """``math.fsum`` of nonnegative floats, with inf where the sum leaves
    the float range (``fsum`` raises on such an intermediate overflow);
    terms of both signs re-raise it, as their sum may still be finite."""
    try:
        return math.fsum(values)
    except OverflowError:
        if min(values) < 0.0:
            raise
        return INF


def ext_muls(a, b) -> np.ndarray:
    """Elementwise product of two float arrays on [0, inf], with 0 * inf = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # a * b may be inf
        return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)


def log_ratios(f, g) -> np.ndarray:
    """Elementwise ``log(f/g)`` of two float arrays under the ratio
    conventions of the module docstring: ``log(f/g)`` where the quotient is
    a normal finite float, ``log f - log g`` otherwise."""
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    with np.errstate(all="ignore"):
        q = f / g
        out = np.where((q >= _TINY) & (q < INF), np.log(q),
                       np.log(f) - np.log(g))
    return np.where(f == 0.0, -INF, out)


def fmt_extended(value: float):
    """JSON-safe rendering: infinities become the strings 'inf' / '-inf'."""
    if value == INF:
        return "inf"
    if value == -INF:
        return "-inf"
    return value
