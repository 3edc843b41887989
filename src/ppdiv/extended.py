"""Small helpers for nonnegative extended reals, the codomain [0, inf].

All divergence outputs are plain floats where ``math.inf`` is a legal
value and NaN never is.

Density ratios ``f/g`` of two densities in [0, inf) follow the
measure-theoretic conventions ``0/0 = 0`` and ``t/0 = inf`` for ``t > 0``.
:func:`log_ratio` and :func:`log_ratios` are the only place they are
applied: the log ratio is ``-inf`` where ``f = 0`` (so at ``0/0`` too),
``+inf`` where only ``g = 0``, and finite wherever both densities are
positive, even when ``f/g`` itself leaves the float range.
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


def ext_mul(a: float, b: float) -> float:
    """Product on [0, inf] with the measure-theoretic rule 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def log_ratio(f: float, g: float) -> float:
    """``log(f/g)`` under the ratio conventions of the module docstring.

    Takes ``log(f/g)`` when the quotient is a normal finite float and
    ``log f - log g`` otherwise.  Scalar form for quadrature integrands,
    which call it one point at a time; arrays go through
    :func:`log_ratios`.
    """
    if f == 0.0:
        return -INF
    if g == 0.0:
        return INF
    q = f / g
    if _TINY <= q < INF:
        return math.log(q)
    return math.log(f) - math.log(g)


def log_ratios(f, g) -> np.ndarray:
    """Elementwise :func:`log_ratio` of two float arrays."""
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
