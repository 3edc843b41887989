"""Reference values computed apart from ppdiv, and the checks that compare.

Everything here is plain numpy: the Poisson Renyi kernel in closed form,
exact sums on refinements the benchmark builds itself, composite
Gauss-Legendre quadrature for smooth densities (a change of variables
for the half-line) and a dense grid for the Chernoff objective.  None of
it calls into ppdiv, and nothing is compared with saved output, so the
checks survive changes to ppdiv's sampler streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

INF = math.inf


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

@dataclass
class Check:
    """One comparison of a program output.  ``bad`` is a perturbed value
    that ``ok`` must reject; the self-check mode shows that it does."""

    name: str
    ok: Callable[[Any], bool]
    value: Any
    bad: Any

    def passed(self) -> bool:
        return bool(self.ok(self.value))


def close(name, got, want, rtol, atol=0.0) -> Check:
    got, want = float(got), float(want)
    tol = atol + rtol * abs(want) if math.isfinite(want) else 0.0

    def ok(v):
        v = float(v)
        if not math.isfinite(want):
            return v == want
        return abs(v - want) <= tol

    if not math.isfinite(got):
        bad = 1.0
    else:
        bad = got + 3.0 * tol + 1e-9 * max(1.0, abs(got))
    return Check(name, ok, got, bad)


def at_most(name, got, limit) -> Check:
    return Check(name, lambda v: float(v) <= limit, float(got),
                 limit + max(abs(limit) * 1e-3, 1e-9))


def at_least(name, got, limit) -> Check:
    return Check(name, lambda v: float(v) >= limit, float(got),
                 limit - max(abs(limit) * 1e-3, 1e-9))


def equal(name, got, want, bad) -> Check:
    return Check(name, lambda v: v == want, got, bad)


def inside(name, coords, box) -> Check:
    """Every coordinate row of ``coords`` lies in the closed box."""
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    pts = np.asarray(coords, dtype=float).reshape(-1, len(box))

    def ok(p):
        p = np.asarray(p, dtype=float).reshape(-1, len(box))
        return bool(np.all((p >= lo) & (p <= hi)))

    return Check(name, ok, pts, np.vstack([pts, hi + 1.0]))


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def renyi_kernel(s, t, alpha: float) -> np.ndarray:
    """Order-alpha Renyi divergence of Poisson(s) from Poisson(t), in
    closed form, elementwise; written as ``t * h(s/t - 1)`` with expm1 and
    log1p so that it stays accurate where s is close to t."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s, t = np.broadcast_arrays(s, t)
    if alpha == 0.0:
        return np.where(s == 0.0, t, 0.0)
    out = np.empty(s.shape)
    both = (s > 0) & (t > 0)
    x = s[both] / t[both] - 1.0
    if alpha == 1.0:
        out[both] = t[both] * ((1.0 + x) * np.log1p(x) - x)
    else:
        out[both] = t[both] * (alpha * x - np.expm1(alpha * np.log1p(x))) / (1.0 - alpha)
    s_zero = s == 0.0
    out[s_zero] = t[s_zero]
    t_zero = (t == 0.0) & (s > 0)
    out[t_zero] = alpha / (1.0 - alpha) * s[t_zero] if alpha < 1.0 else INF
    return np.maximum(out, 0.0)


def weighted_sum(w, values) -> float:
    """Sum of ``w * values`` on [0, inf] with 0 * inf = 0."""
    w = np.asarray(w, dtype=float)
    values = np.asarray(values, dtype=float)
    live = w > 0
    if np.any(np.isinf(values[live])):
        return INF
    return math.fsum((w[live] * values[live]).tolist())


def tsallis_sum(w, f, g, alpha) -> float:
    return weighted_sum(w, renyi_kernel(f, g, alpha))


def hellinger_sum(w, f, g) -> float:
    sq = (np.sqrt(f) - np.sqrt(g)) ** 2
    return math.sqrt(0.5 * weighted_sum(w, sq))


def chernoff_grid(w, f, g) -> float:
    """Maximum of ``(1 - a) T_a`` over a dense grid of orders, refined
    once around the best coarse order; accurate far below 1e-6 for the
    smooth concave objectives used here."""
    w, f, g = (np.asarray(v, dtype=float) for v in (w, f, g))
    with np.errstate(divide="ignore"):
        lf, lg = np.log(f), np.log(g)

    def objective(alphas):
        a = alphas[:, None]
        cross = np.exp(a * lf[None, :] + (1.0 - a) * lg[None, :])
        # (1 - a) T_a = sum w (a f + (1 - a) g - f^a g^(1-a))
        return (w[None, :] * (a * f[None, :] + (1.0 - a) * g[None, :] - cross)).sum(axis=1)

    coarse = np.linspace(0.0, 1.0, 401)[1:-1]
    vals = objective(coarse)
    best = coarse[int(np.argmax(vals))]
    fine = np.linspace(max(best - 2.5e-3, 1e-9), min(best + 2.5e-3, 1 - 1e-9), 1001)
    return float(max(vals.max(), objective(fine).max()))


# ---------------------------------------------------------------------------
# Quadrature for smooth densities
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gl_rule(lo: float, hi: float, panels: int = 8):
    """Composite 32-point Gauss-Legendre nodes and weights on [lo, hi];
    ``hi = inf`` maps [0, 1) onto [lo, inf) by x = lo + u / (1 - u)."""
    if math.isinf(hi):
        u, wu = gl_rule(0.0, 1.0, panels=4 * panels)
        return lo + u / (1.0 - u), wu / (1.0 - u) ** 2
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).reshape(-1)
    wx = (half[:, None] * _GL_WEIGHTS[None, :]).reshape(-1)
    return x, wx


def box_rule(bounds, panels: int = 8):
    """Tensor-product rule over a box: (list of coordinate arrays, weights)."""
    rules = [gl_rule(lo, hi, panels) for lo, hi in bounds]
    if len(rules) == 1:
        return [rules[0][0]], rules[0][1]
    mesh = np.meshgrid(*[r[0] for r in rules], indexing="ij")
    wmesh = np.meshgrid(*[r[1] for r in rules], indexing="ij")
    w = np.prod(np.stack([m.reshape(-1) for m in wmesh]), axis=0)
    return [m.reshape(-1) for m in mesh], w
