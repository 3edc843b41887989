"""Chernoff information of a pair of Poisson intensities, and a Bayes-risk
simulator checking the implied error exponent at desk scale.

The objective ``g(alpha) = (1 - alpha) * T_alpha`` is maximised over the
open unit interval; for discrete intensities (independent Poisson
vectors) ``g`` reduces to ``sum_k (alpha l_k + (1-alpha) m_k -
l_k^alpha m_k^(1-alpha))``, the exponent governing the optimal test's
error rate over many independent observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import tsallis
from .extended import INF
from .likelihood import _log_ratios, _sum_stat
from .measure import DensityPair, DiscreteIntensity
from . import sampler as _sampler

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ALPHA_CLIP = 1e-6
_COARSE_POINTS = 32


@dataclass
class ChernoffResult:
    value: float
    argmax_alpha: float
    iterations: int
    bracket_width: float
    notes: list[str] = field(default_factory=list)


def chernoff_info(pair: DensityPair, alpha_tol: float = 1e-9) -> ChernoffResult:
    """Maximise ``(1 - alpha) * T_alpha`` over alpha in (0, 1).

    A 32-point coarse scan locates the best basin (the objective is not
    assumed concave), golden-section search narrows it to ``alpha_tol``,
    and one parabolic refinement step polishes the result.  If the
    divergence is infinite at the right end of the scan it is infinite on
    a right neighbourhood of every order, so the supremum itself is
    infinite and reported with a note.
    """
    cache: dict[float, float] = {}

    def g(a: float) -> float:
        if a not in cache:
            t = tsallis(pair, a).value
            cache[a] = (1.0 - a) * t if t != INF else INF
        return cache[a]

    lo, hi = _ALPHA_CLIP, 1.0 - _ALPHA_CLIP
    coarse = np.linspace(lo, hi, _COARSE_POINTS)
    coarse_vals = [g(a) for a in coarse]
    if coarse_vals[-1] == INF:
        return ChernoffResult(INF, 0.5, len(coarse), hi - lo,
                              ["singular pair: divergence infinite at every "
                               "probed order"])
    best = int(np.argmax(coarse_vals))
    a, b = coarse[max(best - 1, 0)], coarse[min(best + 1, len(coarse) - 1)]

    iters = len(coarse)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = g(x1), g(x2)
    while b - a > alpha_tol:
        iters += 1
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)

    candidates = sorted(cache.items(), key=lambda kv: kv[1], reverse=True)[:3]
    vertex = _parabolic_vertex(candidates)
    if vertex is not None and lo < vertex < hi:
        iters += 1
        g(vertex)
    arg, value = max(cache.items(), key=lambda kv: kv[1])
    return ChernoffResult(value, arg, iters, b - a)


def _parabolic_vertex(points):
    if len(points) < 3:
        return None
    (x1, y1), (x2, y2), (x3, y3) = points
    denom = (x1 - x2) * (x1 - x3) * (x2 - x3)
    if denom == 0.0 or not all(map(math.isfinite, (y1, y2, y3))):
        return None
    a = (x3 * (y2 - y1) + x2 * (y1 - y3) + x1 * (y3 - y2)) / denom
    b = (x3 * x3 * (y1 - y2) + x2 * x2 * (y3 - y1) + x1 * x1 * (y2 - y3)) / denom
    if a >= 0.0:
        return None
    return -b / (2.0 * a)


def bayes_risk_sim(pair: DensityPair, prior0: float, n: int, trials: int,
                   seed):
    """Simulated Bayes risk of the optimal test between the two discrete
    intensities from ``n`` independent observations.

    Each trial draws the true hypothesis from the prior, then ``n``
    independent Poisson vectors under it, and applies the likelihood-ratio
    threshold test at ``log(prior1 / prior0)``.  Per-component counts are
    summed first (they are sufficient for the ratio), so a trial costs one
    Poisson vector draw.  Returns ``(risk, standard_error)``.
    """
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError("prior0 must lie in [0, 1]")
    if not isinstance(pair.reference, DiscreteIntensity):
        raise TypeError("the risk simulator works on discrete intensities "
                        "(independent Poisson vectors)")
    w, f, g = pair.support_terms()
    lam = w * f
    mu = w * g
    n = int(n)
    trials = int(trials)
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")

    logratio = _log_ratios(f, g)
    threshold = _log_prior_ratio(prior0)
    const = -float(n * (lam.sum() - mu.sum()))

    rng = _sampler.spawn_streams(seed, 1)[0]
    theta = rng.uniform(size=trials) >= prior0  # True -> hypothesis 1
    means = np.where(theta[:, None], mu[None, :], lam[None, :])
    counts = rng.poisson(n * means)
    stat = _sum_stat(counts, logratio) + const
    errors = int(np.sum((stat < threshold) != theta))
    risk = errors / trials
    se = math.sqrt(max(risk * (1.0 - risk), 1.0 / trials) / trials)
    return risk, se


def _log_prior_ratio(prior0: float) -> float:
    if prior0 == 0.0:
        return INF
    if prior0 == 1.0:
        return -INF
    return math.log((1.0 - prior0) / prior0)
