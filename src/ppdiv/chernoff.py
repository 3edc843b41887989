"""Chernoff information of a pair of Poisson intensities, and a Bayes-risk
simulator checking the implied error exponent at desk scale.

The objective ``h(alpha) = (1 - alpha) * T_alpha`` is maximised over the
open unit interval.  It is ``integral (alpha f + (1 - alpha) g -
f^alpha g^(1-alpha))`` against the reference (the sum over atoms for
independent Poisson vectors, the exponent of the optimal test's error
rate), and each term is concave in alpha, linear where a density
vanishes.  So Newton steps on ``h'(alpha) = integral (f - g -
f^alpha g^(1-alpha) log(f/g))``, with ``h''(alpha) = -integral f^alpha
g^(1-alpha) log(f/g)^2 <= 0``, start at 1/2 inside a bracket that each
slope shrinks, and bisect it when a step leaves it or ``h'' = 0``.
Reference: Chernoff (1952), Ann. Math. Statist. 23:493.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import _half_order
from .extended import INF
from .kernel import _renyi_poisson_array
from .likelihood import _loglr_batch
from .measure import DensityPair
from . import sampler as _sampler


@dataclass
class ChernoffResult:
    value: float
    argmax_alpha: float
    iterations: int
    bracket_width: float
    notes: list[str] = field(default_factory=list)


def chernoff_info(pair: DensityPair, alpha_tol: float = 1e-9) -> ChernoffResult:
    """Maximise ``(1 - alpha) * T_alpha`` over alpha in ``[1e-6, 1 - 1e-6]``.

    An end where the slope points out of the interval is the maximiser (as for
    mutually singular intensities); by concavity only the end that the slope
    at 1/2 points to is checked, and 1/2 is the maximiser where that slope is
    0.  Otherwise the Newton search of the module docstring, which starts
    from that slope, stops after a step no longer than ``alpha_tol``; the
    value sums or integrates :func:`_objective_terms` at the maximiser.
    ``iterations`` counts slope evaluations and ``bracket_width`` is the
    last step's length (0 at an end).
    As ``h`` is concave and nonnegative, ``h(a) <= 2 h(1/2)``: an infinite
    ``tsallis(pair, 1/2)`` reports an infinite supremum with a note
    (``iterations`` 1).  A smooth pair whose order-1/2 quadrature fails has an
    infinite supremum if exactly one total mass is infinite, and fails
    otherwise (as 1 against 2 on a half-line does).
    """
    lo, hi = 1e-6, 1.0 - 1e-6
    half = _half_order(pair)
    if half == INF:
        return ChernoffResult(INF, 0.5, 1, hi - lo, ["singular pair: divergence "
                                                     "infinite at every order in (0, 1)"])
    evals = []

    def slope(a: float) -> list[float]:
        evals.append(a)  # np.sum, not the slower fsum: the slope only steers
        return [v for v, _ in pair._integrals(lambda f, g, *_: _slope_terms(f, g, a), exact=False)]

    # by concavity 1/2 is the maximiser if h'(1/2) = 0, and otherwise only
    # the end that h'(1/2) points to can be
    a, (d1, d2) = 0.5, slope(0.5)
    step = 0.0 if d1 == 0.0 else hi - lo
    if d1 > 0.0 and slope(hi)[0] >= 0.0:
        a, step = hi, 0.0
    elif d1 < 0.0 and slope(lo)[0] <= 0.0:
        a, step = lo, 0.0
    while abs(step) > alpha_tol:
        lo, hi = (a, hi) if d1 > 0.0 else (lo, a)
        target = a - d1 / d2 if -INF < d2 < 0.0 else math.nan
        if not lo <= target <= hi:
            target = 0.5 * (lo + hi)
        step, a = target - a, target
        if abs(step) > alpha_tol:
            d1, d2 = slope(a)
    (value, _), = pair._integrals(lambda f, g, *_: _objective_terms(f, g, a)[None])
    return ChernoffResult(max(value, 0.0), a, len(evals), abs(step))


def _objective_terms(f: np.ndarray, g: np.ndarray, a: float) -> np.ndarray:
    """Pointwise terms ``(1 - a) K(f, g, a)`` of ``h(a)``, from the means
    scaled by a power of two near ``max(f, g)``: ``K`` can overflow near 1."""
    scale = np.ldexp(1.0, np.frexp(np.maximum(f, g))[1])
    return scale * ((1.0 - a) * _renyi_poisson_array(f / scale, g / scale, a))


def _slope_terms(f: np.ndarray, g: np.ndarray, a: float) -> np.ndarray:
    """Pointwise terms of ``h'(a)`` and ``h''(a)``, the rows of a ``(2, n)``
    array; where a density vanishes they are ``(f - g, 0)``."""
    out = np.stack([f - g, np.zeros_like(f)])
    both = (f > 0.0) & (g > 0.0)
    log_f, log_g = np.log(f[both]), np.log(g[both])
    with np.errstate(over="ignore"):  # an overflow is an infinite slope
        cross = np.exp(a * log_f + (1.0 - a) * log_g) * (log_f - log_g)
        out[0, both] -= cross
        out[1, both] = -cross * (log_f - log_g)
    return out


def bayes_risk_sim(pair: DensityPair, prior0: float, n: int, trials: int,
                   seed):
    """Simulated Bayes risk of the optimal test between the two intensities
    of any finite-mass pair from ``n`` independent observations.

    Each trial draws the true hypothesis from the prior (the second's trials
    are one binomial draw), then one pattern of ``n`` times its intensity,
    the pooled observations, and applies the likelihood-ratio test at
    ``log(prior1 / prior0)`` to its log ratio from the block loop of
    :func:`likelihood._loglr_batch`.  That loop raises :class:`InfiniteMass`
    when ``n`` times a mass is infinite or an exact mean is past numpy's
    Poisson limit, and :class:`InfiniteWindowMass` on a smooth pair with an
    unbounded domain.  Neither law need dominate the other: a point where
    only the second density vanishes has the log ratio ``+inf`` and decides
    for the first hypothesis.  Returns ``(risk, standard_error)``.
    """
    if not 0.0 <= prior0 <= 1.0:
        raise ValueError("prior0 must lie in [0, 1]")
    n, trials = int(n), int(trials)
    if n < 1 or trials < 1:
        raise ValueError("n and trials must be positive")
    threshold = _log_prior_ratio(prior0)
    rng = _sampler.spawn_streams(seed, 1)[0]
    trials1 = int(rng.binomial(trials, 1.0 - prior0))
    # the test decides for the second hypothesis below the threshold
    errors = int(np.count_nonzero(
        _loglr_batch(pair, trials - trials1, rng, True, n) < threshold))
    errors += int(np.count_nonzero(
        _loglr_batch(pair, trials1, rng, False, n) >= threshold))
    risk = errors / trials
    se = math.sqrt(max(risk * (1.0 - risk), 1.0 / trials) / trials)
    return risk, se


def _log_prior_ratio(prior0: float) -> float:
    if prior0 == 0.0:
        return INF
    if prior0 == 1.0:
        return -INF
    return math.log((1.0 - prior0) / prior0)
