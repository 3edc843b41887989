"""Chernoff information of a pair of Poisson intensities, and a Bayes-risk
simulator checking the implied error exponent at desk scale.

The objective ``g(alpha) = (1 - alpha) * T_alpha`` is maximised over the
open unit interval.  It is ``integral (alpha f + (1 - alpha) g -
f^alpha g^(1-alpha))`` against the reference, and each pointwise term is
concave in alpha, so ``g`` is concave; for discrete intensities
(independent Poisson vectors) the integral is the sum over atoms, the
exponent governing the optimal test's error rate over many independent
observations.  Reference: Chernoff (1952), Ann. Math. Statist. 23:493.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import _one_mass_infinite, tsallis
from .errors import QuadratureFailure
from .extended import INF, log_ratios
from .likelihood import _sum_stat
from .measure import DensityPair, DiscreteIntensity
from . import sampler as _sampler

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_ALPHA_CLIP = 1e-6


@dataclass
class ChernoffResult:
    value: float
    argmax_alpha: float
    iterations: int
    bracket_width: float
    notes: list[str] = field(default_factory=list)


def chernoff_info(pair: DensityPair, alpha_tol: float = 1e-9) -> ChernoffResult:
    """Maximise ``(1 - alpha) * T_alpha`` over alpha in (0, 1).

    The objective is concave (see the module docstring), so one
    golden-section search over ``[1e-6, 1 - 1e-6]`` narrows its maximiser
    to ``alpha_tol``; ``iterations`` counts the objective evaluations.  A
    concave nonnegative ``h`` on [0, 1] has ``h(a) <= 2 h(1/2)``, so the
    objective is finite at every order or at none, and an infinite first
    evaluation reports an infinite supremum with a note.  Mutually singular
    intensities have a linear objective, with its supremum at an end of the
    interval, so a final bracket that reaches an end is compared with the
    end itself.  A smooth pair whose first evaluation raises
    :class:`QuadratureFailure` has an infinite supremum if exactly one total
    mass is infinite; otherwise (as for 1 against 2 on a half-line) it fails.
    """
    evals = 0

    def g(a: float) -> float:
        nonlocal evals
        evals += 1
        return (1.0 - a) * tsallis(pair, a).value

    a, b = lo, hi = _ALPHA_CLIP, 1.0 - _ALPHA_CLIP
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    try:
        f1 = g(x1)
    except QuadratureFailure:
        if not _one_mass_infinite(pair):
            raise
        f1 = INF
    if f1 == INF:
        return ChernoffResult(INF, 0.5, evals, hi - lo,
                              ["singular pair: divergence infinite at every "
                               "order in (0, 1)"])
    f2 = g(x2)
    while b - a > alpha_tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = g(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = g(x2)

    points = [(x1, f1), (x2, f2)]
    points += [(end, g(end)) for end in (lo, hi) if end in (a, b)]
    arg, value = max(points, key=lambda p: p[1])
    return ChernoffResult(value, arg, evals, b - a)


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

    logratio = log_ratios(f, g)
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
