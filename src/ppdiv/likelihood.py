"""Exact log-likelihood ratios of Poisson point-pattern laws.

For finite intensities the log ratio of the two pattern laws at a pattern
is the mass difference plus the summed log density ratio over the points;
a pattern with a point where the ratio vanishes is outside the support
and gets ``-inf``.  For infinite-mass (sigma-finite) intensities it is the
limit over growing truncations ``S_n`` of the finite formula on ``S_n``,
``sum log phi + mu(S_n) - lambda(S_n)``; a pattern is finite, so the
limit is its point sum plus the integral of ``g - f`` over the domain.
The paper's compensated split over the band ``|log phi| <= 1`` has the
same value at every level and matters only for the existence of the
limit on infinite patterns.  A Monte Carlo estimator closes the loop
between likelihood ratios and divergences.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .divergence import _require_ac, _require_finite_hellinger
from .errors import (InfiniteMass, InvalidAlpha, NonConvergent,
                     NotAbsolutelyContinuous, QuadratureFailure)
from .extended import INF, log_ratios
from .measure import (DensityPair, GridIntensity, PointPattern,
                      SmoothIntensity, _as_ids, _coords, intensity_from_density)
from . import sampler as _sampler

# Values drawn per block of Monte Carlo patterns: Poisson counts (rows
# times cells) of an exact pair, expected thinning proposals of a smooth one.
_BLOCK = 2 ** 20


@dataclass
class LogLikelihoodResult:
    """Outcome of a log-likelihood-ratio evaluation."""

    in_support: bool
    log_lr: float
    truncation_trace: list[tuple[int, float]] | None = None
    converged: bool = True
    notes: list[str] = field(default_factory=list)


def _point_terms(ratios: np.ndarray, locations, mult=1) -> np.ndarray:
    """``mult * log phi`` at ``locations`` from their log ratios ``ratios``:
    ``-inf`` marks a point in the zero set of the ratio, and an infinite
    ratio, where the first intensity is not dominated, raises."""
    terms = mult * ratios
    hit = np.flatnonzero(terms == INF)
    if len(hit):
        i = int(hit[0])
        raise NotAbsolutelyContinuous(
            f"density ratio infinite at {_as_ids(locations[i:i + 1])[0]!r}; "
            "the first intensity is not dominated there")
    return terms


def log_lr_finite(pair: DensityPair, eta: PointPattern) -> LogLikelihoodResult:
    """Log ratio of the two pattern laws at ``eta`` for finite intensities.

    Requires both total masses finite and the first intensity dominated by
    the second.  The value is ``mu(S) - lambda(S) + sum mult * log phi``;
    a point in the zero set of the ratio puts the pattern outside the
    support (``-inf``).
    """
    lam, mu = pair.lambda_mass(), pair.mu_mass()
    if lam == INF or mu == INF:
        raise InfiniteMass("intensity masses must be finite; "
                           "use the sigma-finite evaluator")
    terms = _point_terms(_require_ac(pair, eta.locations), eta.locations, eta.mult)
    if -INF in terms:
        return LogLikelihoodResult(False, -INF)
    return LogLikelihoodResult(True, (mu - lam) + math.fsum(terms.tolist()))


class TruncatedLogLikelihood:
    """Evaluator of the sigma-finite log-likelihood exponent.

    ``S_n`` is the domain up to ``n``.  The value at a pattern is the point
    sum plus one integral of ``g - f`` over the domain, improper on a
    half-line; the trace of levels ``1..n_max`` comes from one run whose
    first panels are the unit segments (a sum per segment over the cells
    of a grid), and where it covers the domain its last level is that
    integral.  Both are computed on first use and serve every pattern.
    Finite Hellinger distance is required; its check computes no mass.
    Works on one-dimensional grid or smooth references whose domain starts
    at a finite left end.
    """

    def __init__(self, pair: DensityPair, n_max: int = 100):
        ref = pair.reference
        if not isinstance(ref, (GridIntensity, SmoothIntensity)):
            raise TypeError("sigma-finite evaluation needs a grid or smooth "
                            "reference; finite discrete pairs have exact "
                            "likelihood ratios already")
        if ref.ndim != 1:
            raise TypeError("sigma-finite evaluation is one-dimensional")
        if n_max < 1:
            raise ValueError("n_max must be >= 1")
        _require_ac(pair)
        _require_finite_hellinger(
            pair, "the likelihood ratio needs a finite hellinger distance")
        self.pair = pair
        self.n_max = int(n_max)
        hi = ref.bounds[0][1]
        # the last level of the trace, and whether S_top is the whole domain
        self._top = self.n_max if math.isinf(hi) else max(1, min(self.n_max, math.ceil(hi)))
        self._covers = hi <= self._top

    @cached_property
    def _gaps(self):
        """``mu(S_n) - lambda(S_n)`` for ``n = 1..top``, ``S_1`` from the
        domain's left end, and ``mu - lambda`` or its QuadratureFailure."""
        gap = lambda f, g, *_: (g - f)[None]
        (incs, _), = self.pair._integrals(gap, cuts=[-INF, *map(float, range(1, self._top + 1))])
        levels = np.cumsum(incs).tolist()
        if self._covers:
            return levels, levels[-1]
        try:
            (limit, _), = self.pair._integrals(gap)
        except QuadratureFailure as exc:
            limit = exc.with_traceback(None)
        return levels, limit

    def evaluate(self, eta: PointPattern, tol: float = 1e-8) -> LogLikelihoodResult:
        """The limit of the truncated exponent at ``eta``, with its trace.

        The trace ends at the first level holding every point whose value
        is less than ``tol`` from the limit, or at the domain's end; either
        gives ``converged=True``.  Otherwise it ends at ``n_max`` with
        ``converged=False`` and a note.  If the integral over the domain
        fails, the value is the last level, with ``converged=False`` and a
        note: the integral may diverge even where the levels converge, their
        unit-segment integrals cancelling."""
        terms = _point_terms(self.pair.log_ratio_at(eta.locations), eta.locations,
                             eta.mult)
        if -INF in terms:
            return LogLikelihoodResult(False, -INF, truncation_trace=[],
                                       converged=True)
        locs = _coords(eta.locations, 1)[:, 0]
        order = np.lexsort((terms, locs))
        # the sorted points and the pattern sums over the first k of them
        locs, sums = locs[order].tolist(), [0.0] + np.cumsum(terms[order]).tolist()
        levels, limit = self._gaps
        failed = isinstance(limit, QuadratureFailure)
        value = math.nan if failed else sums[-1] + limit  # no level is near a nan
        trace: list[tuple[int, float]] = []
        for n, gap in enumerate(levels, 1):
            k = bisect_right(locs, n)
            trace.append((n, sums[k] + gap))
            if k == len(locs) and abs(trace[-1][1] - value) < tol:
                return LogLikelihoodResult(True, value, trace, True)
        if self._covers:
            return LogLikelihoodResult(True, value, trace, True)
        if failed:
            return LogLikelihoodResult(True, trace[-1][1], trace, False, notes=[
                f"the integral over the domain failed; the value is the last level: {limit}"])
        return LogLikelihoodResult(True, value, trace, False, notes=[
            f"the trace did not come within tol={tol} of the limit by n_max={self.n_max}"])


def log_lr_sigma_finite(pair: DensityPair, eta: PointPattern,
                        n_max: int = 100, tol: float = 1e-8) -> LogLikelihoodResult:
    """One-shot sigma-finite evaluation; see :class:`TruncatedLogLikelihood`
    for batch use against a fixed pair."""
    return TruncatedLogLikelihood(pair, n_max=n_max).evaluate(eta, tol=tol)


def mc_divergence_estimate(pair: DensityPair, alpha: float, n_samples: int,
                           seed):
    """Monte Carlo estimate of the order-``alpha`` divergence of the two
    pattern laws through their likelihood ratio ``L = dP/dQ``.

    Order 1 averages ``log L`` under the first law.  Other orders estimate
    ``E_Q[L^alpha]`` and rescale its log: above 1/2 by the mean of
    ``L^(alpha - 1)`` under the first law, else of ``L^alpha`` under the
    second (their variances, from ``E_Q[L^(2 alpha - 1)]`` and
    ``E_Q[L^(2 alpha)]``, are equal at 1/2).  Returns ``(estimate,
    standard_error)`` from ``n_samples >= 2`` log ratios drawn by
    :func:`_loglr_batch`, reproducible given ``(seed, n_samples)``.
    Raises :class:`NonConvergent` when the ratio power averages to 0 or
    past the float range, and :class:`NotAbsolutelyContinuous` where the
    second density vanishes at a probe point, an atom or cell of the first,
    or (orders of at least 1) a drawn point, which adds 0 below order 1.
    """
    if not 0.0 < alpha <= 2.0:
        raise InvalidAlpha("monte carlo estimation is restricted to "
                           f"alpha in (0, 2], got {alpha!r}")
    _require_ac(pair)
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    rng = _sampler.spawn_streams(seed, 1)[0]

    first = alpha > 0.5
    ll = _loglr_batch(pair, n_samples, rng, first)
    if alpha > 1.0 - 1e-12 and (ll == INF).any():  # a point between the probes where g = 0
        raise NotAbsolutelyContinuous(
            "a point drawn under the first law is where the second density vanishes")
    if abs(alpha - 1.0) < 1e-12:
        est = float(np.mean(ll))
        se = float(np.std(ll, ddof=1) / math.sqrt(len(ll)))
        return est, se
    with np.errstate(over="ignore"):  # an overflow is an average past the float range
        x = np.exp((alpha - 1.0 if first else alpha) * ll)  # exp(-inf) -> 0
        m = float(np.mean(x))
        if not 0.0 < m < INF:
            raise NonConvergent(f"the ratio power averages to {m!r}: no drawn pattern is "
                                "in both laws' support, or the power leaves the float range")
        se_m = float(np.std(x, ddof=1) / math.sqrt(len(x)))
    return math.log(m) / (alpha - 1.0), se_m / (abs(alpha - 1.0) * m)


def _loglr_batch(pair, size, rng, sample_from_first, n=1):
    """``n (mu(S) - lambda(S))`` plus the point log-ratio sum of each of
    ``size`` patterns, each pooling ``n`` independent ones under the first
    law (or the second), in blocks of at most about ``_BLOCK`` values: a
    row of Poisson counts per pattern of an exact pair (:func:`_sum_stat`),
    or the points of ``n`` thinned patterns of a smooth pair.  Either way a
    pattern with a point where only the first density vanishes sums to
    ``-inf``, and one with a point where only the second does to ``+inf``.
    Raises :class:`InfiniteMass` unless ``n`` times each mass, and so ``n``
    times every mean, is finite."""
    lam, mu = pair.lambda_mass(), pair.mu_mass()
    if n * lam == INF or n * mu == INF:
        raise InfiniteMass(f"monte carlo draws of {n} observation(s) need finite masses")
    base = -float(n * (lam - mu))
    if pair.is_exact:
        w, f, g = pair.support_terms()
        means = n * (w * (f if sample_from_first else g))
        logratio = log_ratios(f, g)
        block = max(1, _BLOCK // max(1, len(means)))

        def draw(k):
            return _sum_stat(_sampler._poisson_rows(means, k, rng), logratio)
    else:
        model = intensity_from_density(pair.reference, pair.f if sample_from_first else pair.g)
        bound, mean = _sampler._proposal_rate(model, model.bounds)
        # the probe-grid bound is deterministic: one estimate serves every block
        model = SmoothIntensity(model.bounds, model.density, model.quadrature, bound)
        block = max(1, int(_BLOCK / max(n * mean, 1.0)))

        def draw(k):
            # pattern i pools the n thinned patterns n i, ..., n i + n - 1
            coords, which = _sampler._thin(model, model.bounds, rng, k * n)
            return np.bincount(which // n, weights=pair.log_ratio_at(coords), minlength=k)
    out = np.empty(size)
    # no patterns still draw one empty block, whose mean checks raise
    for start in range(0, max(size, 1), block):
        k = min(block, size - start)
        out[start:start + k] = base + draw(k)
    return out


def _sum_stat(counts: np.ndarray, logratio: np.ndarray) -> np.ndarray:
    """Per-row ``counts @ logratio`` with ``0 * inf = 0``: a row with a
    positive count on an infinite log ratio takes that infinity."""
    finite = np.isfinite(logratio)
    if finite.all():
        return counts @ logratio
    stat = counts[:, finite] @ logratio[finite]
    for j in np.nonzero(~finite)[0]:
        hit = counts[:, j] > 0
        stat = np.where(hit, logratio[j], stat)
    return stat
