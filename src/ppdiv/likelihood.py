"""Exact log-likelihood ratios of Poisson point-pattern laws.

For finite intensities the log ratio of the two pattern laws at a pattern
is the mass difference plus the summed log density ratio over the points;
a pattern with a point where the ratio vanishes is outside the support
and gets ``-inf``.  For infinite-mass (sigma-finite) intensities the
exponent is evaluated as a compensated four-term split over the region
where ``|log phi| <= 1`` and its complement, iterated over growing
truncations until the value stabilises.  A Monte Carlo estimator closes
the loop between likelihood ratios and divergences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .divergence import _require_ac, hellinger_measures
from .errors import (InfiniteHellinger, InfiniteMass, InvalidAlpha,
                     NotAbsolutelyContinuous, QuadratureFailure)
from .extended import INF, log_ratio, log_ratios
from .measure import (DensityPair, DiscreteIntensity, GridIntensity,
                      PointPattern, SmoothIntensity, intensity_from_density)
from .quadrature import integrate_1d
from . import sampler as _sampler

# Points with |log phi| exactly 1 belong to the compensated region.
_LOG_BAND = 1.0


@dataclass
class LogLikelihoodResult:
    """Outcome of a log-likelihood-ratio evaluation."""

    in_support: bool
    log_lr: float
    truncation_trace: list[tuple[int, float]] | None = None
    converged: bool = True
    notes: list[str] = field(default_factory=list)


def _point_terms(pair: DensityPair, eta: PointPattern) -> np.ndarray:
    """``mult * log phi`` at each point of ``eta``; ``-inf`` marks a point
    in the zero set of the ratio, and a point where it is infinite raises."""
    locs = [loc for loc, _ in eta.points]
    mult = np.array([m for _, m in eta.points], dtype=float)
    terms = mult * pair.log_ratio_at(locs)
    if INF in terms:
        raise NotAbsolutelyContinuous(
            f"density ratio infinite at {locs[terms.tolist().index(INF)]!r}; "
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
    _require_ac(pair)
    terms = _point_terms(pair, eta)
    if -INF in terms:
        return LogLikelihoodResult(False, -INF)
    return LogLikelihoodResult(True, (mu - lam) + math.fsum(terms.tolist()))


class TruncatedLogLikelihood:
    """Evaluator of the sigma-finite log-likelihood exponent.

    Precomputes, per truncation level ``n``, the three deterministic
    integrals of the split (the compensator of the band term, the band
    correction, and the tail mass term), so that many patterns can be
    evaluated against one pair cheaply.  Works on one-dimensional grid or
    smooth references whose domain starts at a finite left end.
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
        try:
            h = hellinger_measures(pair)
        except QuadratureFailure as exc:
            raise InfiniteHellinger(
                "hellinger distance is not certifiably finite") from exc
        if h == INF:
            raise InfiniteHellinger(
                "the likelihood ratio needs a finite hellinger distance")
        self.pair = pair
        self.n_max = int(n_max)
        self.lo, self.hi = ref.bounds[0]
        # cumulative deterministic terms, index n-1
        self._comp: list[float] = []
        self._band: list[float] = []
        self._tail: list[float] = []

    # -- deterministic integrals ------------------------------------------

    def _extend_to(self, n: int):
        while len(self._comp) < n:
            level = len(self._comp) + 1
            seg_lo = max(self.lo, float(level - 1))
            seg_hi = min(self.hi, float(level))
            prev = (self._comp[-1], self._band[-1], self._tail[-1]) \
                if self._comp else (0.0, 0.0, 0.0)
            if seg_hi <= seg_lo:
                comp_inc = band_inc = tail_inc = 0.0
            else:
                comp_inc, band_inc, tail_inc = self._segment(seg_lo, seg_hi)
            self._comp.append(prev[0] + comp_inc)
            self._band.append(prev[1] + band_inc)
            self._tail.append(prev[2] + tail_inc)

    def _segment(self, lo: float, hi: float):
        pair = self.pair
        ref = pair.reference
        # On the band |log phi| <= 1 the ratio f/g lies in [1/e, e]; off
        # it the tail term (1 - f/g) g is written (g - f), which stays
        # finite where f/g leaves the float range.
        if isinstance(ref, GridIntensity):
            (glo, _), step = ref.bounds[0], ref.steps[0]
            edges = glo + np.arange(ref.shape[0] + 1) * step
            refmass = ref.values * np.maximum(
                np.minimum(edges[1:], hi) - np.maximum(edges[:-1], lo), 0.0)
            f, g = pair.f, pair.g
            logphi = log_ratios(f, g)
            on = np.abs(logphi) <= _LOG_BAND
            lr, mu_mass = logphi[on], g[on] * refmass[on]
            return (math.fsum((lr * mu_mass).tolist()),
                    math.fsum(((lr + 1.0 - f[on] / g[on]) * mu_mass).tolist()),
                    math.fsum(((g - f)[~on] * refmass[~on]).tolist()))

        f, g, refdens = pair.f, pair.g, ref.density
        spec = ref.quadrature

        def split(x):
            """Compensator, band and tail integrands at ``x``."""
            fv, gv = f(x), g(x)
            lr = log_ratio(fv, gv)
            if abs(lr) <= _LOG_BAND:
                mu_dens = gv * refdens(x)
                return lr * mu_dens, (lr + 1.0 - fv / gv) * mu_dens, 0.0
            return 0.0, 0.0, (gv - fv) * refdens(x)

        comp, _ = integrate_1d(lambda x: split(x)[0], lo, hi, spec)
        band, _ = integrate_1d(lambda x: split(x)[1], lo, hi, spec)
        tail, _ = integrate_1d(lambda x: split(x)[2], lo, hi, spec)
        return comp, band, tail

    # -- evaluation --------------------------------------------------------

    def evaluate(self, eta: PointPattern, tol: float = 1e-8) -> LogLikelihoodResult:
        """Iterate the truncated exponent until successive levels past the
        last pattern point differ by less than ``tol``, the truncation
        covers the whole domain, or ``n_max`` is hit (then
        ``converged=False`` with the trace kept)."""
        terms = _point_terms(self.pair, eta)
        if -INF in terms:
            return LogLikelihoodResult(False, -INF, truncation_trace=[],
                                       converged=True)
        locs = np.array([float(loc) for loc, _ in eta.points])
        order = np.lexsort((terms, locs))
        locs, contribs = locs[order], terms[order]

        trace: list[tuple[int, float]] = []
        prev = None
        for n in range(1, self.n_max + 1):
            self._extend_to(n)
            pat = float(contribs[locs <= n].sum()) if len(locs) else 0.0
            ell = (pat - self._comp[n - 1] + self._band[n - 1]
                   + self._tail[n - 1])
            trace.append((n, ell))
            if self.hi <= n:
                return LogLikelihoodResult(True, ell, trace, True)
            # The step from the previous level is trusted only once that
            # level held every pattern point: a point's log-ratio can cancel
            # the compensator increment of the level it falls in.
            settled = not len(locs) or locs[-1] <= n - 1
            if prev is not None and settled and abs(ell - prev) < tol:
                return LogLikelihoodResult(True, ell, trace, True)
            prev = ell
        return LogLikelihoodResult(
            True, trace[-1][1], trace, False,
            notes=[f"no convergence within n_max={self.n_max}"])


def log_lr_sigma_finite(pair: DensityPair, eta: PointPattern,
                        n_max: int = 100, tol: float = 1e-8) -> LogLikelihoodResult:
    """One-shot sigma-finite evaluation; see :class:`TruncatedLogLikelihood`
    for batch use against a fixed pair."""
    return TruncatedLogLikelihood(pair, n_max=n_max).evaluate(eta, tol=tol)


def mc_divergence_estimate(pair: DensityPair, alpha: float, n_samples: int,
                           seed):
    """Monte Carlo estimate of the order-``alpha`` divergence of the two
    pattern laws through the likelihood ratio.

    At ``alpha = 1`` this averages the log ratio under the first law; away
    from 1 it averages the ratio to the power ``alpha`` under the second
    law and rescales the log.  Returns ``(estimate, standard_error)``.
    Reproducible given ``(seed, n_samples)``.
    """
    if not 0.0 < alpha <= 2.0:
        raise InvalidAlpha("monte carlo estimation is restricted to "
                           f"alpha in (0, 2], got {alpha!r}")
    lam, mu = pair.lambda_mass(), pair.mu_mass()
    if lam == INF or mu == INF:
        raise InfiniteMass("monte carlo estimation needs finite intensities")
    _require_ac(pair)
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = _sampler.spawn_streams(seed, 1)[0]

    sample_from_first = abs(alpha - 1.0) < 1e-12
    batch = _exact_loglr_batch if pair.is_exact else _smooth_loglr_batch
    ll = batch(pair, mu - lam, n_samples, rng, sample_from_first)

    if sample_from_first:
        est = float(np.mean(ll))
        se = float(np.std(ll, ddof=1) / math.sqrt(len(ll)))
        return est, se
    x = np.exp(alpha * ll)  # exp(-inf) -> 0 for out-of-support patterns
    m = float(np.mean(x))
    se_m = float(np.std(x, ddof=1) / math.sqrt(len(x)))
    est = math.log(m) / (alpha - 1.0)
    se = se_m / (abs(alpha - 1.0) * m)
    return est, se


def _exact_loglr_batch(pair, base, size, rng, sample_from_first):
    # Counts per atom/cell are sufficient for the log ratio, so whole
    # batches reduce to one Poisson draw per support element.
    w, f, g = pair.support_terms()
    means = w * (f if sample_from_first else g)
    logphi = log_ratios(f, g)
    counts = rng.poisson(means, size=(size, len(means)))
    return base + _sum_stat(counts, logphi)


def _sum_stat(counts: np.ndarray, logratio: np.ndarray) -> np.ndarray:
    """Per-row ``counts @ logratio`` with ``0 * inf = 0``: a row with a
    positive count on an infinite log ratio takes that infinity."""
    finite = np.isfinite(logratio)
    stat = counts[:, finite] @ logratio[finite]
    for j in np.nonzero(~finite)[0]:
        hit = counts[:, j] > 0
        stat = np.where(hit, logratio[j], stat)
    return stat


def _smooth_loglr_batch(pair, base, size, rng, sample_from_first):
    dens = pair.f if sample_from_first else pair.g
    model = intensity_from_density(pair.reference, dens)
    if not model.has_unbounded_domain:
        # The probe-grid bound is deterministic, so estimating it once per
        # batch leaves every draw unchanged.
        model = SmoothIntensity(model.bounds, model.density, model.quadrature,
                                _sampler._density_bound(model, model.bounds))
    out = np.empty(size)
    for i in range(size):
        eta = _sampler.sample_pp(model, window=None, seed=rng)
        out[i] = base + math.fsum(_point_terms(pair, eta).tolist())
    return out
