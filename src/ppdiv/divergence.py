"""Divergences of intensity measures and of the Poisson point-pattern laws
they induce, plus absolute-continuity diagnostics.

Every computation reduces to integrating the Poisson kernel of the two
densities pointwise against the shared reference, through the one entry
``DensityPair._integrals``: an exact weighted sum of the array kernel for
discrete and grid pairs, and for smooth pairs adaptive quadrature whose
integrand evaluates the densities and the array kernel on all nodes of a
round at once.  The Hellinger distance is ``sqrt(T_1/2 / 2)`` for every
pair.
Outputs live in [0, inf].  For smooth pairs an integrand that is infinite
on a probe set of positive reference mass yields inf directly; as the
kernel is inf exactly where ``alpha >= 1``, ``f > 0`` and ``g = 0``, that
test is the pair's one domination decision, ``DensityPair._undominated``,
which :func:`_require_ac` reads too.  A divergent but pointwise-finite
integral surfaces as :class:`QuadratureFailure` with a possibly-infinite
note, since quadrature cannot certify inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (InfiniteHellinger, NotAbsolutelyContinuous,
                     QuadratureFailure)
from .extended import INF
from .kernel import _renyi_poisson_array, _validate_alpha
from .measure import (DensityPair, IntensityModel, density_values,
                      intensity_from_density)

_ZERO_TOL = 1e-12


@dataclass
class DivergenceReport:
    """One divergence evaluation: order, value, and numeric provenance."""

    alpha: float
    value: float
    quadrature_error_estimate: float = 0.0
    notes: list[str] = field(default_factory=list)


class AcRelation(enum.Enum):
    MUTUALLY_AC = "MutuallyAC"
    ABSOLUTELY_CONTINUOUS = "AbsolutelyContinuous"
    MUTUALLY_SINGULAR = "MutuallySingular"
    NEITHER = "Neither"


@dataclass
class AcVerdict:
    """Numeric absolute-continuity/singularity verdict for a pair of
    Poisson point-pattern laws.

    ``forward`` refers to the first law being dominated by the second.
    The verdicts are numeric, not measure-theoretic: order-0 divergences
    below 1e-12 count as zero and quadrature success counts as finite.
    """

    relation: AcRelation
    t0_forward: float
    t0_backward: float
    hellinger_sq: float
    forward_ac: bool
    backward_ac: bool
    notes: list[str] = field(default_factory=list)


def tsallis(pair: DensityPair, alpha: float) -> DivergenceReport:
    """Order-``alpha`` Tsallis divergence of the pair's intensities.

    Equals the integral of ``renyi_poisson(f(x), g(x), alpha)`` against
    the reference measure, and thereby the order-``alpha`` Renyi
    divergence of the induced point-pattern laws for ``alpha > 0``.
    Computed once per pair and order; each call gets a report of its own.
    """
    alpha = _validate_alpha(alpha)
    report = pair._memoised(alpha, lambda: _tsallis(pair, alpha))
    return replace(report, notes=list(report.notes))


def _tsallis(pair: DensityPair, alpha: float) -> DivergenceReport:
    if not pair.is_exact and alpha >= 1.0 and pair._undominated is not None:
        return DivergenceReport(alpha, INF, 0.0,
                                ["integrand infinite at probe points"])
    (value, err), = pair._integrals(lambda f, g, *_: _renyi_poisson_array(f, g, alpha)[None])
    if value == INF:
        return DivergenceReport(alpha, INF, 0.0,
                                ["integrand infinite on positive mass"])
    return DivergenceReport(alpha, max(value, 0.0), err)


def kl_pp(pair: DensityPair) -> DivergenceReport:
    """Kullback-Leibler divergence of the induced point-pattern laws."""
    report = tsallis(pair, 1.0)
    report.notes.append("kullback-leibler (order-1) divergence")
    return report


def renyi_pp(pair: DensityPair, alpha: float) -> DivergenceReport:
    """Renyi divergence of the induced point-pattern laws.

    For ``alpha > 0`` this is the order-``alpha`` Tsallis divergence of
    the intensities.  At ``alpha = 0`` the equality additionally needs a
    finite divergence at some positive order; that is probed at 1/2 and a
    failed probe is flagged in the notes.
    """
    if alpha > 0.0:
        return tsallis(pair, alpha)
    report = tsallis(pair, 0.0)
    try:
        probe_value = tsallis(pair, 0.5).value
    except QuadratureFailure:
        probe_value = INF
    if probe_value == INF:
        report.notes.append(
            "order-0 equality with the point-pattern renyi divergence not "
            "established: order-1/2 divergence is infinite")
    return report


def hellinger_measures(pair: DensityPair) -> float:
    """Hellinger distance ``sqrt(0.5 * integral (sqrt f - sqrt g)^2 dnu)``.

    Twice its square equals the order-1/2 Tsallis divergence, so the value
    is ``sqrt(T_1/2 / 2)`` for every pair, read from the pair's memoised
    order 1/2; no mass is computed on the way.  When a smooth pair's
    quadrature of ``T_1/2`` fails, the distance is inf if exactly one of the
    two total masses is infinite, which certifies it, and the failure is
    raised as :class:`QuadratureFailure` otherwise.
    """
    return math.sqrt(_half_order(pair) / 2.0)


def _half_order(pair: DensityPair) -> float:
    """``T_1/2`` of the pair, or inf where its quadrature fails on a smooth
    pair with exactly one infinite total mass, by the reverse triangle
    inequality ``|| sqrt f - sqrt g ||_2 >= | sqrt(lambda(S)) - sqrt(mu(S)) |``."""
    try:
        return tsallis(pair, 0.5).value
    except QuadratureFailure:
        if (pair.lambda_mass() == INF) == (pair.mu_mass() == INF):
            raise
        return INF


def _require_finite_hellinger(pair: DensityPair, message: str):
    """Raise :class:`InfiniteHellinger`, with ``message`` where the distance
    is inf, unless the pair's Hellinger distance is certifiably finite."""
    try:
        h = hellinger_measures(pair)
    except QuadratureFailure as exc:
        raise InfiniteHellinger(
            "hellinger distance is not certifiably finite") from exc
    if h == INF:
        raise InfiniteHellinger(message)


def hellinger_pp(pair: DensityPair) -> float:
    """Hellinger distance of the induced point-pattern laws:
    ``sqrt(1 - exp(-H^2))`` for the intensities' distance H, hence in
    [0, 1] with 1 exactly at infinite H."""
    h = hellinger_measures(pair)
    if h == INF:
        return 1.0
    return math.sqrt(-math.expm1(-h * h))


def classify_pp_relation(pair: DensityPair) -> AcVerdict:
    """Relate the two induced point-pattern laws.

    The first law is dominated by the second iff the order-0 divergence
    in the reversed direction vanishes and the Hellinger distance is
    finite; intensities of finite mass are mutually singular iff the
    forward order-0 divergence equals the second measure's total mass;
    mutually dominating intensities obey an all-or-nothing dichotomy in
    the finiteness of the Hellinger distance.
    """
    notes: list[str] = []
    t0_fwd = tsallis(pair, 0.0).value
    t0_bwd = tsallis(pair.swapped(), 0.0).value
    try:
        h = hellinger_measures(pair)
        h2 = h * h
    except QuadratureFailure:
        h2 = INF
        notes.append("hellinger quadrature diverged; treated as infinite")

    forward_ac = t0_bwd < _ZERO_TOL and h2 < INF
    backward_ac = t0_fwd < _ZERO_TOL and h2 < INF

    if forward_ac and backward_ac:
        relation = AcRelation.MUTUALLY_AC
    elif forward_ac or backward_ac:
        relation = AcRelation.ABSOLUTELY_CONTINUOUS
    else:
        relation = AcRelation.NEITHER
        mu_mass = pair.mu_mass()
        lam_mass = pair.lambda_mass()
        if (mu_mass < INF and lam_mass < INF
                and abs(t0_fwd - mu_mass) <= _ZERO_TOL * (1.0 + mu_mass)):
            relation = AcRelation.MUTUALLY_SINGULAR
            notes.append("intensities are mutually singular")
        elif t0_fwd < _ZERO_TOL and t0_bwd < _ZERO_TOL and h2 == INF:
            relation = AcRelation.MUTUALLY_SINGULAR
            notes.append("mutually dominating intensities at infinite "
                         "hellinger distance")
    return AcVerdict(relation, t0_fwd, t0_bwd, h2, forward_ac, backward_ac,
                     notes)


def dominating_intensity(pair: DensityPair) -> IntensityModel:
    """Intensity whose law dominates both laws of the pair.

    Uses the density ``h = ((sqrt f + sqrt g)^2) / 4`` against the pair's
    reference; the construction halves the Hellinger distance to the
    first measure.  Requires a finite Hellinger distance.
    """
    _require_finite_hellinger(pair, "hellinger distance is infinite")

    def dens(f, g):
        # the formula reduces to f exactly where the densities agree
        return np.where(f == g, f, 0.25 * (np.sqrt(f) + np.sqrt(g)) ** 2)

    if pair.is_exact:
        return intensity_from_density(pair.reference, dens(pair.f, pair.g))
    return intensity_from_density(pair.reference, lambda *x: dens(
        density_values(pair.f, x), density_values(pair.g, x)))


@dataclass
class MassBoundCheck:
    """Diagnostic: first mass against four times the second plus six
    squared Hellinger distances."""

    lhs: float
    rhs: float
    hellinger_sq: float
    holds: bool


def tsallis_sanity_bound(pair: DensityPair) -> MassBoundCheck:
    """Check ``lambda(S) <= 4 mu(S) + 6 H(lambda, mu)^2`` numerically.

    Requires the first intensity to be representable as a density ratio
    against the second (no mass where the second density vanishes).
    """
    _require_ac(pair)
    lam = pair.lambda_mass()
    mu = pair.mu_mass()
    h = hellinger_measures(pair)
    rhs = 4.0 * mu + 6.0 * h * h
    holds = lam <= rhs + 1e-9 * (1.0 + abs(rhs))
    return MassBoundCheck(lam, rhs, h * h, holds)


def _require_ac(pair: DensityPair, locations=()) -> np.ndarray:
    """Raise unless f vanishes wherever g does (on the representable
    support; at the probe points for smooth pairs), and return ``log(f/g)``
    at ``locations``."""
    if (at := pair._undominated) is not None:
        raise NotAbsolutelyContinuous(
            f"first intensity has mass where the second density vanishes, near {at!r}")
    return pair.log_ratio_at(locations) if len(locations) else np.empty(0)
