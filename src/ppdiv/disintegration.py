"""Divergences of location-plus-mark intensities via the product split.

A marked intensity is a base measure on locations together with a
probability kernel for marks.  Its Tsallis divergence splits into the
base term plus a mark term: the per-location divergence of the two mark
kernels integrated with an order-dependent weight.  The same split gives
Renyi divergences of jump (compound) process laws, where the base holds
the event times and the kernel the jump sizes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .divergence import DivergenceReport, tsallis
from .errors import (InvalidAlpha, KernelMismatch, NonDiffuseBase,
                     ZeroMarkAtom)
from .extended import INF, ext_muls
from .kernel import _renyi_poisson_array
from .measure import (DensityPair, DiscreteIntensity, MarkedModel, _weighted_sums,
                      density_values)
from .quadrature import integrate_box, probe_columns


class _MarkDivergence:
    """Per-location divergence of two mark kernels, by the array kernel:
    over the coordinate arrays of quadrature nodes with one kernel call
    per mark id, or over the locations of a finite support."""

    def __init__(self, K: MarkedModel, L: MarkedModel, alpha: float):
        if K.mark_reference != L.mark_reference:
            raise KernelMismatch("mark kernels must share a mark reference")
        if K.base.domain_class != L.base.domain_class:
            raise KernelMismatch("mark kernels must share a base domain class")
        self.K, self.L = K, L
        self.masses = K.mark_reference.masses
        self.alpha = alpha

    def on(self, cols) -> np.ndarray:
        """Divergences at the locations with coordinate arrays ``cols``."""
        pos = self.masses > 0.0
        k = self.K.mark_densities_on(cols)[:, pos]
        l = self.L.mark_densities_on(cols)[:, pos]
        return _renyi_poisson_array(k, l, self.alpha) @ self.masses[pos]

    def over(self, locations) -> list[float]:
        """Divergences at every location of ``locations``."""
        return _weighted_sums(self.masses, _renyi_poisson_array(
            self.K.mark_table(locations), self.L.mark_table(locations), self.alpha))


def tsallis_product(base_pair: DensityPair, K: MarkedModel, L: MarkedModel,
                    alpha: float) -> DivergenceReport:
    """Tsallis divergence of the two marked intensities.

    The value is the base divergence plus a mark term:

    * order 0: per-location order-0 kernel divergence integrated against
      the second base measure over the region where the first density is
      nonzero;
    * order 1: per-location order-1 kernel divergence integrated against
      the first base measure;
    * otherwise: per-location kernel divergence weighted by
      ``f^alpha g^(1-alpha)`` and integrated against the reference.

    When both parts are finite the report notes the split into the base
    part and the added mark information.
    """
    inner = _MarkDivergence(K, L, alpha)
    base = tsallis(base_pair, alpha)
    if base.value == INF:
        base.notes.append("base divergence infinite; mark term not added")
        return base

    if base_pair.is_exact:
        w, f, g = base_pair.support_terms()
        locs = base_pair.reference.support_locations()
        weight = _mark_weight(f, g, alpha)
        cells = np.flatnonzero((w != 0.0) & (weight != 0.0))
        marks = np.array(inner.over([locs[i] for i in cells]))
        terms = w[cells] * ext_muls(marks, weight[cells])
        if (terms == INF).any():
            return DivergenceReport(alpha, INF, 0.0,
                                    ["mark term infinite on positive mass"])
        extra, abserr = math.fsum(terms.tolist()), 0.0
    else:
        ref = base_pair.reference
        densities = base_pair.f, base_pair.g, ref.density

        def terms(cols, f, g, r):
            return ext_muls(inner.on(cols), _mark_weight(f, g, alpha)) * r

        probes = terms(probe_columns(ref.bounds), *base_pair._probe_densities)
        if (probes == INF).any():
            return DivergenceReport(alpha, INF, 0.0,
                                    ["mark integrand infinite at probe points"])
        extra, abserr = integrate_box(
            lambda *x: terms(x, *(density_values(d, x) for d in densities)),
            ref.bounds, ref.quadrature)
        extra = max(extra, 0.0)
    return DivergenceReport(
        alpha, base.value + extra, base.quadrature_error_estimate + abserr,
        base.notes + [f"base part {base.value!r}; mark information {extra!r}"])


def _mark_weight(f: np.ndarray, g: np.ndarray, alpha: float) -> np.ndarray:
    """Weight of the mark term at each location: 0 where ``f = 0``; else
    ``g`` at order 0, ``f`` at order 1 and ``f^alpha g^(1-alpha)`` at other
    orders, which where ``g = 0`` is 0 below order 1 and inf above."""
    if alpha == 0.0:
        weight = g
    elif alpha == 1.0:
        weight = f
    else:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            weight = np.exp(alpha * np.log(f) + (1.0 - alpha) * np.log(g))
    return np.where(f == 0.0, 0.0, weight)


def flatten_product(base_pair: DensityPair, K: MarkedModel,
                    L: MarkedModel) -> DensityPair:
    """Explicit product-space pair for a discrete base with discrete marks.

    Atoms are (location, mark) pairs with weights ``f_t k_t(x)`` against
    ``g_t l_t(x)``; divergences of this pair must agree with
    :func:`tsallis_product`.
    """
    if not isinstance(base_pair.reference, DiscreteIntensity):
        raise TypeError("flattening needs a discrete base")
    if not isinstance(K.mark_reference, DiscreteIntensity):
        raise TypeError("flattening needs discrete marks")
    if K.mark_reference != L.mark_reference:
        raise KernelMismatch("mark kernels must share a mark reference")
    w, f, g = base_pair.support_terms()
    locs = base_pair.reference.support_locations()
    marks = K.mark_reference
    kd, ld = K.mark_table(locs), L.mark_table(locs)
    reference = DiscreteIntensity._of(itertools.product(locs, marks.ids),
                                      np.multiply.outer(w, marks.weights))
    return DensityPair(reference, kd * f[:, None], ld * g[:, None])


def compound_renyi(event_pair: DensityPair, K: MarkedModel, L: MarkedModel,
                   alpha: float) -> DivergenceReport:
    """Renyi divergence of two jump-process laws (event times plus jump
    sizes), for positive order.

    Requires diffuse event intensities (grid or smooth bases, no atoms)
    and increment kernels that never produce zero jumps.  The report notes
    the split into the jump-times (base) part and the added mark
    information, as :func:`tsallis_product` does.
    """
    if not (isinstance(alpha, (int, float)) and alpha > 0.0
            and math.isfinite(alpha)):
        raise InvalidAlpha(f"compound divergences need alpha > 0, got {alpha!r}")
    if isinstance(event_pair.reference, DiscreteIntensity):
        raise NonDiffuseBase("event intensities must be diffuse (grid or smooth)")
    for marked, name in ((K, "first"), (L, "second")):
        if isinstance(marked.base.flattened(), DiscreteIntensity):
            raise NonDiffuseBase(f"{name} event intensity must be diffuse")
        _check_no_zero_marks(marked, name)

    return tsallis_product(event_pair, K, L, alpha)


def _check_no_zero_marks(marked: MarkedModel, name: str):
    ref = marked.mark_reference
    if not isinstance(ref, DiscreteIntensity):
        return
    zeros = [i for i, pid in enumerate(ref.ids)
             if isinstance(pid, (int, float)) and float(pid) == 0.0]
    if not zeros:
        return
    locations = marked._probe_locations()
    hit = np.flatnonzero((marked.mark_table(locations)[:, zeros] > 0.0).any(axis=1))
    if len(hit):
        raise ZeroMarkAtom(f"{name} increment kernel puts mass at zero "
                           f"(t={locations[hit[0]]!r})")
