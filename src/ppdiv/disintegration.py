"""Divergences of location-plus-mark intensities via the product split.

A marked intensity is a base measure on locations together with a
probability kernel for marks.  Its Tsallis divergence splits into the
base term plus a mark term: the per-location divergence of the two mark
kernels integrated with an order-dependent weight.  The same split gives
Renyi divergences of jump (compound) process laws, where the base holds
the event times and the kernel the jump sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .divergence import DivergenceReport, _kernel_sums, tsallis
from .errors import (InvalidAlpha, KernelMismatch, NonDiffuseBase,
                     ZeroMarkAtom)
from .extended import INF, ext_mul
from .kernel import renyi_poisson
from .measure import (DensityPair, DiscreteIntensity, MarkedModel,
                      SmoothIntensity, common_reference)
from .quadrature import integrate_box, probe_points


class _MarkDivergence:
    """Per-location divergence of two mark kernels: memoised scalar-kernel
    sums at single locations (quadrature nodes), one array-kernel call
    over a whole finite support."""

    def __init__(self, K: MarkedModel, L: MarkedModel, alpha: float):
        if K.mark_reference != L.mark_reference:
            raise KernelMismatch("mark kernels must share a mark reference")
        if K.base.domain_class != L.base.domain_class:
            raise KernelMismatch("mark kernels must share a base domain class")
        self.masses = np.array([w for _, w in K._mark_support()], dtype=float)
        self.k_at = K.mark_densities_at
        self.l_at = L.mark_densities_at
        self.alpha = alpha
        self._cache: dict = {}

    def __call__(self, t) -> float:
        key = t if isinstance(t, (str, int, float, tuple)) else repr(t)
        if key not in self._cache:
            self._cache[key] = math.fsum(
                wi * renyi_poisson(ki, li, self.alpha)
                for wi, ki, li in zip(self.masses.tolist(), self.k_at(t).tolist(),
                                      self.l_at(t).tolist())
                if wi != 0.0)
        return self._cache[key]

    def over(self, locations) -> list[float]:
        """Divergences at every location of ``locations``."""
        shape = (len(locations), len(self.masses))
        k = np.array([self.k_at(t) for t in locations]).reshape(shape)
        l = np.array([self.l_at(t) for t in locations]).reshape(shape)
        return _kernel_sums(self.masses, k, l, self.alpha)


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
    """
    inner = _MarkDivergence(K, L, alpha)
    base = tsallis(base_pair, alpha)
    if base.value == INF:
        base.notes.append("base divergence infinite; mark term not added")
        return base

    if base_pair.is_exact:
        w, f, g = base_pair.support_terms()
        locs = base_pair.reference.support_locations()
        cells = []
        for wi, fi, gi, t in zip(w.tolist(), f.tolist(), g.tolist(), locs):
            weight = _mark_weight(fi, gi, alpha) if wi != 0.0 else 0.0
            if weight != 0.0:
                cells.append((wi, weight, t))
        marks = inner.over([t for _, _, t in cells])
        terms = [wi * ext_mul(m, weight)
                 for (wi, weight, _), m in zip(cells, marks)]
        if INF in terms:
            return DivergenceReport(alpha, INF, 0.0,
                                    ["mark term infinite on positive mass"])
        extra = math.fsum(terms)
        err = base.quadrature_error_estimate
        return DivergenceReport(alpha, base.value + extra, err,
                                list(base.notes))

    ref = base_pair.reference
    f, g, refdens = base_pair.f, base_pair.g, ref.density

    def integrand(*x):
        weight = _mark_weight(f(*x), g(*x), alpha)
        if weight == 0.0:
            return 0.0
        return ext_mul(inner(x[0] if len(x) == 1 else x), weight) * refdens(*x)

    for p in probe_points(ref.bounds):
        if integrand(*p) == INF:
            return DivergenceReport(alpha, INF, 0.0,
                                    ["mark integrand infinite at probe points"])
    extra, abserr = integrate_box(integrand, ref.bounds, ref.quadrature)
    return DivergenceReport(alpha, base.value + max(extra, 0.0),
                            base.quadrature_error_estimate + abserr,
                            list(base.notes))


def _mark_weight(f: float, g: float, alpha: float) -> float:
    """Weight of the mark term at one location: 0 where ``f = 0``; else
    ``g`` at order 0, ``f`` at order 1 and ``f^alpha g^(1-alpha)`` at other
    orders, which where ``g = 0`` is 0 below order 1 and inf above."""
    if f == 0.0:
        return 0.0
    if alpha == 0.0:
        return g
    if alpha == 1.0:
        return f
    if g == 0.0:
        return 0.0 if alpha < 1.0 else INF
    return math.exp(alpha * math.log(f) + (1.0 - alpha) * math.log(g))


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
    atoms, fw, gw = [], [], []
    for wi, fi, gi, t in zip(w, f, g, locs):
        kd = K.mark_densities_at(t)
        ld = L.mark_densities_at(t)
        for (x, mw), kv, lv in zip(K.mark_reference.atoms, kd, ld):
            atoms.append(((t, x), wi * mw))
            fw.append(kv * fi)
            gw.append(lv * gi)
    reference = DiscreteIntensity(tuple(atoms))
    return DensityPair(reference, fw, gw)


def compound_renyi(event_pair: DensityPair, K: MarkedModel, L: MarkedModel,
                   alpha: float) -> DivergenceReport:
    """Renyi divergence of two jump-process laws (event times plus jump
    sizes), for positive order.

    Requires diffuse event intensities (grid or smooth bases, no atoms)
    and increment kernels that never produce zero jumps.  The report notes
    the split into the jump-times part and the added mark information.
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

    report = tsallis_product(event_pair, K, L, alpha)
    base = tsallis(event_pair, alpha)
    if report.value != INF and base.value != INF:
        report.notes.append(
            f"jump-times part {base.value!r}; "
            f"mark information {report.value - base.value!r}")
    return report


def _check_no_zero_marks(marked: MarkedModel, name: str):
    ref = marked.mark_reference
    if not isinstance(ref, DiscreteIntensity):
        return
    zero_ids = [pid for pid, _ in ref.atoms
                if isinstance(pid, (int, float)) and float(pid) == 0.0]
    if not zero_ids:
        return
    for t in marked._probe_locations():
        dens = marked.mark_densities_at(t)
        for pid in zero_ids:
            if dens[ref.index[pid]] > 0.0:
                raise ZeroMarkAtom(
                    f"{name} increment kernel puts mass at zero (t={t!r})")
