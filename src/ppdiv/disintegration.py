"""Divergences of location-plus-mark intensities via the product split.

A marked intensity is a base measure on locations together with a
probability kernel for marks.  Its Tsallis divergence splits into the
base term plus a mark term: the per-location divergence of the two mark
kernels integrated with an order-dependent weight.  The same split gives
Renyi divergences of jump (compound) process laws, where the base holds
the event times and the kernel the jump sizes.

The mark term is summed or integrated by ``DensityPair._integrals``, as
every pair term is.  On a discrete or grid base the kernels are read only
where the term can be nonzero, so each need only be defined on its own base.
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
from .measure import DensityPair, DiscreteIntensity, MarkedModel, _weighted_sums


def _mark_terms(pair: DensityPair, K: MarkedModel, L: MarkedModel, alpha: float):
    """Pointwise mark terms of ``pair`` for ``pair._integrals``: the mark
    kernels' divergence at each location times :func:`_mark_weight`.  On an
    exact pair the kernels are read only where the weight and the reference
    mass are nonzero (the term is 0 elsewhere), on a smooth one at the nodes."""
    if K.mark_reference != L.mark_reference:
        raise KernelMismatch("mark kernels must share a mark reference")
    if K.base.domain_class != L.base.domain_class:
        raise KernelMismatch("mark kernels must share a base domain class")
    masses = K.mark_reference.masses
    if not pair.is_exact:
        pos = masses > 0.0

        def at_nodes(f, g, *x):
            k, l = (M.mark_densities_on(x)[:, pos] for M in (K, L))
            return ext_muls(_renyi_poisson_array(k, l, alpha) @ masses[pos],
                            _mark_weight(f, g, alpha))[None]
        return at_nodes

    def at_cells(f, g):
        w, locs = pair.reference.masses, pair.reference.support_locations()
        weight = _mark_weight(f, g, alpha)
        cells = np.flatnonzero((w != 0.0) & (weight != 0.0))
        at = [locs[i] for i in cells]
        out = np.zeros_like(weight)
        out[cells] = ext_muls(_weighted_sums(masses, _renyi_poisson_array(
            K.mark_table(at), L.mark_table(at), alpha)), weight[cells])
        return out[None]
    return at_cells


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
    terms = _mark_terms(base_pair, K, L, alpha)
    base = tsallis(base_pair, alpha)
    if base.value == INF:
        base.notes.append("base divergence infinite; mark term not added")
        return base

    if not base_pair.is_exact:
        pts, f, g, r = base_pair._probes
        probes = terms(f, g, *pts.T)[0] * r
        if (probes == INF).any():
            return DivergenceReport(alpha, INF, 0.0,
                                    ["mark integrand infinite at probe points"])
    (extra, abserr), = base_pair._integrals(terms)
    if extra == INF:
        return DivergenceReport(alpha, INF, 0.0,
                                ["mark term infinite on positive mass"])
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
    :func:`tsallis_product`.  Each kernel is read only at the atoms where
    its own density is positive (the other rows carry weight 0), so it need
    only be defined on its own base.
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

    def weighted(M, dens):
        rows = np.flatnonzero(dens > 0.0)
        out = np.zeros((len(locs), len(marks.ids)))
        out[rows] = M.mark_table([locs[i] for i in rows]) * dens[rows, None]
        return out
    reference = DiscreteIntensity._of(itertools.product(locs, marks.ids),
                                      np.multiply.outer(w, marks.weights))
    return DensityPair(reference, weighted(K, f), weighted(L, g))


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
