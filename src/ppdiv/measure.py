"""Intensity-measure models for Poisson point patterns.

Three concrete representations cover the measures this library computes
with:

* :class:`DiscreteIntensity` -- weighted atoms on a countable support,
  identified by opaque hashable ids.
* :class:`GridIntensity` -- an axis-aligned box split into cells by one
  edge array per axis, each cell carrying a constant Lebesgue density.
* :class:`SmoothIntensity` -- a nonnegative density function on a box (or
  the half-line ``[0, inf)``), integrated by adaptive quadrature.

:class:`ScaledIntensity` and :class:`SummedIntensity` combine models of a
single class.  :func:`common_reference` reduces any same-class pair to a
:class:`DensityPair`: densities ``(f, g)`` against one shared reference
measure (for two grids, the Lebesgue measure on the join of their cell
partitions), which is the canonical input to every divergence and
likelihood computation.  Point patterns and mark kernels round out the
domain types.

All models are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (DomainMismatch, OutOfWindow, PointOutsideDomain,
                     QuadratureFailure)
from .extended import INF, ensure_extended, ext_fsum, log_ratios
from .quadrature import (QuadratureSpec, integrate_box, integrate_segments,
                         probe_points)

# Cell budget for the join of two grids, checked before it is built.
_MAX_REFINED_CELLS = 2_000_000

# Edges on a grid axis within this many float spacings of its largest
# |coordinate| are one edge: float noise, as in 0.1 + 0.2 against 0.3.
_SNAP_ULPS = 16


class IntensityModel:
    """Base class for intensity measures; see the module docstring."""

    def total_mass(self) -> float:
        raise NotImplementedError

    def flattened(self) -> "IntensityModel":
        """Collapse Scale/Sum combinators into a concrete model."""
        return self

    @property
    def domain_class(self) -> str:
        raise NotImplementedError


def _frozen_densities(values, what: str) -> np.ndarray:
    """Flat read-only float64 copy of finite nonnegative densities."""
    arr = np.array(values, dtype=float).reshape(-1)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    if (arr < 0.0).any():
        raise ValueError(f"{what} must be nonnegative")
    arr.flags.writeable = False
    return arr


def _array_key(values):
    """Hashable stand-in for a density array (``0.0`` and ``-0.0`` alike)
    or for a density callable."""
    if isinstance(values, np.ndarray):
        return (values + 0.0).tobytes()
    return values


def _check_bounds(bounds):
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if not bounds:
        raise ValueError("bounds must have at least one axis")
    for lo, hi in bounds:
        if math.isnan(lo) or math.isnan(hi) or math.isinf(lo):
            raise ValueError(f"invalid axis bounds ({lo}, {hi})")
        if hi <= lo:
            raise ValueError(f"axis bounds must satisfy lo < hi, got ({lo}, {hi})")
    return bounds


@dataclass(frozen=True, eq=False)
class DiscreteIntensity(IntensityModel):
    """Weighted atoms under the counting measure.

    ``ids`` holds the opaque hashable atom ids and ``weights`` a read-only
    float64 array of their finite nonnegative weights, in the same order.
    The constructor takes a dict or ``(id, weight)`` pairs.
    """

    ids: tuple
    weights: np.ndarray

    def __init__(self, atoms):
        pairs = list(atoms.items() if isinstance(atoms, dict) else atoms)
        self._fill([pid for pid, _ in pairs], [w for _, w in pairs])

    @classmethod
    def _of(cls, ids, weights) -> "DiscreteIntensity":
        """Model with ``ids`` and ``weights`` given as aligned sequences."""
        out = cls.__new__(cls)
        out._fill(ids, weights)
        return out

    def _fill(self, ids, weights):
        ids = tuple(ids)
        if len(set(ids)) != len(ids):
            raise ValueError("atom ids must be unique")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "weights",
                           _frozen_densities(weights, "atom weights"))

    @property
    def domain_class(self) -> str:
        return "discrete"

    @property
    def atoms(self) -> tuple:
        """``(id, weight)`` pairs, for callers of the pair form."""
        return tuple(zip(self.ids, self.weights.tolist()))

    @property
    def masses(self) -> np.ndarray:
        return self.weights

    @cached_property
    def index(self) -> dict:
        return {pid: i for i, pid in enumerate(self.ids)}

    def support_locations(self) -> tuple:
        return self.ids

    def total_mass(self) -> float:
        return ext_fsum(self.weights.tolist())

    def _reweighted(self, factors) -> "DiscreteIntensity":
        return DiscreteIntensity._of(self.ids, self.weights * factors)

    def __eq__(self, other):
        if not isinstance(other, DiscreteIntensity):
            return NotImplemented
        return self.ids == other.ids and np.array_equal(self.weights, other.weights)

    def __hash__(self):
        return hash((self.ids, _array_key(self.weights)))


@dataclass(frozen=True, eq=False)
class GridIntensity(IntensityModel):
    """Axis-aligned box split into cells with a constant density each.

    ``edges`` holds one increasing read-only float64 array of cell edges
    per axis, the grid's only geometry.  The constructor makes ``shape[d]``
    equal cells between the ``bounds`` of axis ``d``; grids derived from
    others (a pair's reference, a flattened sum, a dominating intensity)
    may have unequal cells.  ``values`` holds the finite nonnegative cell
    densities against the Lebesgue measure, flat (row-major), read-only.
    """

    edges: tuple[np.ndarray, ...]
    values: np.ndarray

    def __init__(self, bounds, shape, values):
        bounds = _check_bounds(bounds)
        if any(math.isinf(hi) for _, hi in bounds):
            raise ValueError("grid boxes must be bounded")
        shape = tuple(int(n) for n in (shape if isinstance(shape, Sequence) else (shape,)))
        if any(n < 1 for n in shape) or len(shape) != len(bounds):
            raise ValueError("shape must give a positive cell count per axis")
        edges = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(bounds, shape)]
        if not all((np.diff(e) > 0.0).all() for e in edges):
            raise ValueError("cells too narrow to tell their edges apart")
        self._fill(edges, values)

    @classmethod
    def _on(cls, edges, values) -> "GridIntensity":
        """Grid on the given increasing per-axis ``edges``."""
        out = cls.__new__(cls)
        out._fill(edges, values)
        return out

    def _fill(self, edges, values):
        for e in edges:
            e.flags.writeable = False
        flat = _frozen_densities(values, "cell densities")
        shape = tuple(len(e) - 1 for e in edges)
        if len(flat) != math.prod(shape):
            raise ValueError("values length must equal the number of cells")
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "values", flat)
        object.__setattr__(self, "bounds", tuple((float(e[0]), float(e[-1])) for e in edges))
        object.__setattr__(self, "shape", shape)

    @property
    def domain_class(self) -> str:
        return "grid"

    @property
    def ndim(self) -> int:
        return len(self.edges)

    @cached_property
    def equal_cells(self) -> bool:
        """Whether each axis has equal cells, up to float noise in the edges."""
        return all(np.abs(e - np.linspace(e[0], e[-1], len(e))).max()
                   <= _SNAP_ULPS * np.spacing(np.abs(e).max()) for e in self.edges)

    @cached_property
    def values_array(self) -> np.ndarray:
        return self.values.reshape(self.shape)

    def cell_index(self, location) -> tuple[int, ...]:
        """Multi-index of the cell containing ``location``.

        Points exactly on an interior cell boundary belong to the
        lower-index cell; the upper box edge belongs to the last cell.
        """
        return tuple(self.cell_indices([location])[0].tolist())

    def cell_indices(self, locations) -> np.ndarray:
        """``(n, d)`` array of the :meth:`cell_index` of each location."""
        pts = _coords(locations, self.ndim, self.bounds)
        return np.stack([np.clip(np.searchsorted(e, pts[:, d]) - 1, 0, len(e) - 2)
                         for d, e in enumerate(self.edges)], axis=-1)

    def density_at(self, location) -> float:
        return float(self.values_array[self.cell_index(location)])

    def cell_centers(self) -> np.ndarray:
        mesh = np.meshgrid(*[0.5 * (e[:-1] + e[1:]) for e in self.edges], indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @cached_property
    def masses(self) -> np.ndarray:
        """Reference mass of each cell (density times cell volume)."""
        out = self._masses_in(self.bounds)
        out.flags.writeable = False
        return out

    def _cells_in(self, box) -> tuple[list, list]:
        """Per axis, the lower and upper ends of the cells cut to ``box``;
        a cell off the box gets two equal ends."""
        lows, highs = [], []
        for edges, (lo, hi) in zip(self.edges, box):
            lows.append(np.maximum(edges[:-1], lo))
            highs.append(np.maximum(np.minimum(edges[1:], hi), lows[-1]))
        return lows, highs

    def _masses_in(self, box) -> np.ndarray:
        """Mass of each cell cut to ``box``, flat (row-major)."""
        lows, highs = self._cells_in(box)
        volumes = reduce(np.multiply.outer, [h - l for l, h in zip(lows, highs)])
        return self.values * volumes.reshape(-1)

    @cached_property
    def _centres(self) -> tuple:
        return tuple(_as_ids(self.cell_centers()))

    def support_locations(self) -> tuple:
        return self._centres

    def total_mass(self) -> float:
        return ext_fsum(self.masses.tolist())

    def _reweighted(self, factors) -> "GridIntensity":
        return GridIntensity._on(self.edges, self.values * factors)

    def __eq__(self, other):
        if not isinstance(other, GridIntensity):
            return NotImplemented
        return (self.shape == other.shape
                and all(map(np.array_equal, self.edges, other.edges))
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.bounds, self.shape, _array_key(self.values)))


# The models with a finite support of atoms or cells, summed exactly.
_EXACT = (DiscreteIntensity, GridIntensity)


@dataclass(frozen=True, eq=False)
class SmoothIntensity(IntensityModel):
    """Nonnegative density on a box, or on ``[lo, inf)`` in one dimension.

    ``density`` takes one positional float (or float64 array, see
    :func:`density_values`) per axis.  Models on an unbounded domain may
    have infinite total mass (the sigma-finite case).
    """

    bounds: tuple[tuple[float, float], ...]
    density: Callable[..., float]
    quadrature: QuadratureSpec = QuadratureSpec()
    density_bound: float | None = None
    expression: str | None = None

    def __init__(self, bounds, density, quadrature=QuadratureSpec(),
                 density_bound=None, expression=None):
        bounds = _check_bounds(bounds)
        if any(math.isinf(hi) for _, hi in bounds) and len(bounds) > 1:
            raise ValueError("unbounded smooth domains are one-dimensional")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "density", density)
        object.__setattr__(self, "quadrature", quadrature)
        object.__setattr__(self, "density_bound",
                           None if density_bound is None else float(density_bound))
        object.__setattr__(self, "expression", expression)

    @property
    def domain_class(self) -> str:
        return "smooth"

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    @property
    def has_unbounded_domain(self) -> bool:
        return any(math.isinf(hi) for _, hi in self.bounds)

    def density_at(self, location) -> float:
        loc = _coords([location], self.ndim, self.bounds)[0].tolist()
        return ensure_extended(self.density(*loc), "smooth density value")

    def total_mass(self) -> float:
        try:
            value, _ = integrate_box(lambda *x: density_values(self.density, x),
                                     self.bounds, self.quadrature)
        except QuadratureFailure:
            if self.has_unbounded_domain:
                return INF
            raise
        return ensure_extended(value, "total mass")

    def __eq__(self, other):
        if not isinstance(other, SmoothIntensity):
            return NotImplemented
        same_density = (self.density is other.density
                        or (self.expression is not None
                            and self.expression == other.expression))
        return (same_density and self.bounds == other.bounds
                and self.quadrature == other.quadrature
                and self.density_bound == other.density_bound)

    def __hash__(self):
        return hash((self.bounds, self.quadrature, self.density_bound, self.expression))


@dataclass(frozen=True)
class ScaledIntensity(IntensityModel):
    """``factor * inner`` for a finite nonnegative factor."""

    factor: float
    inner: IntensityModel

    def __post_init__(self):
        f = ensure_extended(self.factor, "scale factor")
        if math.isinf(f):
            raise ValueError("scale factor must be finite")
        object.__setattr__(self, "factor", f)

    @property
    def domain_class(self) -> str:
        return self.inner.domain_class

    def total_mass(self) -> float:
        inner = self.inner.total_mass()
        if self.factor == 0.0:
            return 0.0
        return self.factor * inner

    def flattened(self) -> IntensityModel:
        return _scale_concrete(self.inner.flattened(), self.factor)


@dataclass(frozen=True)
class SummedIntensity(IntensityModel):
    """Sum of intensity models sharing one domain class."""

    parts: tuple[IntensityModel, ...]

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a sum needs at least one part")
        classes = {p.domain_class for p in parts}
        if len(classes) != 1:
            raise DomainMismatch(f"summands mix domain classes {sorted(classes)}")
        object.__setattr__(self, "parts", parts)

    @property
    def domain_class(self) -> str:
        return self.parts[0].domain_class

    def total_mass(self) -> float:
        masses = [p.total_mass() for p in self.parts]
        if any(m == INF for m in masses):
            return INF
        return ext_fsum(masses)

    def flattened(self) -> IntensityModel:
        flats = [p.flattened() for p in self.parts]
        out = flats[0]
        for nxt in flats[1:]:
            out = _add_concrete(out, nxt)
        return out


def total_mass(model: IntensityModel) -> float:
    """Total mass of an intensity model; ``inf`` for sigma-finite smooth
    models on an unbounded domain."""
    return model.total_mass()


def _scale_concrete(model, c):
    if isinstance(model, SmoothIntensity):
        inner = model.density
        expr = None
        if model.expression is not None:
            expr = f"({c!r})*({model.expression})"
        bound = None if model.density_bound is None else c * model.density_bound
        return SmoothIntensity(model.bounds, lambda *x: c * inner(*x),
                               model.quadrature, bound, expr)
    return intensity_from_density(model, c)


def _add_concrete(a, b):
    if isinstance(a, SmoothIntensity) and isinstance(b, SmoothIntensity):
        if a.bounds != b.bounds:
            raise DomainMismatch("smooth summands must share a domain")
        da, db = a.density, b.density
        bound = None
        if a.density_bound is not None and b.density_bound is not None:
            bound = a.density_bound + b.density_bound
        return SmoothIntensity(a.bounds, lambda *x: da(*x) + db(*x),
                               a.quadrature.merged(b.quadrature), bound, None)
    if type(a) is not type(b) or not isinstance(a, _EXACT):
        raise DomainMismatch(
            f"cannot add {type(a).__name__} and {type(b).__name__}")
    reference, fa, fb = _aligned(a, b)
    return intensity_from_density(reference, fa + fb)


def _aligned(a, b):
    """Unit-weight reference carrying two discrete or two grid models,
    with each model's weights on it: the union of the atom ids (those of
    ``a`` first) or the join of the two grids' cell partitions (each grid's
    densities zero off its own box)."""
    if isinstance(a, GridIntensity):
        if a.ndim != b.ndim:
            raise DomainMismatch("grids differ in dimension")
        edges, cells_a, cells_b = zip(*map(_join_axis, a.edges, b.edges))
        n_cells = math.prod(len(e) - 1 for e in edges)
        if n_cells > _MAX_REFINED_CELLS:
            raise DomainMismatch("the join of the two grids exceeds the cell budget")
        # indices -1 and n (off the box) pick the zero padded after each axis
        fa, fb = (np.pad(m.values_array, [(0, 1)] * m.ndim)[np.ix_(*cells)].reshape(-1)
                  for m, cells in ((a, cells_a), (b, cells_b)))
        return GridIntensity._on(edges, np.ones(n_cells)), fa, fb
    extra = [pid for pid in b.ids if pid not in a.index]
    ids = a.ids + tuple(extra)
    # index -1 picks the zero appended to the weights of ``b``
    at_b = [b.index.get(pid, -1) for pid in ids]
    return (DiscreteIntensity._of(ids, np.ones(len(ids))),
            np.concatenate([a.weights, np.zeros(len(extra))]),
            np.append(b.weights, 0.0)[at_b])


def _join_axis(ea: np.ndarray, eb: np.ndarray):
    """Edges of the join of two axis partitions, edges within
    ``_SNAP_ULPS`` float spacings of the axis scale being one, and the
    partition cell holding each join cell's centre in either: -1 below the
    box and the cell count above it.  So that each partition keeps all its
    own edges, its cells must be wider than twice that tolerance."""
    if np.array_equal(ea, eb):
        cells = np.arange(len(ea) - 1)
        return ea, cells, cells
    if min(ea[-1], eb[-1]) <= max(ea[0], eb[0]):
        raise DomainMismatch("grid boxes are disjoint")
    merged = np.sort(np.concatenate([ea, eb]), kind="stable")
    tol = _SNAP_ULPS * np.spacing(max(abs(merged[0]), abs(merged[-1])))
    if min(np.diff(ea).min(), np.diff(eb).min()) <= 2 * tol:
        raise DomainMismatch("grid cells too narrow to pair on the joint axis")
    edges = merged[np.r_[True, np.diff(merged) > tol]]
    edges[-1] = merged[-1]
    centres = 0.5 * (edges[:-1] + edges[1:])
    return edges, np.searchsorted(ea, centres) - 1, np.searchsorted(eb, centres) - 1


# ---------------------------------------------------------------------------
# Density pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class DensityPair:
    """Two intensities expressed as densities against one shared reference.

    For discrete and grid references ``f`` and ``g`` are flat read-only
    float64 arrays aligned with the reference atoms/cells (exact
    summation); for smooth references they are callables (quadrature).
    Infinite density values are not allowed; the measures themselves may
    still be infinite.  Every integral of pointwise terms of ``(f, g)``
    against the reference, over the domain or a box in it, goes through
    :meth:`_integrals`; the masses are single-density integrals of the
    models :func:`intensity_from_density` builds.

    A pair never changes once built, so it memoises its Tsallis orders,
    masses, reversed pair, probe read and domination point, and the
    quadrature failure of any of them (a race at worst computes one twice).
    """

    reference: IntensityModel
    f: Any
    g: Any

    def __post_init__(self):
        ref = self.reference
        if isinstance(ref, _EXACT):
            fa = _frozen_densities(self.f, "densities")
            ga = _frozen_densities(self.g, "densities")
            if not fa.shape == ga.shape == ref.masses.shape:
                raise ValueError("densities must align with the reference support")
            object.__setattr__(self, "f", fa)
            object.__setattr__(self, "g", ga)
        elif isinstance(ref, SmoothIntensity):
            if not (callable(self.f) and callable(self.g)):
                raise ValueError("smooth pairs need callable densities")
        else:
            raise TypeError("reference must be a concrete intensity model")

    def __eq__(self, other):
        if not isinstance(other, DensityPair):
            return NotImplemented
        if self.reference != other.reference:
            return False
        if self.is_exact:
            return (np.array_equal(self.f, other.f)
                    and np.array_equal(self.g, other.g))
        return self.f == other.f and self.g == other.g

    def __hash__(self):
        return hash((self.reference, _array_key(self.f), _array_key(self.g)))

    @property
    def is_exact(self) -> bool:
        return isinstance(self.reference, _EXACT)

    def support_terms(self):
        """Arrays ``(weights, f, g)`` with weights the reference masses of
        atoms (discrete) or cells (grid)."""
        if not self.is_exact:
            raise TypeError("smooth pairs have no finite support enumeration")
        return self.reference.masses, self.f, self.g

    def log_ratio_at(self, locations) -> np.ndarray:
        """``log(f/g)`` at each of ``locations`` by :func:`log_ratios`; an
        id off a discrete support has ``f = g = 0``."""
        ref = self.reference
        if isinstance(ref, DiscreteIntensity):
            # index -1 picks the zero appended to each density
            idx = [ref.index.get(loc, -1) for loc in _as_ids(locations)]
            return log_ratios(np.append(self.f, 0.0)[idx],
                              np.append(self.g, 0.0)[idx])
        if isinstance(ref, GridIntensity):
            idx = np.ravel_multi_index(tuple(ref.cell_indices(locations).T), ref.shape)
            return log_ratios(self.f[idx], self.g[idx])
        cols = _coords(locations, ref.ndim, ref.bounds).T
        return log_ratios(density_values(self.f, cols),
                          density_values(self.g, cols))

    def swapped(self) -> "DensityPair":
        return self._memoised("swapped",
                              lambda: DensityPair(self.reference, self.g, self.f))

    def lambda_mass(self) -> float:
        return self._memoised("lambda", lambda: intensity_from_density(
            self.reference, self.f).total_mass())

    def mu_mass(self) -> float:
        return self._memoised("mu", lambda: intensity_from_density(
            self.reference, self.g).total_mass())

    @cached_property
    def _memo(self) -> dict:
        return {}

    def _memoised(self, key, compute):
        if key not in self._memo:
            try:
                self._memo[key] = compute()
            except QuadratureFailure as exc:
                self._memo[key] = exc.with_traceback(None)
        if isinstance(value := self._memo[key], QuadratureFailure):
            raise copy.copy(value)
        return value

    @cached_property
    def _probes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The ``(n, d)`` probe points of a smooth pair with ``f``, ``g`` and
        the reference density there; an overflow fails as at a node."""
        pts = probe_points(self.reference.bounds)
        try:
            return (pts, *(density_values(d, pts.T)
                           for d in (self.f, self.g, self.reference.density)))
        except OverflowError as exc:
            raise QuadratureFailure(f"a density overflows at a probe: {exc}",
                                    possibly_infinite=True) from exc

    @cached_property
    def _undominated(self):
        """The first atom id, cell centre or probe point of positive
        reference mass where ``f > 0`` and ``g = 0``, or None: where the
        first intensity is not dominated by the second."""
        if self.is_exact:
            (w, f, g), where = self.support_terms(), self.reference.support_locations
        else:
            pts, f, g, w = self._probes
            where = lambda: _as_ids(pts)
        hit = np.flatnonzero((w > 0.0) & (f > 0.0) & (g == 0.0))
        return where()[hit[0]] if len(hit) else None

    def _integrals(self, terms, exact: bool = True, cuts=None):
        """``(value, error_estimate)`` per row of the ``(rows, n)`` pointwise
        terms against the reference: :func:`_weighted_sums` of ``terms(f,
        g)`` with the reference masses of the atoms or cells on exact pairs,
        one adaptive run for all rows of ``terms(f, g, *x)`` at the node
        coordinate arrays ``x`` on smooth ones, each row to its tolerance on
        one panel budget.  With ``cuts``, increasing break points on the
        axis of a 1-d pair, value and error are lists with one entry per
        segment between consecutive cuts, cut to the domain: one sum per
        segment over the cells cut to it, or one run whose first panels are
        the segments."""
        ref = self.reference
        if self.is_exact:
            t = terms(self.f, self.g)
            if cuts is None:
                return [(value, 0.0) for value in _weighted_sums(ref.masses, t, exact)]
            sums = [_weighted_sums(ref._masses_in(((lo, hi),)), t, exact)
                    for lo, hi in zip(cuts[:-1], cuts[1:])]
            return [(list(row), [0.0] * len(sums)) for row in zip(*sums)]

        def integrand(*x):
            return (terms(density_values(self.f, x), density_values(self.g, x), *x)
                    * density_values(ref.density, x))
        if cuts is None:
            return list(zip(*integrate_box(integrand, ref.bounds, ref.quadrature)))
        edges = np.clip(cuts, *ref.bounds[0])
        return list(zip(*integrate_segments(integrand, edges, ref.quadrature)))


def _weighted_sums(w: np.ndarray, terms: np.ndarray, exact: bool = True) -> list[float]:
    """Per row of the ``(rows, cells)`` array ``terms``, the sum of ``w *
    terms`` over the cells with ``w > 0``, correctly rounded by ``ext_fsum``
    if ``exact``, else pairwise by ``np.sum``; an infinite term gives inf."""
    pos = w > 0.0
    if not pos.all():
        w, terms = w[pos], terms[:, pos]
    weighted = w * terms
    return ([ext_fsum(row) for row in weighted.tolist()] if exact
            else weighted.sum(axis=1).tolist())


def density_values(density, cols) -> np.ndarray:
    """``density`` at the points with coordinate arrays ``cols``, checked
    as :func:`ensure_extended` does.  One call on the arrays, which a
    compiled density always takes; a raw Python callable that cannot (a
    ``TypeError`` or ``ValueError``, as from ``math`` functions or ``if``
    branches) is called once per point."""
    values = _on_arrays(density, cols)
    if np.count_nonzero(values >= 0.0) != values.size:
        ensure_extended(values[~(values >= 0.0)][0], "density value")
    return values


def _on_arrays(func, cols) -> np.ndarray:
    """:func:`density_values` without the value check."""
    cols = [np.asarray(c, dtype=float) for c in cols]
    shape = cols[0].shape
    try:
        values = np.asarray(func(*cols), dtype=float)
        if values.shape == ():
            return np.full(shape, values)
        if values.shape != shape:
            raise ValueError(f"density returned shape {values.shape}")
    except (TypeError, ValueError):
        values = np.array([func(*x) for x in zip(*(c.tolist() for c in cols))],
                          dtype=float).reshape(shape)
    return values


def intensity_from_density(reference: IntensityModel, density) -> IntensityModel:
    """Model of the measure ``density * reference``."""
    if isinstance(reference, _EXACT):
        return reference._reweighted(np.asarray(density, dtype=float).reshape(-1))
    if isinstance(reference, SmoothIntensity):
        refdens = reference.density
        return SmoothIntensity(reference.bounds,
                               lambda *x: density(*x) * refdens(*x),
                               reference.quadrature)
    raise TypeError(f"unsupported reference {type(reference).__name__}")


def common_reference(a: IntensityModel, b: IntensityModel) -> DensityPair:
    """Express two same-class intensities as densities against one shared
    reference measure.

    Discrete pairs land on the counting measure over the union of their
    supports; grid pairs on the Lebesgue measure of the join of their cell
    partitions; smooth pairs on the Lebesgue measure of their (identical)
    domain.  Deterministic given the inputs.
    """
    fa, fb = a.flattened(), b.flattened()
    if fa.domain_class != fb.domain_class:
        raise DomainMismatch(
            f"cannot pair {fa.domain_class} with {fb.domain_class} models")
    if isinstance(fa, _EXACT):
        return DensityPair(*_aligned(fa, fb))
    if isinstance(fa, SmoothIntensity):
        if fa.bounds != fb.bounds:
            raise DomainMismatch("smooth models must share a domain exactly")
        spec = fa.quadrature.merged(fb.quadrature)
        reference = SmoothIntensity(fa.bounds, lambda *x: 1.0, spec,
                                    density_bound=1.0, expression="1")
        return DensityPair(reference, fa.density, fb.density)
    raise TypeError(f"unsupported model {type(fa).__name__}")


# ---------------------------------------------------------------------------
# Point patterns
# ---------------------------------------------------------------------------

def _coords(locations, ndim: int, bounds=None) -> np.ndarray:
    """``(n, ndim)`` float64 coordinates of ``locations``, an array or floats
    (one axis) and coordinate sequences; points of another dimension, or off
    ``bounds`` if given, raise :class:`PointOutsideDomain`."""
    if not len(locations):
        return np.empty((0, ndim))
    try:
        pts = np.asarray(locations, dtype=float)
    except ValueError:  # ragged, as 0.25 and (0.75,)
        pts = np.array([np.ravel(loc) for loc in locations], dtype=float)
    pts = pts.reshape(len(pts), -1)
    if pts.shape[1] != ndim:
        raise PointOutsideDomain(f"location {_as_ids(pts[:1])[0]!r} has dimension "
                                 f"{pts.shape[1]}, expected {ndim}")
    if bounds is not None:
        lo, hi = np.array(bounds).T
        outside = np.argwhere(~((pts >= lo) & (pts <= hi)))  # NaN is outside too
        if len(outside):
            i, d = outside[0]
            raise PointOutsideDomain(f"coordinate {pts[i, d]} outside [{lo[d]}, {hi[d]}]")
    return pts


def _as_ids(locations):
    """Hashable locations: the rows of a coordinate array as floats (one
    axis) or tuples of floats, any other locations as given."""
    if not isinstance(locations, np.ndarray):
        return locations
    return (locations[:, 0].tolist() if locations.shape[1] == 1
            else list(map(tuple, locations.tolist())))


def _inside(locations, region) -> np.ndarray:
    """Which of ``locations`` lie in ``region``, a set of ids or a box."""
    if isinstance(region, (set, frozenset)):
        return np.array([loc in region for loc in _as_ids(locations)], dtype=bool)
    lo, hi = np.array(_normalize_box(region)).T
    pts = _coords(locations, len(lo))
    return ((pts >= lo) & (pts <= hi)).all(axis=1)


def _normalize_box(region):
    region = tuple(region)
    if len(region) == 2 and all(isinstance(v, (int, float)) for v in region):
        return ((float(region[0]), float(region[1])),)
    return tuple((float(lo), float(hi)) for lo, hi in region)


def _region_inside(region, window) -> bool:
    sets = (set, frozenset)
    if isinstance(window, sets) or isinstance(region, sets):
        return isinstance(window, sets) and isinstance(region, sets) and region <= window
    wbox, rbox = _normalize_box(window), _normalize_box(region)
    return len(rbox) == len(wbox) and all(
        wlo <= rlo and rhi <= whi for (rlo, rhi), (wlo, whi) in zip(rbox, wbox))


@dataclass(frozen=True, eq=False)
class PointPattern:
    """Finite multiset of points, built from ``(location, multiplicity)``
    pairs.  Float locations (floats for 1-d continuous models, tuples of
    floats otherwise) are the rows of ``coords``, a read-only ``(n, d)``
    float64 array; other locations, such as atom ids (strings and ints
    stay ids), are the tuple ``ids`` as given.  The other one, and
    ``coords`` of an empty pattern, is None.  ``mult`` is the read-only
    int64 array of the multiplicities, integers of at least 1.  ``window``
    records where the pattern was observed (a box, or a set of ids).
    """

    coords: np.ndarray | None
    ids: tuple | None
    mult: np.ndarray
    window: Any = None

    def __init__(self, points, window=None):
        pairs = list(points)
        self._fill([tuple(loc) if isinstance(loc, list) else loc for loc, _ in pairs],
                   [m for _, m in pairs], window)

    @classmethod
    def _of(cls, locations, mult, window=None) -> "PointPattern":
        """Pattern of an ``(n, d)`` array or a sequence of locations."""
        out = cls.__new__(cls)
        out._fill(locations, mult, window)
        return out

    def _fill(self, locations, mult, window):
        floats = (float, np.floating)  # float locations: floats or tuples of floats
        if len(locations) and (isinstance(locations, np.ndarray) or all(
                isinstance(loc, floats) or isinstance(loc, tuple) and len(loc) > 0
                and all(isinstance(v, floats) for v in loc) for loc in locations)):
            locations = _coords(locations, np.size(locations[0]))
            locations.flags.writeable = False
        else:
            locations = tuple(locations)
        mult = np.asarray(mult)
        if (mult.shape != (len(locations),) or len(mult) and mult.dtype.kind not in "iu"
                or (mult < 1).any()):
            raise ValueError("multiplicities must be integers >= 1, one per location")
        mult = mult.astype(np.int64)
        mult.flags.writeable = False
        if window is not None:
            window = (frozenset(window) if isinstance(window, (set, frozenset))
                      else _normalize_box(window))
            outside = np.flatnonzero(~_inside(locations, window))
            if len(outside):
                raise ValueError(f"point {_as_ids(locations)[outside[0]]!r} "
                                 "lies outside the window")
        coords = locations if isinstance(locations, np.ndarray) else None
        self.__dict__.update(coords=coords, ids=None if coords is not None else locations,
                             mult=mult, window=window)

    @property
    def locations(self):
        """``coords``, or ``ids`` if that is the one set."""
        return self.ids if self.coords is None else self.coords

    @property
    def points(self) -> tuple:
        """``(location, multiplicity)`` pairs, as the constructor takes."""
        return tuple(zip(_as_ids(self.locations), self.mult.tolist()))

    def __len__(self) -> int:
        return int(self.mult.sum())

    total_count = __len__

    def __eq__(self, other):
        return (isinstance(other, PointPattern) and self.ids == other.ids
                and self.window == other.window
                and np.array_equal(self.coords, other.coords)
                and np.array_equal(self.mult, other.mult))

    def __hash__(self):
        return hash((self.ids, _array_key(self.coords), _array_key(self.mult), self.window))


def count(pattern: PointPattern, region) -> int:
    """Number of pattern points (with multiplicity) inside ``region``."""
    if pattern.window is not None and not _region_inside(region, pattern.window):
        raise OutOfWindow("region exceeds the pattern's observation window")
    return int(pattern.mult[_inside(pattern.locations, region)].sum())


# ---------------------------------------------------------------------------
# Mark kernels
# ---------------------------------------------------------------------------

_MARK_NORMALISATION_TOL = 1e-10


@dataclass(frozen=True)
class MarkedModel:
    """Base intensity plus a probability kernel for marks.

    ``mark_reference`` is a shared reference measure for the mark space
    (a discrete support or a 1-d grid) and ``mark_density(t, x)`` is the
    kernel's density at base location ``t`` and mark ``x``.  At every
    represented location the density must integrate to one against the
    mark reference.
    """

    base: IntensityModel
    mark_reference: IntensityModel
    mark_density: Callable[[Any, Any], float]

    def __post_init__(self):
        ref = self.mark_reference.flattened()
        if not isinstance(ref, _EXACT):
            raise TypeError("mark reference must be discrete or a 1-d grid")
        if isinstance(ref, GridIntensity) and ref.ndim != 1:
            raise TypeError("grid mark references must be one-dimensional")
        object.__setattr__(self, "mark_reference", ref)
        locations = self._probe_locations()
        totals = self.mark_table(locations) @ ref.masses
        bad = np.flatnonzero(~(np.abs(totals - 1.0) <= _MARK_NORMALISATION_TOL))
        if len(bad):
            raise ValueError(
                f"mark kernel is not a probability kernel at "
                f"t={locations[bad[0]]!r}: integral {float(totals[bad[0]])!r}")

    def _probe_locations(self):
        """The base's atoms or cell centres, or the quadrature probe points
        of a smooth base (floats in one dimension, tuples otherwise)."""
        base = self.base.flattened()
        if isinstance(base, _EXACT):
            return base.support_locations()
        return _as_ids(probe_points(base.bounds))

    def mark_table(self, locations) -> np.ndarray:
        """``(len(locations), marks)`` kernel densities at base locations:
        one kernel call per atom id and mark of a discrete base, one
        :meth:`mark_densities_on` on the coordinates of a diffuse base.
        Raises ValueError on a value that is negative, NaN or infinite."""
        base = self.base.flattened()
        if isinstance(base, DiscreteIntensity):
            marks = self.mark_reference.support_locations()
            table = np.array([[self.mark_density(t, x) for x in marks]
                              for t in _as_ids(locations)],
                             dtype=float).reshape(len(locations), len(marks))
        else:
            table = self.mark_densities_on(_coords(locations, base.ndim).T)
        bad = np.argwhere(~((table >= 0.0) & (table < INF)))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"mark kernel is not a probability kernel at "
                             f"t={_as_ids(locations)[i]!r}: density {float(table[i, j])!r}")
        return table

    def mark_densities_on(self, cols) -> np.ndarray:
        """``(n, marks)`` kernel densities at the diffuse-base locations
        with coordinate arrays ``cols``: one call per mark id, with the
        location as one array in 1-d and a tuple of arrays otherwise (one
        float or tuple per point for a callable that cannot take arrays)."""
        def at(mark):
            return lambda *t: self.mark_density(t[0] if len(t) == 1 else t, mark)
        marks = self.mark_reference.support_locations()
        return np.stack([_on_arrays(at(x), cols) for x in marks], axis=-1)
