"""Intensity-measure models for Poisson point patterns.

Three concrete representations cover the measures this library computes
with:

* :class:`DiscreteIntensity` -- weighted atoms on a countable support,
  identified by opaque hashable ids.
* :class:`GridIntensity` -- an axis-aligned box split into a regular grid
  of cells, each carrying a constant Lebesgue density.
* :class:`SmoothIntensity` -- a nonnegative density function on a box (or
  the half-line ``[0, inf)``), integrated by adaptive quadrature.

:class:`ScaledIntensity` and :class:`SummedIntensity` combine models of a
single class.  :func:`common_reference` reduces any same-class pair to a
:class:`DensityPair`: densities ``(f, g)`` against one shared reference
measure, which is the canonical input to every divergence and likelihood
computation.  Point patterns and mark kernels round out the domain types.

All models are immutable after construction and safe to share across
threads; every operation here is pure.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Any, Callable, Sequence

import numpy as np

from .errors import (DomainMismatch, OutOfWindow, PointOutsideDomain,
                     QuadratureFailure)
from .extended import INF, ensure_extended, log_ratios
from .quadrature import (QuadratureSpec, integrate_box, probe_columns,
                         probe_points)

# Total cell budget for grid refinements; beyond this the two grids are
# treated as incommensurate.
_MAX_REFINED_CELLS = 2_000_000

_SNAP_TOL = 1e-12


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
        return float(math.fsum(self.weights.tolist()))

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
    """Regular grid over a finite box with a constant density per cell.

    ``values`` is a flat (row-major), read-only float64 array of the finite
    nonnegative cell densities, interpreted against the Lebesgue measure.
    """

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    values: np.ndarray

    def __init__(self, bounds, shape, values):
        bounds = _check_bounds(bounds)
        for lo, hi in bounds:
            if math.isinf(hi):
                raise ValueError("grid boxes must be bounded")
        shape = tuple(int(n) for n in (shape if isinstance(shape, Sequence) else (shape,)))
        if any(n < 1 for n in shape) or len(shape) != len(bounds):
            raise ValueError("shape must give a positive cell count per axis")
        flat = _frozen_densities(values, "cell densities")
        if len(flat) != math.prod(shape):
            raise ValueError("values length must equal the number of cells")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "values", flat)

    @property
    def domain_class(self) -> str:
        return "grid"

    @property
    def ndim(self) -> int:
        return len(self.bounds)

    @cached_property
    def steps(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.bounds, self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(math.prod(self.steps))

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
        pts = _coords_array(locations, self.bounds)
        t = (pts - np.array(self.bounds)[:, 0]) / self.steps
        i = np.floor(t)
        i = np.where((i >= 1) & (t == i), i - 1, i)
        return np.clip(i, 0, np.array(self.shape) - 1).astype(np.intp)

    def density_at(self, location) -> float:
        return float(self.values_array[self.cell_index(location)])

    def cell_centers(self) -> np.ndarray:
        axes = [lo + (np.arange(n) + 0.5) * step
                for (lo, hi), n, step in zip(self.bounds, self.shape, self.steps)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    @cached_property
    def masses(self) -> np.ndarray:
        """Reference mass of each cell (density times cell volume)."""
        out = self.values * self.cell_volume
        out.flags.writeable = False
        return out

    @cached_property
    def _centres(self) -> tuple:
        centres = self.cell_centers()
        return tuple(centres[:, 0].tolist() if self.ndim == 1
                     else map(tuple, centres.tolist()))

    def support_locations(self) -> tuple:
        return self._centres

    def total_mass(self) -> float:
        return float(math.fsum(self.values.tolist()) * self.cell_volume)

    def _reweighted(self, factors) -> "GridIntensity":
        return GridIntensity(self.bounds, self.shape, self.values * factors)

    def __eq__(self, other):
        if not isinstance(other, GridIntensity):
            return NotImplemented
        return (self.bounds == other.bounds and self.shape == other.shape
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
    have infinite total mass (the sigma-finite case) and expose finite-mass
    truncations ``S_n = domain ∩ (coordinates <= n)`` via :meth:`truncated`.
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
        loc = _coords_array([location], self.bounds)[0].tolist()
        return ensure_extended(self.density(*loc), "smooth density value")

    def truncated(self, n: float) -> "SmoothIntensity":
        """Restriction to coordinates at most ``n`` (finite mass for finite n)."""
        new_bounds = tuple((lo, min(hi, float(n))) for lo, hi in self.bounds)
        for lo, hi in new_bounds:
            if hi <= lo:
                raise ValueError(f"truncation level {n} empties the domain")
        return SmoothIntensity(new_bounds, self.density, self.quadrature,
                               self.density_bound, None)

    def total_mass(self) -> float:
        try:
            value, _ = integrate_box(lambda *x: density_values(self.density, x),
                                     self.bounds, self.quadrature)
        except QuadratureFailure as exc:
            if self.has_unbounded_domain and exc.possibly_infinite:
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
        return float(math.fsum(masses))

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
    ``a`` first) or the exact common grid refinement."""
    if isinstance(a, GridIntensity):
        return _refine_pair(a, b)
    extra = [pid for pid in b.ids if pid not in a.index]
    ids = a.ids + tuple(extra)
    # index -1 picks the zero appended to the weights of ``b``
    at_b = [b.index.get(pid, -1) for pid in ids]
    return (DiscreteIntensity._of(ids, np.ones(len(ids))),
            np.concatenate([a.weights, np.zeros(len(extra))]),
            np.append(b.weights, 0.0)[at_b])


# ---------------------------------------------------------------------------
# Grid refinement
# ---------------------------------------------------------------------------

def _snap(x: float) -> Fraction:
    fr = Fraction(x).limit_denominator(10 ** 9)
    if abs(float(fr) - x) > _SNAP_TOL * max(1.0, abs(x)):
        raise DomainMismatch(
            f"grid coordinate {x!r} is not commensurate with a rational lattice")
    return fr


def _fraction_gcd(fractions):
    out = fractions[0]
    for fr in fractions[1:]:
        num = math.gcd(out.numerator * fr.denominator,
                       fr.numerator * out.denominator)
        out = Fraction(num, out.denominator * fr.denominator)
    return out


def _refine_axis(a_lo, a_hi, n_a, b_lo, b_hi, n_b):
    """Common regular lattice covering both axis intervals exactly."""
    fa_lo, fa_hi = _snap(a_lo), _snap(a_hi)
    fb_lo, fb_hi = _snap(b_lo), _snap(b_hi)
    if min(fa_hi, fb_hi) <= max(fa_lo, fb_lo):
        raise DomainMismatch("grid boxes are disjoint")
    step_a = (fa_hi - fa_lo) / n_a
    step_b = (fb_hi - fb_lo) / n_b
    lo = min(fa_lo, fb_lo)
    hi = max(fa_hi, fb_hi)
    anchors = [step_a, step_b]
    for off in (fa_lo - lo, fb_lo - lo):
        if off != 0:
            anchors.append(off)
    h = _fraction_gcd(anchors)
    n_cells = (hi - lo) / h
    if n_cells.denominator != 1:
        raise DomainMismatch("grid lattices are incommensurate")
    return float(lo), float(hi), int(n_cells), lo, h


def _axis_map(lo_u: Fraction, h: Fraction, n_cells: int, m_lo, m_hi, m_n):
    """Refined-axis index -> original cell index (or -1 outside the box).

    ``h`` divides both the model's step and its offset from ``lo_u``, so
    the model box starts at refined index ``k0`` and each model cell spans
    ``q`` refined cells, both integers: refined cell ``r`` (centre
    ``lo_u + h (r + 1/2)``) lies in model cell ``(r - k0) // q``.
    """
    f_lo, f_hi = _snap(m_lo), _snap(m_hi)
    k0 = (f_lo - lo_u) / h
    q = (f_hi - f_lo) / m_n / h
    assert k0.denominator == 1 and q.denominator == 1
    k0, q = int(k0), int(q)
    r = np.arange(n_cells)
    return np.where((r >= k0) & (r < k0 + m_n * q), (r - k0) // q, -1)


def _refine_pair(a: GridIntensity, b: GridIntensity):
    """Lebesgue reference grid refining both inputs, plus aligned densities."""
    if a.ndim != b.ndim:
        raise DomainMismatch("grids differ in dimension")
    bounds, shape, axis_data = [], [], []
    for d in range(a.ndim):
        lo, hi, n_cells, f_lo, h = _refine_axis(
            a.bounds[d][0], a.bounds[d][1], a.shape[d],
            b.bounds[d][0], b.bounds[d][1], b.shape[d])
        bounds.append((lo, hi))
        shape.append(n_cells)
        axis_data.append((f_lo, h, n_cells))
    if math.prod(shape) > _MAX_REFINED_CELLS:
        raise DomainMismatch("common grid refinement exceeds the cell budget")

    def gather(model: GridIntensity) -> np.ndarray:
        maps = [_axis_map(f_lo, h, n_cells, model.bounds[d][0],
                          model.bounds[d][1], model.shape[d])
                for d, (f_lo, h, n_cells) in enumerate(axis_data)]
        vals = model.values_array
        out = vals[np.ix_(*[np.clip(m, 0, s - 1) for m, s in zip(maps, model.shape)])]
        mask = np.ones(tuple(shape), dtype=bool)
        for d, m in enumerate(maps):
            sel = (m >= 0)
            mask &= sel.reshape([-1 if i == d else 1 for i in range(len(shape))])
        return np.where(mask, out, 0.0).reshape(-1)

    reference = GridIntensity(tuple(bounds), tuple(shape),
                              np.ones(math.prod(shape)))
    return reference, gather(a), gather(b)


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
    still be infinite.

    A pair never changes once built, so it memoises its Tsallis orders,
    masses, reversed pair and probe read, and the quadrature failure of
    any of them (a race at worst computes one twice).
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
            idx = [ref.index.get(loc, -1) for loc in locations]
            return log_ratios(np.append(self.f, 0.0)[idx],
                              np.append(self.g, 0.0)[idx])
        if isinstance(ref, GridIntensity):
            idx = np.ravel_multi_index(tuple(ref.cell_indices(locations).T), ref.shape)
            return log_ratios(self.f[idx], self.g[idx])
        cols = _coords_array(locations, ref.bounds).T
        return log_ratios(density_values(self.f, cols),
                          density_values(self.g, cols))

    def swapped(self) -> "DensityPair":
        return self._memoised("swapped",
                              lambda: DensityPair(self.reference, self.g, self.f))

    def lambda_mass(self) -> float:
        return self._memoised("lambda", lambda: self._mass(self.f))

    def mu_mass(self) -> float:
        return self._memoised("mu", lambda: self._mass(self.g))

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
    def _probe_densities(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``f``, ``g`` and the reference density of a smooth pair at the
        probe points; an overflow there fails as it would at a node."""
        cols = probe_columns(self.reference.bounds)
        try:
            return tuple(density_values(d, cols)
                         for d in (self.f, self.g, self.reference.density))
        except OverflowError as exc:
            raise QuadratureFailure(f"a density overflows at a probe: {exc}",
                                    possibly_infinite=True) from exc

    def _mass(self, density) -> float:
        if self.is_exact:
            return float(math.fsum((self.reference.masses * density).tolist()))
        ref = self.reference
        refdens = ref.density
        try:
            value, _ = integrate_box(
                lambda *x: density_values(density, x) * density_values(refdens, x),
                ref.bounds, ref.quadrature)
        except QuadratureFailure as exc:
            if exc.possibly_infinite and ref.has_unbounded_domain:
                return INF
            raise
        return ensure_extended(value, "mass")


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
    supports; grid pairs on the Lebesgue measure of the exact common grid
    refinement; smooth pairs on the Lebesgue measure of their (identical)
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

def _as_coords(location, ndim: int) -> tuple[float, ...]:
    if isinstance(location, (tuple, list, np.ndarray)):
        loc = tuple(float(x) for x in location)
    else:
        loc = (float(location),)
    if len(loc) != ndim:
        raise PointOutsideDomain(
            f"location {location!r} has dimension {len(loc)}, expected {ndim}")
    return loc


def _coords(locations, ndim: int) -> np.ndarray:
    """``(n, ndim)`` coordinates of ``locations`` (floats in one dimension,
    coordinate sequences otherwise): one array conversion when they are
    uniform, else one :func:`_as_coords` per location."""
    try:
        pts = np.array(locations, dtype=float)
        if pts.shape == (len(locations), ndim):
            return pts
        if ndim == 1 and pts.shape == (len(locations),):
            return pts[:, None]
    except (TypeError, ValueError):
        pass
    return np.array([_as_coords(loc, ndim) for loc in locations],
                    dtype=float).reshape(-1, ndim)


def _coords_array(locations, bounds) -> np.ndarray:
    """``(n, d)`` coordinates of ``locations``, which must lie in ``bounds``."""
    pts = _coords(locations, len(bounds))
    lo, hi = np.array(bounds).T
    outside = np.argwhere(~((pts >= lo) & (pts <= hi)))  # NaN is outside too
    if len(outside):
        i, d = outside[0]
        raise PointOutsideDomain(f"coordinate {pts[i, d]} outside [{lo[d]}, {hi[d]}]")
    return pts


def probe_locations(bounds) -> list:
    """:func:`~ppdiv.quadrature.probe_points` as pattern locations: floats
    in one dimension, coordinate tuples otherwise."""
    points = probe_points(bounds)
    return [p[0] for p in points] if len(bounds) == 1 else points


def _inside(locations, region) -> np.ndarray:
    """Which of ``locations`` lie in ``region``, a set of ids or a box."""
    if isinstance(region, (set, frozenset)):
        return np.array([loc in region for loc in locations], dtype=bool)
    lo, hi = np.array(_normalize_box(region)).T
    pts = _coords(locations, len(lo))
    return ((pts >= lo) & (pts <= hi)).all(axis=1)


def _normalize_box(region):
    region = tuple(region)
    if len(region) == 2 and all(isinstance(v, (int, float)) for v in region):
        return ((float(region[0]), float(region[1])),)
    return tuple((float(lo), float(hi)) for lo, hi in region)


def _region_inside(region, window) -> bool:
    if isinstance(window, (set, frozenset)):
        return isinstance(region, (set, frozenset)) and region <= window
    wbox = _normalize_box(window)
    rbox = _normalize_box(region)
    if len(rbox) != len(wbox):
        return False
    return all(wlo <= rlo and rhi <= whi
               for (rlo, rhi), (wlo, whi) in zip(rbox, wbox))


@dataclass(frozen=True)
class PointPattern:
    """Finite multiset of points with multiplicities.

    Locations are atom ids for discrete models, floats for 1-d continuous
    models, and coordinate tuples otherwise.  ``window`` records where the
    pattern was observed (a box, or a set of ids).
    """

    points: tuple[tuple[Any, int], ...]
    window: Any = None

    def __init__(self, points, window=None):
        pts = []
        for loc, mult in points:
            m = int(mult)
            if m < 1:
                raise ValueError("multiplicities must be positive integers")
            if isinstance(loc, list):
                loc = tuple(loc)
            pts.append((loc, m))
        if window is not None and not isinstance(window, (set, frozenset)):
            window = _normalize_box(window)
        elif isinstance(window, set):
            window = frozenset(window)
        if window is not None:
            outside = np.flatnonzero(~_inside([loc for loc, _ in pts], window))
            if len(outside):
                raise ValueError(
                    f"point {pts[outside[0]][0]!r} lies outside the window")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "window", window)

    def total_count(self) -> int:
        return sum(m for _, m in self.points)

    def __len__(self) -> int:
        return self.total_count()


def count(pattern: PointPattern, region) -> int:
    """Number of pattern points (with multiplicity) inside ``region``."""
    if pattern.window is not None and not _region_inside(region, pattern.window):
        raise OutOfWindow("region exceeds the pattern's observation window")
    inside = _inside([loc for loc, _ in pattern.points], region)
    return sum(m for (_, m), ok in zip(pattern.points, inside.tolist()) if ok)


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
        return probe_locations(base.bounds)

    def mark_table(self, locations) -> np.ndarray:
        """``(len(locations), marks)`` kernel densities at base locations:
        one kernel call per atom id and mark of a discrete base, one
        :meth:`mark_densities_on` on the coordinates of a diffuse base."""
        base = self.base.flattened()
        if isinstance(base, DiscreteIntensity):
            marks = self.mark_reference.support_locations()
            return np.array([[self.mark_density(t, x) for x in marks] for t in locations],
                            dtype=float).reshape(len(locations), len(marks))
        return self.mark_densities_on(_coords(locations, base.ndim).T)

    def mark_densities_on(self, cols) -> np.ndarray:
        """``(n, marks)`` kernel densities at the diffuse-base locations
        with coordinate arrays ``cols``: one call per mark id, with the
        location as one array in 1-d and a tuple of arrays otherwise (one
        float or tuple per point for a callable that cannot take arrays)."""
        def at(mark):
            return lambda *t: self.mark_density(t[0] if len(t) == 1 else t, mark)
        marks = self.mark_reference.support_locations()
        return np.stack([_on_arrays(at(x), cols) for x in marks], axis=-1)
