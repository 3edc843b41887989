"""Samplers for Poisson point patterns and marked patterns, plus the step
and cumulative path transforms of temporal patterns.

Randomness contract: every public sampler takes a 64-bit integer seed (or
a prebuilt ``numpy.random.Generator`` / ``SeedSequence``) and is
deterministic given ``(model, window, seed)``.  Parallel Monte Carlo
should give each worker its own child stream via :func:`spawn_streams`;
streams are never shared across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InfiniteWindowMass, OutOfWindow, ThinningBoundMissing)
from .extended import INF
from .measure import (DiscreteIntensity, GridIntensity, IntensityModel,
                      MarkedModel, PointPattern, SmoothIntensity,
                      _normalize_box)

_BOUND_PROBE = 512
_BOUND_SAFETY = 1.2


def as_rng(seed) -> np.random.Generator:
    """Accept an int seed, a SeedSequence, or a ready Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


def spawn_streams(seed, k: int) -> list[np.random.Generator]:
    """k independent child streams derived from one seed."""
    root = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(int(seed))
    return [np.random.default_rng(child) for child in root.spawn(k)]


def _window_box(model, window):
    if window is None:
        return model.bounds
    box = _normalize_box(window)
    if len(box) != len(model.bounds):
        raise OutOfWindow("window dimension does not match the model")
    out = []
    for (lo, hi), (wlo, whi) in zip(model.bounds, box):
        out.append((max(lo, wlo), min(hi, whi)))
        if out[-1][0] >= out[-1][1]:
            raise OutOfWindow("window does not meet the model domain")
    return tuple(out)


def sample_pp(model: IntensityModel, window=None, seed=0) -> PointPattern:
    """Draw one Poisson point pattern on ``window`` (default: the whole
    domain, which must then have finite mass).

    Discrete models sample atom counts directly; grid models pick a cell
    by mass and place the point uniformly inside it; smooth models thin a
    homogeneous proposal against a constant density bound (either
    ``density_bound`` or a probe-grid estimate).
    """
    rng = as_rng(seed)
    m = model.flattened()
    if isinstance(m, DiscreteIntensity):
        return _sample_discrete(m, window, rng)
    if isinstance(m, GridIntensity):
        return _sample_grid(m, window, rng)
    if isinstance(m, SmoothIntensity):
        return _sample_smooth(m, window, rng)
    raise TypeError(f"cannot sample from {type(m).__name__}")


def _sample_discrete(m: DiscreteIntensity, window, rng) -> PointPattern:
    if window is None:
        ids = m.support_locations()
        weights = m.weight_array
        win = None
    else:
        win = frozenset(window)
        ids = tuple(pid for pid in m.support_locations() if pid in win)
        weights = m.weight_array[[m.index[pid] for pid in ids]]
    total = float(weights.sum()) if len(ids) else 0.0
    if total == 0.0:
        return PointPattern((), window=win)
    n = int(rng.poisson(total))
    counts = rng.multinomial(n, weights / total)
    points = tuple((pid, int(c)) for pid, c in zip(ids, counts) if c > 0)
    return PointPattern(points, window=win)


def _cell_overlaps(m: GridIntensity, box):
    """Per-cell overlap volumes with ``box`` and the overlap sub-boxes."""
    axes = []
    for (lo, hi), n, step, (blo, bhi) in zip(m.bounds, m.shape, m.steps, box):
        spans = []
        for i in range(n):
            clo, chi = lo + i * step, lo + (i + 1) * step
            olo, ohi = max(clo, blo), min(chi, bhi)
            spans.append((olo, ohi) if ohi > olo else None)
        axes.append(spans)
    return axes


def _sample_grid(m: GridIntensity, window, rng) -> PointPattern:
    box = _window_box(m, window)
    axes = _cell_overlaps(m, box)
    cells, masses, spans = [], [], []
    vals = m.values_array
    for idx in np.ndindex(*m.shape):
        span = [axes[d][i] for d, i in enumerate(idx)]
        if any(s is None for s in span):
            continue
        vol = math.prod(hi - lo for lo, hi in span)
        mass = vals[idx] * vol
        if mass > 0.0:
            cells.append(idx)
            masses.append(mass)
            spans.append(span)
    total = math.fsum(masses)
    if total == 0.0:
        return PointPattern((), window=box)
    n = int(rng.poisson(total))
    if n == 0:
        return PointPattern((), window=box)
    probs = np.asarray(masses) / total
    chosen = rng.choice(len(cells), size=n, p=probs)
    points = []
    for c in chosen:
        span = spans[c]
        coords = tuple(rng.uniform(lo, hi) for lo, hi in span)
        points.append((coords[0] if m.ndim == 1 else coords, 1))
    return PointPattern(tuple(points), window=box)


def _density_bound(m: SmoothIntensity, box) -> float:
    if m.density_bound is not None:
        return m.density_bound
    probes = np.linspace(0.0, 1.0, _BOUND_PROBE)
    if len(box) == 1:
        lo, hi = box[0]
        top = max(m.density(lo + (hi - lo) * u) for u in probes)
    else:
        per_axis = max(2, int(_BOUND_PROBE ** (1.0 / len(box))))
        grids = [np.linspace(lo, hi, per_axis) for lo, hi in box]
        mesh = np.meshgrid(*grids, indexing="ij")
        top = max(m.density(*xs) for xs in zip(*[g.reshape(-1) for g in mesh]))
    if top <= 0.0:
        return 0.0
    return top * _BOUND_SAFETY


def _sample_smooth(m: SmoothIntensity, window, rng) -> PointPattern:
    box = _window_box(m, window)
    if any(math.isinf(hi) for _, hi in box):
        raise InfiniteWindowMass(
            "smooth sampling needs a bounded window on an unbounded domain")
    bound = _density_bound(m, box)
    if bound == 0.0:
        return PointPattern((), window=box)
    volume = math.prod(hi - lo for lo, hi in box)
    if not math.isfinite(bound * volume):
        raise InfiniteWindowMass("window mass is not finite")
    n = int(rng.poisson(bound * volume))
    points = []
    for _ in range(n):
        coords = tuple(rng.uniform(lo, hi) for lo, hi in box)
        dens = m.density(*coords)
        if dens > bound:
            raise ThinningBoundMissing(
                f"density {dens!r} exceeds the thinning bound {bound!r}; "
                "supply density_bound")
        if rng.uniform(0.0, bound) < dens:
            points.append((coords[0] if m.ndim == 1 else coords, 1))
    return PointPattern(tuple(points), window=box)


def sample_marked(marked: MarkedModel, window=None, seed=0) -> PointPattern:
    """Draw one marked pattern: locations from the base intensity, then
    one conditionally independent mark per point from the kernel."""
    base_rng, mark_rng = spawn_streams(seed, 2)
    base = sample_pp(marked.base, window=window, seed=base_rng)
    ref = marked.mark_reference
    out: dict = {}
    for loc, mult in base.points:
        dens = marked.mark_densities_at(loc)
        for _ in range(mult):
            mark = _draw_mark(ref, dens, mark_rng)
            key = (loc, mark)
            out[key] = out.get(key, 0) + 1
    return PointPattern(tuple(out.items()), window=None)


def _draw_mark(ref, dens, rng):
    if isinstance(ref, DiscreteIntensity):
        masses = dens * ref.weight_array
        probs = masses / masses.sum()
        idx = rng.choice(len(probs), p=probs)
        return ref.support_locations()[idx]
    masses = dens * ref.values_array.reshape(-1) * ref.cell_volume
    probs = masses / masses.sum()
    idx = int(rng.choice(len(probs), p=probs))
    lo, _ = ref.bounds[0]
    step = ref.steps[0]
    return float(rng.uniform(lo + idx * step, lo + (idx + 1) * step))


@dataclass(frozen=True)
class StepPath:
    """Right-continuous piecewise-constant path with jumps at ``times``."""

    times: tuple[float, ...]
    values: tuple  # cumulative value right of each jump
    initial: float = 0.0

    def __call__(self, t: float):
        idx = np.searchsorted(self.times, t, side="right")
        if idx == 0:
            return self.initial
        return self.values[idx - 1]

    def rows(self):
        """(time, value) pairs, one per jump, for CSV output."""
        return list(zip(self.times, self.values))


def counting_path(eta: PointPattern) -> StepPath:
    """Step function ``t -> number of points up to and including t`` for a
    one-dimensional temporal pattern."""
    jumps = sorted((float(loc), m) for loc, m in eta.points)
    times, counts, running = [], [], 0
    for t, m in jumps:
        running += m
        if times and times[-1] == t:
            counts[-1] = running
        else:
            times.append(t)
            counts.append(running)
    return StepPath(tuple(times), tuple(counts), initial=0)


def compound_path(eta: PointPattern) -> StepPath:
    """Cumulative sum of marks up to each time for a marked temporal
    pattern with locations ``(t, mark...)``."""
    jumps = []
    for loc, m in eta.points:
        t = float(loc[0])
        mark = loc[1] if len(loc) == 2 else tuple(loc[1:])
        jumps.append((t, mark, m))
    jumps.sort(key=lambda j: j[0])
    times, values = [], []
    running = None
    for t, mark, m in jumps:
        inc = (np.asarray(mark, dtype=float) * m
               if isinstance(mark, tuple) else float(mark) * m)
        running = inc if running is None else running + inc
        val = tuple(running) if isinstance(running, np.ndarray) else float(running)
        if times and times[-1] == t:
            values[-1] = val
        else:
            times.append(t)
            values.append(val)
    zero = 0.0
    if values and isinstance(values[0], tuple):
        zero = tuple(0.0 for _ in values[0])
    return StepPath(tuple(times), tuple(values), initial=zero)
