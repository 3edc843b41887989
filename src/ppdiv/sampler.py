"""Samplers for Poisson point patterns and marked patterns, plus the step
and cumulative path transforms of temporal patterns.

Randomness contract: every public sampler takes a 64-bit integer seed (or
a prebuilt ``numpy.random.Generator`` / ``SeedSequence``) and is
deterministic given ``(model, window, seed)``.  Parallel Monte Carlo
should give each worker its own child stream via :func:`spawn_streams`;
streams are never shared across workers.

The grid and smooth samplers draw whole arrays: a grid pattern takes one
``choice`` of cells and one uniform array per axis, and smooth thinning
(Lewis and Shedler, 1979) draws all proposals and their uniforms at once
and calls the density once on them, for one pattern or a block of them.
Marks take one uniform array for all points.  These streams replaced
per-point draws, so a seed now gives another pattern than under the
per-point code.  Batches of independent Poisson count vectors, which the
exact Monte Carlo and Bayes-risk simulators read, are drawn column by
column, from one histogram each where that is the cheaper draw
(:func:`_poisson_rows`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (InfiniteMass, InfiniteWindowMass, OutOfWindow,
                     PointOutsideDomain, ThinningBoundMissing)
from .extended import ext_fsum
from .measure import (DiscreteIntensity, GridIntensity, IntensityModel,
                      MarkedModel, PointPattern, SmoothIntensity, _as_ids,
                      _coords, _normalize_box, density_values)

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


# numpy's largest Poisson mean: the int64 maximum less ten of its square roots
_POISSON_MAX = float(np.iinfo(np.int64).max) - 10.0 * math.sqrt(np.iinfo(np.int64).max)


def _require_drawable(means, error=InfiniteWindowMass):
    """Raise ``error`` before any draw when a Poisson mean in ``means`` is
    infinite or above numpy's Poisson limit."""
    top = float(np.max(means, initial=0.0))
    if not math.isfinite(top):
        raise error("window mass is not finite")
    if top > _POISSON_MAX:
        raise error(f"Poisson mean {top!r} exceeds numpy's Poisson limit "
                    f"{_POISSON_MAX:.6g}")


# A histogram column (below) trades each direct Poisson draw, about 15 ns
# at small means and 30-60 ns from a mean of 1 (numpy 2.4, one Xeon core),
# for one shuffle step of about 13 ns, at a cost of about 20 us per column
# and 0.2 us per window value.  Timed against the direct draw on that
# core, it wins from a mean of 0.5 and 1000 + 16 rows per window value.
_HIST_MIN_MEAN = 0.5
_HIST_MIN_ROWS = 1000
_HIST_ROWS_PER_VALUE = 16


def _poisson_rows(means, k: int, rng) -> np.ndarray:
    """``(k, len(means))`` int64 counts: k rows of independent Poisson
    counts with the given means.  Raises :class:`InfiniteMass` before any
    draw when a mean fails :func:`_require_drawable`.

    A column with a mean of at least ``_HIST_MIN_MEAN`` and enough draws
    for its window is drawn whole from its histogram (Devroye, 1986, the
    histogram-then-shuffle method): one multinomial draw of k over the
    Poisson pmf on the window (:func:`_poisson_column`), whose counts are
    repeated in order.  The other columns, typical of grids with many
    small cells or of few rows, are drawn together by one ``rng.poisson``.
    Histogram columns after the first are shuffled, so the rows are k iid
    rows sorted by the first histogram column's count: callers read
    symmetric functions of the rows only.
    """
    means = np.asarray(means, dtype=float)
    _require_drawable(means, InfiniteMass)
    hi = (means + 12.0 * np.sqrt(means)).astype(np.int64) + 30
    by_hist = ((means >= _HIST_MIN_MEAN)
               & (k >= _HIST_MIN_ROWS + _HIST_ROWS_PER_VALUE * hi))
    if not by_hist.any():
        return rng.poisson(means, size=(k, len(means)))
    out = np.empty((len(means), k), dtype=np.int64)
    direct = ~by_hist
    out[direct] = rng.poisson(means[direct], size=(k, int(direct.sum()))).T
    for i, j in enumerate(np.flatnonzero(by_hist)):
        out[j] = _poisson_column(float(means[j]), k, int(hi[j]), rng)
        if i:
            rng.shuffle(out[j])
    return out.T


def _poisson_column(m: float, k: int, hi: int, rng) -> np.ndarray:
    """k Poisson(m) counts in increasing order: one multinomial histogram
    over the pmf on ``[0, hi)`` and its upper tail, whose counts are drawn
    from the tail by :func:`_poisson_tail`.

    The terms carry relative rounding errors that grow with ``m`` (about
    1e-11 near 1e4, from ``x log m`` and ``lgamma``), which can lift their
    sum past 1, where numpy refuses the draw; such a sum is scaled back
    to 1.  A window of :func:`_poisson_rows` misses less than
    1e-30 of the mass, so its tail takes only rounding leftovers."""
    x = np.arange(hi)
    log_fact = np.fromiter(map(math.lgamma, range(1, hi + 1)), float, hi)
    pmf = np.exp(x * math.log(m) - m - log_fact)
    pmf /= max(1.0, pmf.sum())
    # numpy gives the last category what the others leave: the upper tail
    hist = rng.multinomial(k, np.append(pmf, 0.0))
    col = np.repeat(np.arange(hi + 1), hist)
    if hist[-1]:
        col[k - hist[-1]:] = _poisson_tail(m, hi, int(hist[-1]), rng)
    return col


def _poisson_tail(m: float, hi: int, size: int, rng) -> np.ndarray:
    """``size`` draws of a Poisson(m) count conditioned on being at least
    ``hi``, by inversion of the tail's cumulative sums.  The terms follow
    the pmf recursion ``p(x + 1) = p(x) m / (x + 1)`` relative to ``p(hi)``;
    past ``m`` the ratios fall below 1, so the terms shrink geometrically
    and the sums end once a term no longer moves them."""
    term, x, cdf = 1.0, hi, [1.0]
    while x < m or term > 1e-17 * cdf[-1]:
        x += 1
        term *= m / x
        cdf.append(cdf[-1] + term)
    cdf = np.array(cdf)
    at = np.searchsorted(cdf, rng.uniform(0.0, cdf[-1], size), side="right")
    return hi + np.minimum(at, len(cdf) - 1)  # a uniform rounded up to the end


def _window_box(model, window):
    """The part of the model's box inside ``window``, a box with one
    ``(lo, hi)`` axis per model axis."""
    if window is None:
        return model.bounds
    try:
        box = () if isinstance(window, (set, frozenset)) else _normalize_box(window)
    except (TypeError, ValueError):
        box = ()
    if len(box) != len(model.bounds) or not all(lo < hi for lo, hi in box):  # NaN too
        raise OutOfWindow(f"a {len(model.bounds)}-d model needs a box window of "
                          f"{len(model.bounds)} lo:hi axes with lo < hi")
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
    ids, weights, win = m.ids, m.weights, None
    if isinstance(window, tuple):
        raise OutOfWindow("a discrete model's window is a set of atom ids, not a box")
    if window is not None:
        win = frozenset(window)
        keep = [i for i, pid in enumerate(ids) if pid in win]
        ids, weights = tuple(ids[i] for i in keep), weights[keep]
    total = ext_fsum(weights.tolist())
    _require_drawable([total])
    if total == 0.0:
        return PointPattern((), window=win)
    n = int(rng.poisson(total))
    counts = rng.multinomial(n, weights / total)
    drawn = np.flatnonzero(counts)
    return PointPattern._of([ids[i] for i in drawn.tolist()], counts[drawn], window=win)


def _sample_grid(m: GridIntensity, window, rng) -> PointPattern:
    box = _window_box(m, window)
    lows, highs = m._cells_in(box)
    masses = m._masses_in(box)
    total = ext_fsum(masses.tolist())
    _require_drawable([total])
    n = int(rng.poisson(total)) if total > 0.0 else 0
    if n == 0:
        return PointPattern((), window=box)
    cells = np.unravel_index(rng.choice(masses.size, size=n, p=masses / total),
                             m.shape)
    cols = [rng.uniform(lo[i], hi[i]) for lo, hi, i in zip(lows, highs, cells)]
    return PointPattern._of(np.stack(cols, axis=-1), np.ones(n, dtype=np.int64), window=box)


def _density_bound(m: SmoothIntensity, box) -> float:
    if m.density_bound is not None:
        return m.density_bound
    per_axis = max(2, int(_BOUND_PROBE ** (1.0 / len(box))))
    mesh = np.meshgrid(*[np.linspace(lo, hi, per_axis) for lo, hi in box],
                       indexing="ij")
    top = float(density_values(m.density, [g.reshape(-1) for g in mesh]).max())
    if top <= 0.0:
        return 0.0
    return top * _BOUND_SAFETY


def _sample_smooth(m: SmoothIntensity, window, rng) -> PointPattern:
    box = _window_box(m, window)
    coords, _ = _thin(m, box, rng, 1)
    return PointPattern._of(coords, np.ones(len(coords), dtype=np.int64), window=box)


def _proposal_rate(m: SmoothIntensity, box) -> tuple[float, float]:
    """The thinning bound of ``m`` on the bounded ``box`` and the expected
    number of proposals of one pattern."""
    if any(math.isinf(hi) for _, hi in box):
        raise InfiniteWindowMass(
            "smooth sampling needs a bounded window on an unbounded domain")
    bound = _density_bound(m, box)
    mean = bound * math.prod(hi - lo for lo, hi in box)
    _require_drawable([mean])
    return bound, mean


def _thin(m: SmoothIntensity, box, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Thinning (Lewis and Shedler, 1979) of ``size`` independent patterns
    on ``box``: their Poisson proposal counts, then one uniform array of
    proposals and one of acceptance levels under the bound, and one call of
    the density.  Returns the accepted ``(n, d)`` coordinates, pattern by
    pattern, and the index of the pattern of each row."""
    bound, mean = _proposal_rate(m, box)
    if bound == 0.0:
        return np.empty((0, len(box))), np.empty(0, dtype=np.int64)
    counts = rng.poisson(mean, size=size)
    n = int(counts.sum())
    lo, hi = np.array(box).T
    proposals = rng.uniform(lo, hi, size=(n, len(box)))
    u = rng.uniform(0.0, bound, size=n)
    dens = density_values(m.density, proposals.T)
    over = dens > bound
    if over.any():
        raise ThinningBoundMissing(
            f"density {float(dens[over][0])!r} exceeds the thinning bound "
            f"{bound!r}; supply density_bound")
    keep = u < dens
    return proposals[keep], np.repeat(np.arange(size), counts)[keep]


def sample_marked(marked: MarkedModel, window=None, seed=0) -> PointPattern:
    """Draw one marked pattern: locations from the base intensity, then
    one conditionally independent mark per point from the kernel, by
    inverse CDF on the kernel's cumulative mark masses at the point (and,
    on a grid of marks, uniformly inside the drawn cell)."""
    base_rng, mark_rng = spawn_streams(seed, 2)
    base = sample_pp(marked.base, window=window, seed=base_rng)
    ref = marked.mark_reference
    # one row per point, repeated by its multiplicity
    rows = np.repeat(np.arange(len(base.mult)), base.mult)
    cdf = np.cumsum(marked.mark_table(base.locations) * ref.masses, axis=1)[rows]
    total = cdf[:, -1]
    if not (total > 0.0).all():
        raise ValueError("mark kernel has no mass at a sampled location")
    # u < total, so the first mark whose cumulative mass passes u exists and
    # has positive mass
    u = np.minimum(mark_rng.uniform(size=len(rows)) * total, np.nextafter(total, 0.0))
    idx = np.argmax(u[:, None] < cdf, axis=1)
    if isinstance(ref, DiscreteIntensity):
        marks = [ref.ids[i] for i in idx.tolist()]
    else:
        edges = ref.edges[0]
        marks = mark_rng.uniform(edges[idx], edges[idx + 1]).tolist()
    locs = _as_ids(base.locations)
    # equal (location, mark) pairs merge, in the order they first come
    return PointPattern(Counter(zip([locs[r] for r in rows.tolist()], marks)).items())


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


def _path_coords(eta: PointPattern, marked: bool) -> np.ndarray:
    """``(n, d)`` coordinates of a temporal pattern, ``d > 1`` iff ``marked``."""
    try:
        d = np.size(eta.locations[0]) if len(eta.mult) else 1 + marked
        if (d > 1) == marked:
            return _coords(eta.locations, d)
    except (TypeError, ValueError, PointOutsideDomain):
        pass
    raise ValueError("compound_path needs (t, mark, ...) locations of numbers" if marked
                     else "counting_path needs a one-dimensional pattern of numeric times")


def _step_path(times: np.ndarray, values: np.ndarray, initial) -> StepPath:
    """Path of the cumulative sums of ``values`` (or of its rows) in the
    stable order of ``times``, with one step per distinct time."""
    order = np.argsort(times, kind="stable")
    times = times[order]
    last = np.append(times[1:] != times[:-1], True)[:len(times)]
    sums = np.cumsum(values[order], axis=0)[last].tolist()
    return StepPath(tuple(times[last].tolist()),
                    tuple(map(tuple, sums) if values.ndim > 1 else sums), initial)


def counting_path(eta: PointPattern) -> StepPath:
    """Step function ``t -> number of points up to and including t`` for a
    one-dimensional temporal pattern."""
    return _step_path(_path_coords(eta, False)[:, 0], eta.mult, 0)


def compound_path(eta: PointPattern) -> StepPath:
    """Cumulative sum of marks up to each time for a marked temporal
    pattern with locations ``(t, mark...)``."""
    pts = _path_coords(eta, True)
    if pts.shape[1] == 2:
        return _step_path(pts[:, 0], pts[:, 1] * eta.mult, 0.0)
    return _step_path(pts[:, 0], pts[:, 1:] * eta.mult[:, None],
                      (0.0,) * (pts.shape[1] - 1))
