"""Adaptive quadrature behind a uniform failure contract.

All smooth-model integrals run through this module so that tolerances and
error reporting stay consistent.  The integrator is a vectorised adaptive
Gauss-Kronrod rule (Piessens et al., *QUADPACK*, 1983; Shampine, J.
Comput. Appl. Math. 211, 2008): the 15-point Kronrod rule with its
embedded 7-point Gauss rule and QUADPACK's error estimate, as a tensor
product on boxes of two or more dimensions.  Integrands take **arrays**:
``func(*cols)`` receives one float64 array per axis, holding the nodes of
every new panel of a round, and returns the integrand values as one
array, or as ``(rows, n)`` values of integrands that share the panels and
the panel budget, each to its own tolerance (Shampine's ``quadv``).  Each
round bisects the panels with the largest errors relative to their row's
tolerance, as few as leave every row within half its tolerance, a box
across the axis whose Gauss rule disagrees most in its worst row, and
evaluates all the halves in one call.
:func:`integrate_segments` starts a 1-d run from given break points, as
QUADPACK's ``qagp`` does, and reads the integral over each segment
between them from the panels that bisection made of it.

The half-line ``[lo, inf)`` is mapped onto ``(0, 1]`` by ``x = lo + t/(1-t)``
with ``s = 1 - t`` carried as the variable (QUADPACK's ``qk15i`` map), so
the tail panel next to ``s = 0`` can shrink far below the float spacing
near 1.  On a budget of at least 32 panels it starts from the initial
panels of a bounded interval, eight in ``s``, so the tail panel is first
``[0, 1/8]`` and a smooth tail such as ``exp(-x)`` settles in one or two
rounds; on a smaller budget it starts from the one panel ``(0, 1]`` of
``qk15i``, which leaves the budget to bisection.  Halving the tail panel
leaves a geometric ring and a new tail panel; while the rings shrink,
Wynn's epsilon algorithm extrapolates each row's tail from them
(QUADPACK's ``qelg``), which settles slowly decaying power tails.  A tail
still in error at the depth where QUADPACK evaluated a slow exponential
tail means a divergent integral.

A request the integrator cannot satisfy raises :class:`QuadratureFailure`
instead of returning a silent best effort, always with
``possibly_infinite=True``: the panel budget ran out, a panel could not be
split further, the integrand was not finite or overflowed at a node, or
the tail of a half-line did not converge within reach.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure

_EPSREL = 1e-10

# Midpoint probes of a bounded 1-d domain, before the golden-ratio offsets,
# and per axis of a box in two or more dimensions.
_PROBES_PER_AXIS = 17
_BOX_PROBES_PER_AXIS = 9
_GOLDEN = 0.381966

# Initial panels of a bounded 1-d interval, shared evenly among its
# segments (at least one each).  A round costs about the same for 15 or 120
# nodes, and the finer start resolves features down to about a hundredth of
# the interval.  A half-line cuts (0, 1] in s into as many, so a power of
# two keeps its tail panel at [0, 2^-depth].
_INITIAL_PANELS = 8

# A half-line starts from the initial panels only on a budget of at least
# this, else from the one panel (0, 1] of qk15i: the start spends panels
# that a slow tail such as exp(-x/1e4) needs at the far end, and on budgets
# 8 to 29 it made such tails run out where one panel settled.
_HALF_LINE_START_BUDGET = 4 * _INITIAL_PANELS

# The tail panel [0, 2^-depth] of a half-line is cut no deeper than this:
# its smallest node is then x = lo + 4.9e8, where QUADPACK's qagi evaluated
# exp(-x/1e5) to integrate it.
_TAIL_DEPTH = 21

# Wynn's epsilon algorithm extrapolates the half-line tail from this many
# newest entries: the older ones, from rings far from infinity, bias the
# limit of the whole sequence by up to 5e-10 relative on tails such as
# (2.19 + x)^-1.25 while its error estimate stays below 1e-10.
_WYNN_WINDOW = 5

# Each round splits boxes until the rest hold at most this share of the
# tolerance.
_SPLIT_TARGET = 0.5

_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min

# Gauss-Kronrod 15-point nodes on [-1, 1] and weights, with the weights of
# the 7-point Gauss rule on the nodes it shares (QUADPACK qk15).
_XK_HALF = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
            0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
            0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
            0.207784955007898467600689403773245)
_WK_HALF = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
            0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
            0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
            0.204432940075298892414161999234649)
_WK_MID = 0.209482141084727828012999174891714
_WG_HALF = (0.0, 0.129484966168869693270611432679082, 0.0,
            0.279705391489276667901467771423780, 0.0,
            0.381830050505118944950369775488975, 0.0)
_WG_MID = 0.417959183673469387755102040816327
_XK = np.array([-x for x in _XK_HALF] + [0.0] + list(reversed(_XK_HALF)))
_WK = np.array(list(_WK_HALF) + [_WK_MID] + list(reversed(_WK_HALF)))
_WG = np.array(list(_WG_HALF) + [_WG_MID] + list(reversed(_WG_HALF)))
_KG = np.stack([_WK, _WG], axis=1)
_XK01 = 0.5 * (1.0 + _XK)  # the nodes on [0, 1]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive integration of smooth densities.

    ``max_subdivisions`` bounds the number of panels (boxes in two or more
    dimensions) of the final partition, plus one per segment after the first.
    A half-line starts from eight panels on a budget of at least 32, else
    from one, so a small budget integrates what it did with the one-panel
    start.
    """

    abs_tol: float = 1e-10
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and math.isfinite(self.abs_tol)):
            raise ValueError("abs_tol must be a positive finite real")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")

    def merged(self, other: "QuadratureSpec") -> "QuadratureSpec":
        """Tightest combination of two specs."""
        return QuadratureSpec(
            abs_tol=min(self.abs_tol, other.abs_tol),
            max_subdivisions=max(self.max_subdivisions, other.max_subdivisions),
        )


def integrate_box(func, bounds, spec: QuadratureSpec):
    """Integrate the array integrand ``func`` over an axis-aligned box.

    ``func`` takes one float64 array per axis and returns an array of the
    same length (or a scalar), or ``(rows, n)`` values of ``rows`` integrands.
    A 1-d box may be a half-line ``(lo, inf)``.  Each row meets ``error <=
    max(abs_tol, 1e-10 |value|)``.  Returns ``(value, error_estimate)``,
    lists of one entry per row for rows, or raises QuadratureFailure.
    """
    bounds = tuple((float(lo), float(hi)) for lo, hi in bounds)
    if len(bounds) > 1 and any(math.isinf(hi) for _, hi in bounds):
        raise ValueError("only 1-d boxes may be unbounded")
    run = _Adaptive(func, bounds, spec)
    values, errors = ([v for v, in a] for a in run.run())
    return (values, errors) if run.rows else (values[0], errors[0])


def integrate_segments(func, edges, spec: QuadratureSpec):
    """Integrate the 1-d array integrand ``func`` over each segment between
    consecutive finite ``edges`` (nondecreasing) in one adaptive run.

    The run's first panels are the segments, and the error control is
    global: the errors of all segments sum to at most ``max(abs_tol, 1e-10
    |total|)`` in each row.  Returns ``(values, error_estimates)``, one
    float per segment (0 on an empty one), one such list per row for a
    ``(rows, n)`` integrand, or raises QuadratureFailure.
    """
    edges = np.asarray(edges, dtype=float)
    if not np.isfinite(edges).all() or (np.diff(edges) < 0.0).any():
        raise ValueError("segment edges must be finite and nondecreasing")
    # an empty segment's panels have value and error 0, so none is split
    run = _Adaptive(func, ((float(edges[0]), float(edges[-1])),), spec, edges)
    values, errors = run.run()
    return (values, errors) if run.rows else (values[0], errors[0])


class _Adaptive:
    """One adaptive integration over a pool of boxes: ``(n, d)`` arrays of
    lower ends and widths in the integration variables (``s`` on a
    half-line), the segment of each, and ``(rows, n)`` value and error
    estimates and split axes.  A bounded 1-d run may be cut into segments
    at ``edges`` (its two ends and the break points between them)."""

    def __init__(self, func, bounds, spec: QuadratureSpec, edges=None):
        self.func = func
        self.bounds = bounds
        self.spec = spec
        self.origin = [lo for lo, _ in bounds]
        self.half_line = math.isinf(bounds[0][1])
        self.edges = np.array(bounds[0]) if edges is None else np.asarray(edges)
        self.rows = None  # the integrand's row count, None for a 1-d one

    def run(self):
        """Per row, the segments' values and error estimates, once every row is in tolerance."""
        n_seg = len(self.edges) - 1
        if any(hi <= lo for lo, hi in self.bounds):  # an empty call gives the rows
            rows = range(len(self._values([np.empty(0)] * len(self.bounds), (0,))))
            return [[0.0] * n_seg for _ in rows], [[0.0] * n_seg for _ in rows]
        if len(self.bounds) > 1:
            width = np.array([[hi - a for a, hi in self.bounds]])
            lo, seg = np.zeros_like(width), np.zeros(1, dtype=int)
        else:
            # each segment cut evenly, into its share of the initial panels;
            # a half-line is the segment (0, 1] in s, its tail box [0, 1/per]
            if self.half_line:
                per = (_INITIAL_PANELS if self.spec.max_subdivisions
                       >= _HALF_LINE_START_BUDGET else 1)
            else:
                per = max(1, min(_INITIAL_PANELS, self.spec.max_subdivisions) // n_seg)
            ends = np.array([0.0, 1.0]) if self.half_line else self.edges
            seg = np.repeat(np.arange(n_seg), per)
            step = np.diff(ends) / per
            width = step[seg][:, None]
            lo = (ends[:-1][seg] - ends[0]
                  + np.tile(np.arange(per), n_seg) * step[seg])[:, None]
        value, err, axis = self._rules(lo, width)
        tails = ([_Tail(v, per.bit_length() - 1) for v in value[:, 0].tolist()]
                 if self.half_line else None)
        while True:
            try:
                total = [math.fsum(r) for r in value.tolist()]
            except OverflowError as exc:  # finite panel values, a sum past the float range
                self._fail(f"the integral overflows: {exc}")
            total_err = err.sum(axis=1).tolist()
            if not all(map(math.isfinite, total + total_err)):
                self._fail("integrand is not finite at a quadrature node", total, total_err)
            tol = [max(self.spec.abs_tol, _EPSREL * abs(t)) for t in total]
            if all(e <= t for e, t in zip(total_err, tol)):
                if n_seg == 1:  # its running totals
                    return [[t] for t in total], [[e] for e in total_err]
                # a segment of one panel takes its value, of more their exact sum
                counts = np.bincount(seg, minlength=n_seg)
                ends = np.cumsum(counts)
                value = value[:, np.argsort(seg, kind="stable")]
                values = value[:, ends - 1].tolist()
                for k in np.flatnonzero(counts > 1).tolist():
                    for row, p in zip(values, value[:, ends[k] - counts[k]:ends[k]].tolist()):
                        row[k] = math.fsum(p)
                return values, [np.bincount(seg, e, n_seg).tolist() for e in err]
            # Split the fewest boxes, largest errors relative to their row's tolerance
            # first, that leave every row within half its tolerance (the rest falls).
            scaled = err * np.array([min(tol) / t for t in tol])[:, None]
            order = np.argsort(-scaled.max(axis=0))
            split = order[:1 + max(
                np.count_nonzero(e - np.cumsum(row[order]) > _SPLIT_TARGET * t)
                for row, e, t in zip(err, total_err, tol))]
            rings = 0
            if self.half_line and (lo[split, 0] == 0.0).any():
                rings = min(max(t.size for t in tails), _TAIL_DEPTH - tails[0].depth)
                if rings == 0:
                    reach = self.origin[0] + 1.0 / (0.5 ** _TAIL_DEPTH * _XK01[0])
                    self._fail(f"the half-line tail is not settled by x = {reach:.3g}; "
                               "the integral is probably divergent", total, total_err)
            halve = split[lo[split, 0] > 0.0] if rings else split
            new_lo, new_width = self._bisect(  # across its worst row's axis
                lo[halve], width[halve], axis[scaled[:, halve].argmax(axis=0), halve])
            if rings:
                # the rings [w/2^(j+1), w/2^j], j < rings, then the tail boxes
                # [0, w/2^j], j = 1 .. rings, of which all but the last are
                # read only by the extrapolation
                ends = 0.5 ** np.arange(tails[0].depth, tails[0].depth + rings + 1)
                new_lo = np.concatenate([new_lo, ends[1:, None], np.zeros((rings, 1))])
                new_width = np.concatenate([new_width, (ends[:-1] - ends[1:])[:, None],
                                            ends[1:, None]])
            budget = self.spec.max_subdivisions + n_seg - 1
            if len(lo) - len(split) + len(new_lo) > budget:
                self._fail(f"{budget} subdivisions do not meet the tolerance", total, total_err)
            new = self._rules(new_lo, new_width)
            if rings:
                for tail, v, e in zip(tails, new[0], new[1]):
                    v[-1], e[-1] = tail.cut(v[-2 * rings:-rings].tolist(),
                                            v[-rings:].tolist(), float(e[-1]))
                keep = np.ones(len(new_lo), dtype=bool)
                keep[-rings:-1] = False
                new_lo, new_width = new_lo[keep], new_width[keep]
                new = tuple(a[:, keep] for a in new)
            stay = np.ones(len(lo), dtype=bool)
            stay[split] = False
            # halves stay in their panel's segment; a half-line is one segment
            seg = np.concatenate([seg[stay], np.zeros(len(new_lo), dtype=int) if rings
                                  else np.tile(seg[halve], 2)])
            lo = np.concatenate([lo[stay], new_lo])
            width = np.concatenate([width[stay], new_width])
            value, err, axis = (np.concatenate([old[:, stay], n], axis=1)
                                for old, n in zip((value, err, axis), new))

    def _bisect(self, lo, width, axes):
        """The two halves of each box, cut across its axis in ``axes``."""
        rows = np.arange(len(axes))
        width = width.copy()
        width[rows, axes] *= 0.5
        upper = lo.copy()
        upper[rows, axes] += width[rows, axes]
        if not ((upper[rows, axes] > lo[rows, axes]).all()
                and (width[rows, axes] > 0.0).all()):
            self._fail("a panel cannot be split further")
        return np.concatenate([lo, upper]), np.concatenate([width, width])

    def _rules(self, lo, width):
        """Kronrod values, error estimates and split axes of the boxes, ``(rows, n)``."""
        n, d = lo.shape
        u = lo[:, :, None] + width[:, :, None] * _XK01  # (n, d, 15)
        if d == 1:
            u = u[:, 0]
            # x = lo + (1 - s)/s on a half-line, with dx = ds/s^2
            x = (1.0 - u) / u if self.half_line else u
            f = self._values([(x + self.origin[0]).reshape(-1)], (n, 15))
            if self.half_line:
                # divided twice, as in qk15i, so that 1/s^2 never overflows alone
                with np.errstate(over="ignore"):
                    f = f / u / u
                if not np.isfinite(f).all():
                    self._fail("integrand is not finite at a quadrature node")
            f = f.reshape(-1, 15)
            rules = f @ _KG
            kron = rules[:, 0]
            resasc = np.abs(f - (0.5 * kron)[:, None]) @ _WK
            err = _qk_error(np.abs(kron - rules[:, 1]), resasc, np.abs(f) @ _WK)
            axis, scale = np.zeros(len(f), dtype=int), 0.5 * width[:, 0]
        else:
            grid = (n,) + (15,) * d
            cols = [np.broadcast_to(
                        (u[:, k] + self.origin[k]).reshape(
                            (n,) + tuple(15 if j == k else 1 for j in range(d))),
                        grid).reshape(-1)
                    for k in range(d)]
            f = self._values(cols, grid).reshape((-1,) + grid[1:])
            kron = _contract(f, [_WK] * d)
            mean = (kron / 2.0 ** d).reshape((-1,) + (1,) * d)
            resasc = _contract(np.abs(f - mean), [_WK] * d)
            resabs = _contract(np.abs(f), [_WK] * d)
            # one error per axis, from the Gauss rule on that axis alone
            axis_err = np.stack(
                [_qk_error(np.abs(kron - _contract(f, [_WG if j == k else _WK
                                                      for j in range(d)])),
                           resasc, resabs)
                 for k in range(d)], axis=1)
            err, axis = axis_err.sum(axis=1), axis_err.argmax(axis=1)
            scale = (0.5 * width).prod(axis=1)
        return kron.reshape(-1, n) * scale, err.reshape(-1, n) * scale, axis.reshape(-1, n)

    def _values(self, cols, grid):
        """The integrand at the nodes ``cols``, shaped as ``(rows,) + grid``."""
        try:
            f = np.asarray(self.func(*cols), dtype=float)
        except OverflowError as exc:
            self._fail(f"integrand overflows at a quadrature node: {exc}")
        self.rows = len(f) if f.ndim == 2 else None
        shape = (self.rows or 1,) + cols[0].shape
        if f.size != math.prod(shape):
            f = np.broadcast_to(f, shape)
        f = f.reshape(shape[:1] + grid)
        if np.count_nonzero(np.isfinite(f)) != f.size:
            self._fail("integrand is not finite at a quadrature node")
        return f

    def _fail(self, reason, value=None, error=None):
        if value is not None and not self.rows:
            value, error = value[0], error[0]
        raise QuadratureFailure(
            f"quadrature did not converge on {list(self.bounds)}: {reason}",
            value=value, error_estimate=error, possibly_infinite=True)


class _Tail:
    """The tail box ``[0, 2^-depth]`` of a half-line in ``s``, cut into
    rings ``[w/2, w]`` from the outside in.  It starts as the initial panel
    next to ``s = 0``: ``[0, 1/8]`` at depth 3, or ``[0, 1]`` at depth 0 on
    a budget below ``_HALF_LINE_START_BUDGET``.

    The rings cut so far plus the rule's value on the box left over form a
    sequence with one entry per depth, which converges to the integral over
    the first tail box.  Wynn's epsilon algorithm takes its limit from the
    newest entries, and the spread of the limits at the last four depths is
    the error (QUADPACK's ``qelg`` uses three).  The limit is used only while
    the newest ring is smaller than the one outside it: the algorithm also
    "sums" a growing geometric sequence, to a finite value that no divergent
    tail has.  While rings grow, each cut takes twice as many as the last, so
    a divergent tail reaches the depth limit in a few rounds.
    """

    def __init__(self, value: float, depth: int):
        self.depth = depth
        self.size = 1  # rings this row asks of the next cut
        self.rings: list[float] = []
        self.seq = [value]

    def cut(self, rings: list[float], boxes: list[float], error: float):
        """Record a cut into ``rings`` (values, outside in) with the rule's
        values on the tail boxes left after each, ``boxes``; return the
        value and error to carry for the last box, whose rule error is
        ``error``."""
        self.depth += len(rings)
        cut_sum = math.fsum(self.rings)
        for ring, box in zip(rings, boxes):
            cut_sum += ring
            self.seq.append(cut_sum + box)
        self.rings += rings
        shrinking = len(self.rings) > 1 and abs(self.rings[-1]) < abs(self.rings[-2])
        self.size = 1 if shrinking else 2 * self.size
        if shrinking and len(self.seq) >= 6:
            limits = [_wynn_epsilon(self.seq[max(0, n - _WYNN_WINDOW):n])
                      for n in range(len(self.seq) - 3, len(self.seq) + 1)]
            spread = max(sum(abs(limits[3] - x) for x in limits[:3]),
                         50.0 * _EPS * abs(limits[3]))
            if spread < error:
                return limits[3] - math.fsum(self.rings), spread
        return boxes[-1], error


def _wynn_epsilon(seq: list[float]) -> float:
    """The limit of ``seq`` by Wynn's epsilon algorithm: the newest entry of
    the highest even column of its table, which is exact on a sum of
    geometric sequences with as many ratios as half the columns.  The
    table stops at a column whose neighbouring entries agree to rounding."""
    below = [0.0] * (len(seq) + 1)
    column = list(seq)
    limit = column[-1]
    for k in range(1, len(seq)):
        pairs = list(zip(column, column[1:]))
        if any(abs(b - a) <= 4.0 * _EPS * max(abs(a), abs(b)) for a, b in pairs):
            break
        below, column = column, [c + 1.0 / (b - a)
                                 for c, (a, b) in zip(below[1:], pairs)]
        if k % 2 == 0:
            limit = column[-1]
    return limit


def _qk_error(diff, resasc, resabs):
    """QUADPACK's error estimate from ``|Kronrod - Gauss|``: scaled by the
    variation ``resasc`` as ``resasc * min(1, (200 diff / resasc)^1.5)``,
    and no less than the roundoff in ``resabs``, the rule applied to ``|f|``."""
    diff = 200.0 * diff
    ratio = diff / np.maximum(np.maximum(diff, resasc), _UFLOW)
    return np.maximum(resasc * ratio ** 1.5, 50.0 * _EPS * resabs)


def _contract(values: np.ndarray, weights) -> np.ndarray:
    """Sum of ``values`` (shape ``(n, 15, ..., 15)``) against one weight
    vector per node axis."""
    for w in reversed(weights):
        values = values @ w
    return values


def probe_points(bounds) -> np.ndarray:
    """Deterministic probe locations inside a box as an ``(n, d)`` array,
    denser near the origin on half-infinite axes.  Used to detect
    pointwise-infinite integrands before quadrature is attempted."""
    if len(bounds) > 1:
        # only 1-d domains are unbounded; few points per axis keep the
        # product small
        return np.array(list(itertools.product(
            *(_midpoints(lo, hi, _BOX_PROBES_PER_AXIS) for lo, hi in bounds))))
    lo, hi = bounds[0]
    if math.isinf(hi):
        pts = [lo + 1e-3] + [lo + 0.1 * (2.0 ** k) for k in range(0, 24)]
    else:
        pts = _midpoints(lo, hi, _PROBES_PER_AXIS)
        # golden-ratio offsets catch features aligned with the midpoints
        pts += [lo + (hi - lo) * ((i * _GOLDEN) % 1.0)
                for i in range(1, _PROBES_PER_AXIS, 3)]
    return np.array(pts, dtype=float)[:, None]


def _midpoints(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
