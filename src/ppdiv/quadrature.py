"""Adaptive quadrature behind a uniform failure contract.

All smooth-model integrals run through this module so that tolerances and
error reporting stay consistent.  The backend is the adaptive
Gauss-Kronrod integrator from QUADPACK (``scipy.integrate.quad``); boxes
in more than one dimension go through nested calls (``nquad``).
``scipy.integrate`` loads on the first integral, so discrete and grid
models, which need none, never pay its import.  A request
the integrator cannot satisfy raises :class:`QuadratureFailure` instead of
returning a silent best effort; divergent-looking integrals carry
``possibly_infinite=True``.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .errors import QuadratureFailure

_EPSREL = 1e-10

# Midpoint probes of a bounded 1-d domain, before the golden-ratio offsets,
# and per axis of a box in two or more dimensions.
_PROBES_PER_AXIS = 17
_BOX_PROBES_PER_AXIS = 9


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances for adaptive integration of smooth densities."""

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


def integrate_1d(func, lo: float, hi: float, spec: QuadratureSpec):
    """Integrate ``func`` over [lo, hi] (hi may be inf).

    Returns ``(value, error_estimate)`` or raises QuadratureFailure.
    """
    if hi <= lo:
        return 0.0, 0.0
    from scipy import integrate as _integrate
    result = _integrate.quad(
        func, lo, hi,
        epsabs=spec.abs_tol, epsrel=_EPSREL,
        limit=spec.max_subdivisions, full_output=1,
    )
    if len(result) > 3:
        value, abserr = result[0], result[1]
        message = result[-1] if isinstance(result[-1], str) else "integration failed"
        raise QuadratureFailure(
            f"quadrature did not converge on [{lo}, {hi}]: {message}",
            value=value, error_estimate=abserr,
            possibly_infinite=True,
        )
    value, abserr = result[0], result[1]
    return value, abserr


def integrate_box(func, bounds, spec: QuadratureSpec):
    """Integrate over an axis-aligned box.

    ``func`` takes one positional argument per axis.  1-d boxes use a
    single adaptive pass, higher dimensions nest.
    """
    if len(bounds) == 1:
        lo, hi = bounds[0]
        return integrate_1d(func, lo, hi, spec)
    from scipy import integrate as _integrate
    opts = {"epsabs": spec.abs_tol, "epsrel": _EPSREL,
            "limit": spec.max_subdivisions}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value, abserr = _integrate.nquad(func, list(bounds), opts=opts)
    bad = [w for w in caught
           if issubclass(w.category, _integrate.IntegrationWarning)]
    if bad:
        raise QuadratureFailure(
            f"quadrature did not converge on box {bounds}: {bad[0].message}",
            value=value, error_estimate=abserr, possibly_infinite=True,
        )
    return value, abserr


def probe_points(bounds):
    """Deterministic probe locations inside a box, denser near the origin
    on half-infinite axes.  Used to detect pointwise-infinite integrands
    before quadrature is attempted."""
    if len(bounds) > 1:
        # only 1-d domains are unbounded; few points per axis keep the
        # product small
        return list(itertools.product(
            *(_midpoints(lo, hi, _BOX_PROBES_PER_AXIS) for lo, hi in bounds)))
    lo, hi = bounds[0]
    if math.isinf(hi):
        pts = [lo + 1e-3] + [lo + 0.1 * (2.0 ** k) for k in range(0, 24)]
    else:
        pts = _midpoints(lo, hi, _PROBES_PER_AXIS)
        # golden-ratio offsets catch features aligned with the midpoints
        pts += [lo + (hi - lo) * ((i + 0.381966) % 1.0)
                for i in range(1, _PROBES_PER_AXIS, 3)]
    return [(x,) for x in pts]


def _midpoints(lo: float, hi: float, n: int) -> list[float]:
    return [lo + (hi - lo) * (i + 0.5) / n for i in range(n)]
