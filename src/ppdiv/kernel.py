"""Order-alpha Renyi divergence between two Poisson distributions.

This kernel is the pointwise integrand behind every divergence of
intensity measures computed by the library.  Values live in [0, inf] with
the conventions 0/0 = 0 and t/0 = inf for t > 0; in particular the value
is inf exactly when alpha >= 1, s > 0 and t = 0.

There is one kernel, ``_renyi_poisson_array``, on arrays of means.  It
serves every computation: the exact sums over the atoms or cells of
discrete and grid pairs, and the quadrature integrands of smooth pairs,
which evaluate it on all nodes of a round at once.  :func:`renyi_poisson`
is its public form on one pair of means.  The reference it is tested
against, direct summation over the Poisson pmfs, lives with the tests
(``renyi_poisson_oracle`` in ``tests/helpers.py``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidAlpha
from .extended import INF

# |alpha - 1| up to this uses the KL-plus-correction form: the
# 1/(1 - alpha) factor of the closed form cancels catastrophically near 1.
_ALPHA_NEAR_ONE = 0.25

# s/t inside [1/2, 2] uses a compensated expm1/log1p evaluation.
_RATIO_LO = 0.5
_RATIO_HI = 2.0

# |z| below this evaluates (expm1(z) - z) / z by its Taylor series.
_SERIES_Z = 1e-3

# Elements per block of the array kernel.  A block's temporaries (64 kB)
# stay in cache and are reused by the allocator; evaluated on a whole
# 1e5-cell array at once (800 kB temporaries) the kernel took 8.5 ms
# instead of 3.9 ms on a 2-core host.
_BLOCK = 8192


def _validate_alpha(alpha) -> float:
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise InvalidAlpha(f"alpha must be a real number, got {alpha!r}")
    if math.isnan(alpha) or alpha < 0 or math.isinf(alpha):
        raise InvalidAlpha(f"alpha must be finite and nonnegative, got {alpha!r}")
    return float(alpha)


def _validate(s: float, t: float, alpha: float):
    _validate_alpha(alpha)
    for name, v in (("s", s), ("t", t)):
        if math.isnan(v) or v < 0 or math.isinf(v):
            raise ValueError(f"{name} must be a finite nonnegative real, got {v!r}")


def renyi_poisson(s: float, t: float, alpha: float) -> float:
    """Renyi divergence of Poisson(s) from Poisson(t), order ``alpha``.

    Closed form: ``1(s=0) t`` at alpha = 0,
    ``(alpha s + (1-alpha) t - s^alpha t^(1-alpha)) / (1-alpha)`` away from
    0 and 1, and ``s log(s/t) + t - s`` at alpha = 1.  Nonnegative, and
    homogeneous of degree one in ``(s, t)`` jointly.
    """
    s, t = float(s), float(t)
    _validate(s, t, alpha)
    return float(_renyi_poisson_array(s, t, alpha))


def _renyi_poisson_array(s, t, alpha) -> np.ndarray:
    """:func:`renyi_poisson` elementwise over arrays of means, with alpha
    validated once and the means in bulk."""
    alpha = _validate_alpha(alpha)
    s, t = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(t, dtype=float))
    for name, v in (("s", s), ("t", t)):
        if not (np.isfinite(v).all() and (v >= 0.0).all()):
            raise ValueError(f"{name} must hold finite nonnegative reals")
    shape = s.shape
    s, t = s.reshape(-1), t.reshape(-1)
    out = np.empty(s.shape)
    for i in range(0, len(s), _BLOCK):
        out[i:i + _BLOCK] = _kernel_block(s[i:i + _BLOCK], t[i:i + _BLOCK], alpha)
    return out.reshape(shape)


def _kernel_block(s: np.ndarray, t: np.ndarray, alpha: float) -> np.ndarray:
    """The array kernel on one flat block of validated means."""
    out = np.where(s == 0.0, t, 0.0)
    if alpha == 0.0:
        return out
    one_m = 1.0 - alpha
    t_zero = (t == 0.0) & (s > 0.0)
    if t_zero.any():
        out[t_zero] = alpha / one_m * s[t_zero] if alpha < 1.0 else INF
    live = (s > 0.0) & (t > 0.0) & (s != t)
    if not live.any():
        return out
    s, t = s[live], t[live]
    # Both forms of a branch are evaluated everywhere and np.where picks
    # one per element, which is faster than masked copies of each side.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = s / t
        in_band = (ratio >= _RATIO_LO) & (ratio <= _RATIO_HI)
        x = (s - t) / t
        if abs(one_m) <= _ALPHA_NEAR_ONE:
            # With L = log(s/t) and z = -(1-alpha) L the closed form is
            # s L + t - s + s L (expm1(z) - z) / z, which is the KL value at
            # z = 0 and has no 1/(1-alpha) left to cancel.
            log_ratio = np.where(in_band, np.log1p(x), np.log(s) - np.log(t))
            kl = np.where(in_band, t * ((1.0 + x) * log_ratio - x),
                          s * log_ratio + t - s)
            z = -one_m * log_ratio
            excess = np.where(
                np.abs(z) < _SERIES_Z,
                z * (1.0 / 2.0 + z * (1.0 / 6.0 + z * (1.0 / 24.0 + z / 120.0))),
                (np.expm1(z) - z) / z)
            value = kl + s * log_ratio * excess
        else:
            band = t * (alpha * x - np.expm1(alpha * np.log1p(x))) / one_m
            cross = np.exp(alpha * np.log(s) + one_m * np.log(t))
            far = (alpha * s + one_m * t - cross) / one_m
            value = np.where(in_band, band, far)
        # An intermediate that overflowed (alpha * s, or inf - inf): by
        # degree-one homogeneity the means rescaled to at most 1 give the
        # value, which is then inf only when it truly exceeds the float range.
        m = np.maximum(s, t)
        bad = ~np.isfinite(value) & (m > 1.0)
        if bad.any():
            m = m[bad]
            value[bad] = m * _kernel_block(s[bad] / m, t[bad] / m, alpha)
    out[live] = np.where(value < 0.0, 0.0, value)
    return out
