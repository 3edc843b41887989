"""Order-alpha Renyi divergence between two Poisson distributions.

This kernel is the pointwise integrand behind every divergence of
intensity measures computed by the library.  Values live in [0, inf] with
the conventions 0/0 = 0 and t/0 = inf for t > 0; in particular the value
is inf exactly when alpha >= 1, s > 0 and t = 0.

There is one kernel, ``_renyi_poisson_array``, on arrays of means.  It
serves every computation: the exact sums over the atoms or cells of
discrete and grid pairs, and the quadrature integrands of smooth pairs,
which evaluate it on all nodes of a round at once.  :func:`renyi_poisson`
is its public form on one pair of means; the pmf summation of
:func:`renyi_poisson_oracle` is the reference it is tested against.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidAlpha, NonConvergent
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

_ORACLE_BLOCK = 4096


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


def _log_pmf(k: np.ndarray, mean: float) -> np.ndarray:
    return -mean + k * math.log(mean) - _log_factorial(k)


# log k! for k below _STIRLING_FROM, from math.lgamma
_STIRLING_FROM = 30
_LOG_FACTORIALS = np.array([math.lgamma(k + 1.0) for k in range(_STIRLING_FROM)])


def _log_factorial(k: np.ndarray) -> np.ndarray:
    """``log k!`` of integer-valued floats: a table below 30 and Stirling's
    series above, whose first omitted term is under 1e-16 there."""
    n = np.maximum(k, _STIRLING_FROM) + 1.0
    inv = 1.0 / n
    inv2 = inv * inv
    series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (
        1.0 / 1260.0 - inv2 / 1680.0)))
    stirling = (n - 0.5) * np.log(n) - n + 0.5 * math.log(2.0 * math.pi) + series
    small = k < _STIRLING_FROM
    return np.where(small, _LOG_FACTORIALS[np.where(small, k, 0).astype(int)],
                    stirling)


def _logsumexp(values) -> float:
    """``log(sum(exp(values)))`` without overflow; -inf for no mass."""
    values = np.asarray(values, dtype=float)
    top = float(values.max())
    if top == -INF:
        return -INF
    return top + math.log(float(np.sum(np.exp(values - top))))


def renyi_poisson_oracle(s: float, t: float, alpha: float,
                         tail_tol: float = 1e-14,
                         max_terms: int = 1_000_000) -> float:
    """Reference value by direct summation over the Poisson pmfs.

    Sums ``sum_k p_s(k)^alpha p_t(k)^(1-alpha)`` (or the pointwise KL sum
    at alpha = 1) until both pmf tails drop below ``tail_tol`` and, for
    alpha > 1, until the summand itself has passed its peak and become
    negligible.  Intended for tests; the closed form above is the
    production path.
    """
    s, t = float(s), float(t)
    _validate(s, t, alpha)
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    alpha = float(alpha)

    if alpha == 0.0:
        # -log p_t(support of p_s): full support for s > 0, {0} for s = 0
        return t if s == 0.0 else 0.0
    if s == 0.0 and t == 0.0:
        return 0.0
    if s == 0.0:
        # only the k = 0 term survives: log e^{-t(1-alpha)} / (alpha - 1) = t
        return t
    if t == 0.0:
        if alpha >= 1.0:
            return INF
        return -alpha * s / (alpha - 1.0)

    if alpha == 1.0:
        return _oracle_kl(s, t, tail_tol, max_terms)
    return _oracle_power(s, t, alpha, tail_tol, max_terms)


def _oracle_kl(s, t, tail_tol, max_terms):
    total = []
    cdf_s = cdf_t = 0.0
    k0 = 0
    while k0 < max_terms:
        k = np.arange(k0, min(k0 + _ORACLE_BLOCK, max_terms), dtype=float)
        lp_s = _log_pmf(k, s)
        lp_t = _log_pmf(k, t)
        p_s = np.exp(lp_s)
        total.append(float(np.sum(p_s * (lp_s - lp_t))))
        cdf_s += float(np.sum(p_s))
        cdf_t += float(np.sum(np.exp(lp_t)))
        k0 += len(k)
        if 1.0 - cdf_s < tail_tol and 1.0 - cdf_t < tail_tol:
            return max(math.fsum(total), 0.0)
    raise NonConvergent(f"KL summation exceeded {max_terms} terms")


def _oracle_power(s, t, alpha, tail_tol, max_terms):
    # The summand is proportional to peak^k / k!, a Poisson-shaped sequence
    # peaking near k = s^alpha t^(1-alpha); for alpha > 1 that peak can sit
    # far beyond both pmf tails and must be summed past explicitly.
    log_peak_mean = alpha * math.log(s) + (1.0 - alpha) * math.log(t)
    peak = math.exp(log_peak_mean) if log_peak_mean < 700 else INF
    if peak > max_terms:
        raise NonConvergent(
            f"summand peaks near k={peak:.3g}, beyond the {max_terms}-term budget")
    log_z = -INF
    cdf_s = cdf_t = 0.0
    k0 = 0
    log_tol = math.log(tail_tol)
    while k0 < max_terms:
        k = np.arange(k0, min(k0 + _ORACLE_BLOCK, max_terms), dtype=float)
        lp_s = _log_pmf(k, s)
        lp_t = _log_pmf(k, t)
        terms = alpha * lp_s + (1.0 - alpha) * lp_t
        log_z = _logsumexp([log_z, _logsumexp(terms)])
        cdf_s += float(np.sum(np.exp(lp_s)))
        cdf_t += float(np.sum(np.exp(lp_t)))
        k0 += len(k)
        tails_done = (1.0 - cdf_s < tail_tol) and (1.0 - cdf_t < tail_tol)
        past_peak = k0 > peak
        block_negligible = float(np.max(terms)) - log_z < log_tol
        if tails_done and past_peak and block_negligible:
            return max(log_z / (alpha - 1.0), 0.0)
    raise NonConvergent(f"summation exceeded {max_terms} terms")
