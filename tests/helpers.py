"""Shared random-model builders for the test suite."""

from __future__ import annotations

import math

import numpy as np

from ppdiv import DiscreteIntensity, GridIntensity, common_reference, tsallis

ATOM_IDS = tuple("abcdefghijkl")


def random_discrete(rng, n_atoms=None, allow_zeros=False, scale=5.0):
    n = n_atoms or int(rng.integers(2, 9))
    weights = rng.uniform(0.05, scale, size=n)
    if allow_zeros:
        mask = rng.uniform(size=n) < 0.25
        weights = np.where(mask, 0.0, weights)
    return DiscreteIntensity(tuple(zip(ATOM_IDS[:n], map(float, weights))))


def random_discrete_pair(rng, n_atoms=None, allow_zeros=False, scale=5.0):
    n = n_atoms or int(rng.integers(2, 9))
    a = random_discrete(rng, n, allow_zeros, scale)
    b = random_discrete(rng, n, allow_zeros, scale)
    return a, b, common_reference(a, b)


def random_grid(rng, n_cells=None, width=None, allow_zeros=False, scale=4.0):
    n = n_cells or int(rng.integers(2, 9))
    w = width or float(rng.uniform(0.5, 3.0))
    values = rng.uniform(0.05, scale, size=n)
    if allow_zeros:
        mask = rng.uniform(size=n) < 0.25
        values = np.where(mask, 0.0, values)
    return GridIntensity([(0.0, w)], [n], tuple(map(float, values)))


def random_grid_pair(rng, n_cells=None, allow_zeros=False, scale=4.0):
    n = n_cells or int(rng.integers(2, 9))
    w = float(rng.uniform(0.5, 3.0))
    a = random_grid(rng, n, w, allow_zeros, scale)
    b = random_grid(rng, n, w, allow_zeros, scale)
    return a, b, common_reference(a, b)


def random_pair(rng, allow_zeros=False):
    """Randomly a discrete or a grid pair, as the property suites want."""
    if rng.uniform() < 0.5:
        return random_discrete_pair(rng, allow_zeros=allow_zeros)
    return random_grid_pair(rng, allow_zeros=allow_zeros)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def golden_chernoff(pair, alpha_tol=1e-9):
    """``(value, argmax)`` of ``(1 - a) tsallis(pair, a)`` over
    ``[1e-6, 1 - 1e-6]`` by one golden-section search, a final bracket
    that reaches an end being compared with the end itself: the reference
    for the Newton search of ``chernoff_info`` (finite objectives only)."""
    def h(a):
        return (1.0 - a) * tsallis(pair, a).value

    a, b = lo, hi = 1e-6, 1.0 - 1e-6
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = h(x1), h(x2)
    while b - a > alpha_tol:
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = h(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = h(x2)
    points = [(x1, f1), (x2, f2)]
    points += [(end, h(end)) for end in (lo, hi) if end in (a, b)]
    arg, value = max(points, key=lambda p: p[1])
    return value, arg
