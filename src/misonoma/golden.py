"""Golden-section search for 1-D maximization: one scalar recurrence, and
the same recurrence on many brackets side by side as numpy arrays, for the
oracle's alpha2 polish and the tests' row-wise reference."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_steps(h: float, xtol: float) -> int:
    """Smallest n with h * invphi**n <= xtol: golden_section_max spends a
    first pair of evaluations and then n - 1 bracket shrinks on a bracket of
    width h."""
    return int(math.ceil(math.log(xtol / h) / math.log(_INVPHI)))


def golden_section_max(f, lo: float, hi: float, xtol: float = 1e-10):
    """Maximize f on [lo, hi]; returns (x, f(x)) at the best sampled point.

    Assumes f is unimodal on the bracket (kinks are fine); with multiple
    local maxima only a local maximum is found.  The best sampled point is
    interior, so a maximum at an end of the bracket is approached to
    within xtol but not sampled: callers that expect one there evaluate
    the end themselves.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(golden_steps(h, xtol) - 1):
        h *= _INVPHI
        if yc > yd:
            d, yd = c, yc
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def vector_golden_section_max(f, lo: np.ndarray, hi: np.ndarray, xtol: float):
    """golden_section_max's recurrence on many brackets [lo, hi] (lo <= hi)
    at once.

    f maps an array of points to an array of values of the same shape.
    Every row runs the step count of the widest bracket, with one new
    evaluation per shrink, so rows of that width return golden_section_max's
    (x, f(x)) bitwise whenever f does; a narrower row shrinks further, to a
    point within xtol of the scalar result that is no worse on a unimodal
    f.  When every bracket is within xtol, the midpoints are returned.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    h = b - a
    if not h.size or h.max() <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(golden_steps(float(h.max()), xtol) - 1):
        h = h * _INVPHI
        take = yc > yd  # keep [a, d]: the new point is c; else [c, b]: it is d
        a = np.where(take, a, c)
        x = np.where(take, a + _INVPHI2 * h, a + _INVPHI * h)
        y = f(x)
        c, d = np.where(take, x, d), np.where(take, c, x)
        yc, yd = np.where(take, y, yd), np.where(take, yc, y)
    take = yc > yd
    return np.where(take, c, d), np.where(take, yc, yd)
