"""Golden-section search for 1-D maximization: one scalar bracket, or many
brackets side by side as numpy arrays."""

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
    local maxima only a local maximum is found, so callers locate a global
    bracket with a coarse grid first.
    """
    a, b = (lo, hi) if lo <= hi else (hi, lo)
    h = b - a
    if h <= xtol:
        x = 0.5 * (a + b)
        return x, f(x)
    n = golden_steps(h, xtol)
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc = f(c)
    yd = f(d)
    for _ in range(n - 1):
        if yc > yd:
            b, d, yd = d, c, yc
            h *= _INVPHI
            c = a + _INVPHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INVPHI
            d = a + _INVPHI * h
            yd = f(d)
    return (c, yc) if yc > yd else (d, yd)


def vector_golden_section_max(f, lo: np.ndarray, hi: np.ndarray, iters: int = 60):
    """Elementwise golden-section maximization over per-row brackets.

    f maps an array of points to an array of values of the same shape; each
    row keeps its own bracket.  Returns (x, f(x)) per row.
    """
    a, b = lo.astype(float).copy(), hi.astype(float).copy()
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    yc, yd = f(c), f(d)
    for _ in range(iters):
        take = yc > yd
        b = np.where(take, d, b)
        a = np.where(take, a, c)
        h = b - a
        c = a + _INVPHI2 * h
        d = a + _INVPHI * h
        yc, yd = f(c), f(d)
    x = np.where(yc > yd, c, d)
    y = np.maximum(yc, yd)
    return x, y
