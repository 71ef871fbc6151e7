"""Exhaustive grid maximizer of the weak-user SINR, used as ground truth.

The search runs directly on the raw min-objective

    min{ sqrt(P-p1)*||h1||*alpha2 / sqrt(sigma1^2*(1+gamma1*)),
         sqrt(P-p1)*||h2||*(sqrt(th)*alpha2 + sqrt(1-th)*sqrt(1-alpha2^2))
             / sqrt(p1*||h2||^2*alpha1^2 + sigma2^2) }

over a (p1, alpha2) grid.  The minimal feasible alpha1 for each p1 is
recovered by bisecting the disk-membership boundary of the user-1
constraint segment, on a bracket where the disk violation is monotone;
none of the closed-form design solutions are consulted anywhere, so this
module independently validates them.  Because the inner objective has a
kink where the two branches cross, a golden-section polish follows the grid in
both coordinates; without it, grid discretization alone can miss the peak
by more than the comparison tolerances used in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .golden import golden_section_max, vector_golden_section_max
from .two_user_core import (
    DerivedParams,
    TwoUserChannel,
    channel_from_quality,
    check_target,
    derive_params,
)

BISECTION_STEPS = 60
_FEAS_TOL = 1e-12
# Grid rows evaluated per block: the (p1, alpha2) grid scan is elementwise
# and row-wise, so blocking bounds the temporaries without changing a value.
GRID_BLOCK_ROWS = 128


@dataclass
class OracleResult:
    gamma2: float
    p1: float
    alpha2: float
    alpha1: float
    grid_sizes: tuple[int, int]


def _violation(t, alpha, sq_th: float, one_m: float):
    """Disk violation alpha1^2 + beta1^2 - 1 at alpha1 = alpha on the
    constraint segment of t, on floats or arrays alike."""
    beta = t - sq_th * alpha
    return alpha * alpha + beta * beta / one_m - 1.0


def _min_feasible_alpha1(t: np.ndarray, theta: float) -> np.ndarray:
    """Minimal alpha1 >= 0 with some beta1 >= 0 on the constraint segment
    sqrt(theta)*alpha1 + sqrt(1-theta)*beta1 = t inside the unit disk.

    On the segment the disk violation is

        v(a) = a^2 + (t - sqrt(theta)*a)^2/(1-theta) - 1,

    whose derivative 2*(a - sqrt(theta)*t)/(1-theta) is <= 0 on
    [0, sqrt(theta)*t], and v(sqrt(theta)*t) = t^2 - 1 <= 0 at the
    segment's point closest to the origin (beta1 = sqrt(1-theta)*t >= 0).
    So alpha1 is 0 where v(0) is within the tolerance, and otherwise the
    boundary is bisected on that bracket.  At theta = 1 the segment is
    alpha1 = t.
    """
    t = np.asarray(t, dtype=float)
    if theta == 1.0:
        return t.copy()
    sq_th = math.sqrt(theta)
    one_m = 1.0 - theta
    lo = np.zeros_like(t)
    hi = sq_th * t
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        ok = _violation(t, mid, sq_th, one_m) <= _FEAS_TOL
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    return np.where(_violation(t, 0.0, sq_th, one_m) <= _FEAS_TOL, 0.0, hi)


def _min_feasible_alpha1_scalar(t: float, theta: float) -> float:
    """_min_feasible_alpha1 at one t, bitwise: the same bisection on
    floats, which costs far less than numpy on one-element arrays."""
    if theta == 1.0:
        return t
    sq_th = math.sqrt(theta)
    one_m = 1.0 - theta
    if _violation(t, 0.0, sq_th, one_m) <= _FEAS_TOL:
        return 0.0
    lo, hi = 0.0, sq_th * t
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if _violation(t, mid, sq_th, one_m) <= _FEAS_TOL:
            hi = mid
        else:
            lo = mid
    return hi


def brute_force_max(
    ch: TwoUserChannel,
    params: DerivedParams,
    n_p1: int,
    n_alpha2: int,
    p1_fixed: float | None = None,
) -> OracleResult:
    """Grid-plus-polish maximum of the weak-user SINR.

    ``p1_fixed`` restricts the search to a single user-1 power (used to
    validate the fixed-power design with p1 = p2 = 1 and P = 2).
    """
    if n_p1 < 64 or n_alpha2 < 64:
        raise ValueError("grid sizes must be at least 64")
    P, th = ch.P, params.theta
    G = check_target(params.Gamma, P)
    k1sq = float(np.vdot(ch.h1, ch.h1).real)
    k2sq = float(np.vdot(ch.h2, ch.h2).real)
    c1 = math.sqrt(k1sq / (ch.sigma1_sq * (1.0 + params.gamma1_star)))

    if p1_fixed is not None:
        p1 = np.array([float(p1_fixed)])
    else:
        p1 = np.linspace(G, P, n_p1)
    t = np.sqrt(np.clip(np.divide(G, p1, out=np.zeros_like(p1), where=p1 > 0), 0.0, 1.0))
    a1min = _min_feasible_alpha1(t, th)
    root = np.sqrt(np.maximum(P - p1, 0.0))
    den = np.sqrt(p1 * k2sq * a1min * a1min + ch.sigma2_sq)
    coef1 = root * c1  # times alpha2
    coef2 = root * math.sqrt(k2sq) / den  # times the shaped alpha2 response
    sq_th, sq_mth = math.sqrt(th), math.sqrt(1.0 - th)

    def rows_value(alpha2: np.ndarray) -> np.ndarray:
        shape = sq_th * alpha2 + sq_mth * np.sqrt(np.clip(1.0 - alpha2 * alpha2, 0.0, None))
        return np.minimum(coef1 * alpha2, coef2 * shape)

    a2 = np.linspace(0.0, 1.0, n_alpha2)
    shape = sq_th * a2 + sq_mth * np.sqrt(np.clip(1.0 - a2 * a2, 0.0, None))
    best_col = np.empty(p1.size, dtype=np.intp)
    grid_vals = np.empty(p1.size)
    for s in range(0, p1.size, GRID_BLOCK_ROWS):
        blk = slice(s, s + GRID_BLOCK_ROWS)
        V = np.minimum(coef1[blk, None] * a2[None, :], coef2[blk, None] * shape[None, :])
        best_col[blk] = np.argmax(V, axis=1)
        grid_vals[blk] = V.max(axis=1)

    # polish alpha2 per row: min of a line and a concave arc is unimodal
    lo = a2[np.maximum(best_col - 1, 0)]
    hi = a2[np.minimum(best_col + 1, n_alpha2 - 1)]
    # xtol at round-off: at least 60 shrinks on the brackets of grids up to 4096
    a2_ref, v_ref = vector_golden_section_max(rows_value, lo, hi, xtol=1e-16)
    keep = grid_vals >= v_ref
    a2_star = np.where(keep, a2[best_col], a2_ref)
    v_star = np.maximum(grid_vals, v_ref)

    i = int(np.argmax(v_star))
    best_p1, best_a2, best_val = float(p1[i]), float(a2_star[i]), float(v_star[i])

    def row(p: float):
        """Minimal alpha1 at user-1 power p and the objective over alpha2."""
        a1 = _min_feasible_alpha1_scalar(math.sqrt(min(G / p, 1.0)) if p > 0 else 0.0, th)
        r = math.sqrt(max(P - p, 0.0))
        dd = math.sqrt(p * k2sq * a1 * a1 + ch.sigma2_sq)
        # the products r*c1 and r*||h2||/dd once per probe, left to right
        rc1, rk2 = r * c1, r * math.sqrt(k2sq) / dd

        def val(al: float) -> float:
            sh = sq_th * al + sq_mth * math.sqrt(max(1.0 - al * al, 0.0))
            return min(rc1 * al, rk2 * sh)

        return a1, val

    if p1_fixed is None and p1.size > 1:
        # polish p1 around the winning row, re-solving alpha2 at each probe
        def p1_value(p: float) -> float:
            return golden_section_max(row(p)[1], 0.0, 1.0, xtol=1e-12)[1]

        lo_p = float(p1[max(i - 1, 0)])
        hi_p = float(p1[min(i + 1, p1.size - 1)])
        p1_ref, v_p = golden_section_max(p1_value, lo_p, hi_p, xtol=1e-12)
        if v_p > best_val:
            best_p1, best_val = float(p1_ref), float(v_p)
            best_a2 = golden_section_max(row(best_p1)[1], 0.0, 1.0, xtol=1e-12)[0]

    best_a1 = row(best_p1)[0]
    return OracleResult(
        gamma2=best_val * best_val,
        p1=best_p1,
        alpha2=best_a2,
        alpha1=best_a1,
        grid_sizes=(int(p1.size), int(n_alpha2)),
    )


def sample_instance(rng: np.random.Generator):
    """Random design instance: lambda1 in [1, 100], lambda2 in (0, lambda1),
    theta in [0, 1], P in [0.5, 20], Gamma in [0, P]."""
    lam1 = rng.uniform(1.0, 100.0)
    lam2 = lam1 * max(rng.uniform(0.0, 1.0), 1e-12)
    theta = rng.uniform(0.0, 1.0)
    P = rng.uniform(0.5, 20.0)
    Gamma = P * rng.uniform(0.0, 1.0)
    ch = channel_from_quality(lam1, lam2, theta, P)
    return ch, derive_params(ch, Gamma * lam1)
