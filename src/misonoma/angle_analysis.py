"""Channel-angle performance study for the two-user design.

Everything here works on the scalar reduction (lambda1, lambda2, theta,
Gamma): the fixed-power SINR as a function of the channel angle theta, the
region of angles maximizing it, the closed-form SINR under the simple
minimum-power-to-user-1 allocation, the optimal and the simple SINR swept
over the angle by value, and the asymptotic behaviour when the weak
user's channel quality goes to zero (both beams converge to matched
filters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .golden import golden_section_max
from .two_user_core import (
    CaseTag,
    _fixed_case,
    channel_from_quality,
    check_ordered,
    check_positive,
    check_target,
    derive_params,
    maximize_gamma2_batch,
    optimize_p1,
)

# branch-selection comparisons; the branch formulas are continuous at the
# boundaries so the tolerance is value-neutral
_THETA_TOL = 1e-12


class ThetaBand(Enum):
    IN_BAND = "in_band"
    LOW_OUT_OF_BAND = "low_out_of_band"
    HIGH_OUT_OF_BAND = "high_out_of_band"


class PowerBranch(Enum):
    BELOW_THETA1 = "below_theta1"
    ABOVE_THETA1 = "above_theta1"


@dataclass
class ThetaRegionResult:
    """Angle region maximizing the fixed-power weak-user SINR.

    gamma_bounds delimits the targets for which a whole plateau of optimal
    angles exists; outside it the optimum is either another closed-form
    interval or a single stationary angle.  An empty band is encoded as
    (+inf, -inf).
    """

    gamma_bounds: tuple[float, float]
    theta_opt_low: float
    theta_opt_high: float
    branch: ThetaBand


@dataclass
class SimplePowerResult:
    """Weak-user SINR when user 1 gets exactly the minimum power Gamma."""

    gamma2: float
    theta1: float
    branch: PowerBranch


def gamma2_fixed_vs_theta(
    theta: float, lambda1: float, lambda2: float, Gamma: float
) -> float:
    """Fixed-power (p1 = p2 = 1) weak-user SINR as a function of the angle."""
    return _fixed_case(theta, lambda1, lambda2, Gamma)[0]


def optimal_theta_region(
    lambda1: float, lambda2: float, Gamma: float
) -> ThetaRegionResult:
    """Angles maximizing the fixed-power weak-user SINR.

    Inside gamma_bounds the whole plateau where the strong user's decoding
    branch binds is optimal; below the band a plateau where the weak user's
    own SINR saturates at lambda2 is optimal; above it the optimum is the
    stationary angle of the crossing-branch SINR, found numerically by
    golden section between the plateau edge and the case-2/3 boundary (no
    multi-peaked curve turned up in 3,000 such draws scanned at 4096
    angles each).
    """
    check_positive(lambda1=lambda1, lambda2=lambda2)
    Gamma = check_target(Gamma, 1.0)
    check_ordered(lambda1, lambda2)
    l1i, l2i = 1.0 / lambda1, 1.0 / lambda2
    z1 = l1i + 1.0 - Gamma
    z2 = l2i + 1.0 - Gamma
    disc = (1.0 + l1i + l2i) ** 2 - 4.0 * l2i * (1.0 + l2i)
    if disc >= 0.0:
        half = 0.5 * math.sqrt(disc)
        g1 = 0.5 * (1.0 + l2i - l1i) - half
        g2 = 0.5 * (1.0 + l2i - l1i) + half
    else:
        g1, g2 = math.inf, -math.inf  # empty band

    gg = Gamma * (1.0 - Gamma)
    if g1 - _THETA_TOL <= Gamma <= g2 + _THETA_TOL:
        rad = math.sqrt(max(4.0 * gg * (gg + z1 * z2 - z2 * z2), 0.0))
        den = z1 * z1 + 4.0 * gg
        upper = min((z1 * z2 + 2.0 * gg + rad) / den, 1.0)
        t0_lin = (lambda1 / lambda2) / (1.0 + Gamma * lambda1)
        if t0_lin <= 1.0 - Gamma:
            theta0 = t0_lin
        else:
            theta0 = (z1 * z2 + 2.0 * gg - rad) / den
        return ThetaRegionResult(
            gamma_bounds=(g1, g2),
            theta_opt_low=theta0,
            theta_opt_high=upper,
            branch=ThetaBand.IN_BAND,
        )

    if Gamma <= (l2i - l1i) / (1.0 + l2i):
        lo = (lambda2 / lambda1) * (1.0 + Gamma * lambda1)
        hi = 1.0 - Gamma
        return ThetaRegionResult(
            gamma_bounds=(g1, g2),
            theta_opt_low=lo,
            theta_opt_high=hi,
            branch=ThetaBand.LOW_OUT_OF_BAND,
        )

    # stationary angle of the crossing branch between the plateau edge
    # theta_I = 1-Gamma and the case-2/3 boundary theta_a
    theta_i = 1.0 - Gamma
    theta_a = _solve_case_boundary(lambda1, lambda2, Gamma)
    lo, hi = min(theta_i, theta_a), max(theta_i, theta_a)
    th_star, _ = golden_section_max(
        lambda th: gamma2_fixed_vs_theta(th, lambda1, lambda2, Gamma),
        lo,
        hi,
        xtol=1e-10,
    )
    return ThetaRegionResult(
        gamma_bounds=(g1, g2),
        theta_opt_low=th_star,
        theta_opt_high=th_star,
        branch=ThetaBand.HIGH_OUT_OF_BAND,
    )


def _solve_case_boundary(lambda1: float, lambda2: float, Gamma: float) -> float:
    """Angle where the case-2/3 boundary a = b + c^2/b is crossed.

    b + c^2/b decreases monotonically in theta from +inf, so bisection on
    select_case's own tag (case 3 above the crossing) locates the unique
    crossing.  It stops once the midpoint rounds to an end: from then on
    neither end moves again.
    """

    def case3(theta: float) -> bool:
        return _fixed_case(theta, lambda1, lambda2, Gamma)[1] is CaseTag.CASE3

    lo, hi = 1e-15, 1.0
    if not case3(hi):
        return 1.0
    mid = 0.5 * (lo + hi)
    while mid != lo and mid != hi:
        if case3(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return mid


def gamma2_simple_power(
    theta: float, lambda1: float, lambda2: float, Gamma: float, P: float
) -> SimplePowerResult:
    """Weak-user SINR when user 1 receives the minimum power Gamma.

    The threshold theta1 = (-x + sqrt(x^2 + 4(y+1)))/2 with
    x = 1/(lambda2*Gamma), y = 1/(lambda1*Gamma) separates the regime where
    the strong user's decoding branch binds (theta <= theta1) from the one
    where the weak user's own SINR binds.  It is computed rationalized,
    2(y+1)/(x + hypot(x, 2 sqrt(y+1))): the plain form cancels once x is
    large (small Gamma), and x^2 overflows once lambda2*Gamma is tiny.
    Gamma = 0 takes each term's limit as Gamma -> 0: theta1 =
    lambda2/lambda1, the leading factor (P - Gamma)/(Gamma (1 + y)) tends
    to P*lambda1, and the weak user's own branch to P*lambda2.
    """
    check_positive(lambda1=lambda1, lambda2=lambda2)
    Gamma = check_target(Gamma, P)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if Gamma == 0.0:
        theta1 = lambda2 / lambda1
        full, at_zero, above = P * lambda1, P / (1.0 / lambda1 + 1.0 / lambda2), P * lambda2
    else:
        x = 1.0 / (lambda2 * Gamma)
        y = 1.0 / (lambda1 * Gamma)
        theta1 = 2.0 * (y + 1.0) / (x + math.hypot(x, 2.0 * math.sqrt(y + 1.0)))
        lead = (P - Gamma) / Gamma
        full, at_zero, above = lead / (1.0 + y), lead / (1.0 + y + x), lead / (theta + x)
    if theta > theta1 + _THETA_TOL:
        return SimplePowerResult(above, theta1, PowerBranch.ABOVE_THETA1)
    if theta == 0.0:
        gamma2 = at_zero
    elif theta == 1.0:
        gamma2 = full  # limit of the bracket term
    else:
        # (1 + x/theta)/(1 + y), which tends to lambda1/(lambda2*theta)
        ratio = lambda1 / (lambda2 * theta) if Gamma == 0.0 else (1.0 + x / theta) / (1.0 + y)
        br = 1.0 + theta / (1.0 - theta) * (math.sqrt(ratio) - 1.0) ** 2
        gamma2 = full / br
    return SimplePowerResult(gamma2, theta1, PowerBranch.BELOW_THETA1)


def angle_sweep(
    lambda1: float, lambda2: float, Gamma: float, P: float, n_points: int
) -> list[tuple[float, float, float]]:
    """Rows (theta, gamma2_optimal, gamma2_simple) on n_points angles over
    [0, 1], by value: the optimal design's SINR at every angle from one
    maximize_gamma2_batch call, the simple rule's from gamma2_simple_power,
    and no channel or beams.  The arguments are checked as a channel and
    derive_params would check them."""
    check_positive(lambda1=lambda1, lambda2=lambda2, P=P)
    check_ordered(lambda1, lambda2)
    Gamma = check_target(Gamma, P)
    thetas = np.linspace(0.0, 1.0, n_points)
    optimal = maximize_gamma2_batch(lambda1, np.full(n_points, lambda2), thetas, Gamma, P)
    return [
        (th, opt, gamma2_simple_power(th, lambda1, lambda2, Gamma, P).gamma2)
        for th, opt in zip(thetas.tolist(), optimal.tolist())
    ]


def matched_filter_limit_check(
    lambda1: float,
    Gamma: float,
    P: float,
    theta: float,
    lambda2_sequence: list[float],
) -> list[tuple[float, float, float, float]]:
    """Matched-filter convergence study as lambda2 -> 0.

    For each lambda2 runs the full power-allocated design and reports
    (lambda2, p1_opt, angle of w1 to h1/||h1||, angle of w2 to h2/||h2||)
    in radians.  Requires theta != 0 and a strictly decreasing sequence.
    """
    if theta == 0.0:
        raise ValueError("matched-filter limit requires theta != 0")
    if any(b >= a for a, b in zip(lambda2_sequence, lambda2_sequence[1:])):
        raise ValueError("lambda2_sequence must be strictly decreasing")
    out = []
    for lam2 in lambda2_sequence:
        ch = channel_from_quality(lambda1, lam2, theta, P)
        params = derive_params(ch, Gamma * ch.lambda1)
        sol = optimize_p1(ch, params)
        out.append(
            (
                float(lam2),
                float(sol.p1),
                _beam_angle(sol.w1_scaled, ch.h1),
                _beam_angle(sol.w2_scaled, ch.h2),
            )
        )
    return out


def _beam_angle(w: np.ndarray, h: np.ndarray) -> float:
    """Angle between w and the line of h, as atan2 of w's components
    orthogonal and parallel to h (0 for w = 0): acos of the cosine cannot
    resolve angles below sqrt(2*eps), about 2.1e-8."""
    u = h / np.linalg.norm(h)
    proj = np.vdot(u, w)
    return math.atan2(float(np.linalg.norm(w - proj * u)), abs(proj))
