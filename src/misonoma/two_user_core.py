"""Pareto-optimal beam design and power split for a two-user MISO broadcast
channel with successive interference cancellation.

User 1 (strong) decodes and subtracts user 2's signal before decoding its
own; user 2 treats user 1's signal as noise.  With signal and leakage powers

    s_i = |h_i^H w_i,scaled|^2,   r_i = |h_i^H w_j,scaled|^2   (j != i),

the rates are R1 = log2(1 + s1/sigma1^2) and
R2 = log2(1 + min{ r1/(s1+sigma1^2), s2/(r2+sigma2^2) }): user 2's rate is
limited both by its own SINR and by user 1's ability to decode user 2's
message for cancellation.

The design maximizes user 2's SINR gamma2 subject to an exact SINR target
gamma1* for user 1.  Each beam is parameterized in the basis given by the
component of the user's channel parallel/orthogonal to the other user's
channel; user 2 always transmits at full remaining power while user 1 may
back off.  For a fixed user-1 power p1, the inner problem has a three-case
closed form; the outer problem over p1 is solved by region.  The region
rule (classify_case) predicts which case holds at the optimum.  Where it
predicts case 3, the optimum p1 is known in closed form
(case3_closed_form_p1), p1 = Gamma when the channels are aligned, and the
endpoint p1 = Gamma is kept if it is strictly better.  Only where it
predicts case 2 (or the closed form is not finite) is p1 found
numerically.  A single design (optimize_p1) runs one golden section over
the whole of [Gamma, P] plus the endpoint p1 = Gamma; the search needs no
grid: no p1 curve with more than one local maximum turned up in 10^5
edge-weighted draws scanned at 4096 points each.  A batch
(maximize_gamma2_batch) solves all of its case-2 rows at once instead, by a
safeguarded root-find of the case-2 SINR's slope in s = sqrt(p1 - Gamma)
(_case2_argmax), where the SINR is smooth and its maximum lies in
0 <= s <= sqrt(min(P - Gamma, Gamma*theta/(1-theta))).

Each formula is written once: TwoUserChannel holds the reductions lambda1,
lambda2 and theta, computed once per channel, check_target is the target
interval 0 <= Gamma <= P, check_positive the positive and finite
qualities, noise powers and P, check_ordered the ordering lambda1 >= lambda2,
_alpha1 the minimal user-1 weight, _coeffs the inner coefficients at powers
(p1, p2), select_case the three-case rule, _fixed_case that rule at fixed
unit powers, _max_over_p1 the one scalar p1 search, and _build_solution the
beams of every design, both users' directions from one normalized channel
correlation; _gamma2_vec is the array form of the rule, _case2_slope the
slope of its case-2 branch in s, and _region_vec the
array form of the region prediction and the case-3 p1, which classify_case,
case3_closed_form_p1 and optimize_p1 evaluate at one instance.  The p1
search and the region rule read nothing of the channel but its power, so
they take (params, P); only the functions that build beams take the
channel.  maximize_gamma2_batch scores many instances by region, and
solves the rows where the closed form does not apply together, in arrays,
with no loop over rows; the scheduler scores its weak candidates with it,
and angle_analysis.angle_sweep every angle of a sweep in one call.
gamma2_bounds brackets its result, with a closed-form cap over all of
[Gamma, P], so that the scheduler can drop candidates before they are
scored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .complex_linalg import as_cvec, squared_correlation
from .golden import golden_section_max

# Resolution of the p1 search over [Gamma, P].
P1_XTOL = 1e-10

# Points of a p1 grid scan over [Gamma, P].  The search has no grid; this is
# read by perfbench's trace metrics and by the tests' grid scans.  Multiple
# local maxima are not ruled out analytically, but a probe of 10^5
# edge-weighted p1 curves, each scanned at 4096 points, found none.
P1_GRID = 512

# Below this relative norm a parallel/orthogonal direction is treated as
# degenerate (aligned or orthogonal channels).
DEGENERATE_DIR_TOL = 1e-12

_LN2 = math.log(2.0)


def log2_1p(sinr: float) -> float:
    """The rate log2(1 + sinr) in bits, formed as log1p(sinr)/ln 2: every
    rate is formed here, since log2(1.0 + sinr) loses every digit once sinr
    is below about 2e-16."""
    return math.log1p(sinr) / _LN2


class InfeasibleTargetError(ValueError):
    """Requested user-1 SINR target cannot be met with the available power."""


class CaseTag(Enum):
    CASE1 = 1  # alpha2* = 1: user 2's own SINR is never the bottleneck
    CASE2 = 2  # alpha2* at the crossing of the two SINR branches
    CASE3 = 3  # alpha2* = sqrt(theta): user 2's own-SINR branch peak


class OptRegion(Enum):
    OPT_IN_P2 = 2  # optimal p1 lies where case 2 holds
    OPT_IN_P3 = 3  # optimal p1 lies where case 3 holds


@dataclass(frozen=True)
class TwoUserChannel:
    """Effective two-user channel with per-user noise(+interference) powers
    and its reductions, computed once on construction: the qualities
    lambda_i = ||h_i||^2/sigma_i^2 and theta = angle_theta(h1, h2).

    The noise powers and P must be positive and finite (check_positive) and
    user 1 at least as strong as user 2 (check_ordered).
    """

    h1: np.ndarray
    h2: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    P: float
    lambda1: float = field(init=False)
    lambda2: float = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self):
        h1, h2 = as_cvec(self.h1), as_cvec(self.h2)
        if h1.size != h2.size:
            raise ValueError("h1 and h2 must have the same length")
        check_positive(sigma1_sq=self.sigma1_sq, sigma2_sq=self.sigma2_sq, P=self.P)
        lam1 = float(np.vdot(h1, h1).real) / self.sigma1_sq
        lam2 = float(np.vdot(h2, h2).real) / self.sigma2_sq
        if lam1 == 0.0 or lam2 == 0.0:
            raise ValueError("h1 and h2 must be nonzero")
        check_ordered(lam1, lam2)
        stored = dict(h1=h1, h2=h2, lambda1=lam1, lambda2=lam2, theta=squared_correlation(h1, h2))
        for name, value in stored.items():
            object.__setattr__(self, name, value)


def check_positive(**values: float) -> None:
    """Raise ValueError, naming the first bad one, unless every value is
    positive and finite (NaN fails too)."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def check_ordered(lambda1: float, lambda2: float) -> None:
    """Raise ValueError unless lambda1 >= lambda2 (user 1 at least as
    strong, equal qualities admitted) up to a relative slack of 1e-9."""
    if lambda1 < lambda2 * (1.0 - 1e-9):
        raise ValueError(f"ordering violated: lambda1={lambda1:.6g} < lambda2={lambda2:.6g}")


def channel_from_quality(
    lambda1: float, lambda2: float, theta: float, P: float
) -> TwoUserChannel:
    """Canonical two-antenna channel pair at unit noise powers realizing
    given qualities and angle.

    h1 points along e1 with ||h1||^2 = lambda1; h2 lies in the e1/e2 plane
    at squared correlation theta to h1.
    """
    check_positive(lambda1=lambda1, lambda2=lambda2)
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    h1 = np.array([math.sqrt(lambda1), 0.0], dtype=np.complex128)
    h2 = np.array(
        [math.sqrt(lambda2 * theta), math.sqrt(lambda2 * (1.0 - theta))], dtype=np.complex128
    )
    return TwoUserChannel(h1, h2, 1.0, 1.0, P)


@dataclass
class DerivedParams:
    """Scalar reduction of a design instance.

    lambda_i are the per-user channel SNR qualities, theta the squared
    channel correlation and Gamma = gamma1*/lambda1 the normalized user-1
    target.
    """

    lambda1: float
    lambda2: float
    theta: float
    Gamma: float

    @property
    def gamma1_star(self) -> float:
        return self.Gamma * self.lambda1


def check_target(Gamma: float, P: float) -> float:
    """The normalized user-1 target Gamma = gamma1*/lambda1, checked against
    its power bound P and clamped to it: min(Gamma, P).

    Raises InfeasibleTargetError unless 0 <= Gamma <= P, with a relative
    slack of 1e-12 above P for round-off in gamma1*/lambda1; NaN fails too.
    Above P even full power on a matched filter cannot reach the target.
    """
    if not 0.0 <= Gamma <= P * (1.0 + 1e-12):
        raise InfeasibleTargetError(f"Gamma={Gamma:.6g} outside [0, {P:.6g}]")
    return min(Gamma, P)


def derive_params(ch: TwoUserChannel, gamma1_star: float) -> DerivedParams:
    """Scalar parameters for a channel and a user-1 SINR target, with the
    normalized target checked against the cluster power (check_target)."""
    Gamma = check_target(gamma1_star / ch.lambda1, ch.P)
    return DerivedParams(ch.lambda1, ch.lambda2, ch.theta, Gamma)


def _tau(lam1, lam2, th, G):
    """The region-test threshold (1/lambda1 + Gamma)/theta - 1/lambda2, on
    scalars with theta > 0 or on arrays (theta = 0 gives +inf there)."""
    return (1.0 / lam1 + G) / th - 1.0 / lam2


def _alpha1(theta: float, Gamma: float, p1: float) -> float:
    """Minimal user-1 parallel weight at power p1 (requires p1 >= Gamma).

    Zero while the orthogonal direction alone can meet the target
    (Gamma/p1 <= 1-theta); otherwise the unit-circle solution
    sqrt(theta*r) - sqrt((1-theta)(1-r)) with r = Gamma/p1.
    """
    if p1 < Gamma * (1.0 - 1e-12):
        raise InfeasibleTargetError(
            f"p1={p1:.6g} below the minimum feasible power Gamma={Gamma:.6g}"
        )
    if p1 == 0.0:
        return 0.0  # only reachable when Gamma == 0
    ratio = min(Gamma / p1, 1.0)
    if ratio <= 1.0 - theta:
        return 0.0
    return math.sqrt(theta * ratio) - math.sqrt((1.0 - theta) * (1.0 - ratio))


def _coeffs(
    lam1: float, lam2: float, th: float, G: float, p1: float, p2: float
) -> tuple[float, float, float]:
    """Inner-problem coefficients (a, b, c) at powers (p1, p2): the design
    spends p2 = P - p1, the fixed-power design p1 = p2 = 1.

    a scales user 1's decoding branch, b/c the parallel/orthogonal parts of
    user 2's own branch, all in the square-root SINR domain and including
    the sqrt(p2) factor.
    """
    a1 = _alpha1(th, G, p1)
    root = math.sqrt(max(p2, 0.0))
    den = lam2 * p1 * a1 * a1 + 1.0
    a = root * math.sqrt(lam1 / (1.0 + G * lam1))
    b = root * math.sqrt(lam2 * th / den)
    c = root * math.sqrt(lam2 * (1.0 - th) / den)
    return a, b, c


def select_case(
    a: float, b: float, c: float, theta: float
) -> tuple[float, CaseTag, float]:
    """Three-case closed form of the inner problem: (gamma2, tag, alpha2*).

    alpha2* = 1 when a <= b; the branch crossing c/sqrt(c^2+(a-b)^2) when
    b < a <= b + c^2/b; sqrt(theta), the peak of user 2's own branch,
    otherwise (never when b = 0).  Case boundaries are ties resolved toward
    the lower case; the value is continuous across them.
    """
    if a <= b:
        return a * a, CaseTag.CASE1, 1.0
    if b == 0.0 or a <= b + c**2 / b:
        h = math.hypot(c, a - b)
        alpha2 = c / h if h > 0.0 else 1.0
        return (a * alpha2) ** 2, CaseTag.CASE2, alpha2
    return b * b + c * c, CaseTag.CASE3, math.sqrt(theta)


def classify_case(params: DerivedParams, P: float) -> OptRegion:
    """Predict which inner-problem case holds at the optimal p1: the region
    rule (_region_vec) at one instance.

    Case 2 wins iff theta*Gamma < tau, or tau >= 0 with enough total power:
    P >= Gamma + (sqrt(theta*Gamma)-sqrt(tau)) * (sqrt(theta*Gamma)
    + 1/(lambda2*sqrt(tau))) / (1-theta).  Degenerate limits: theta = 0
    gives tau = +inf (case 2); tau = 0 pushes the power threshold to +inf
    (case 3); theta = 1 is case 3, with the optimum at p1 = Gamma (pure
    power control), whatever tau rounds to.
    """
    case2, _ = _region_vec(params.lambda1, params.lambda2, params.theta, params.Gamma, P)
    return OptRegion.OPT_IN_P2 if case2 else OptRegion.OPT_IN_P3


def gamma2_of_p1(p1: float, params: DerivedParams, P: float) -> tuple[float, CaseTag]:
    """Best achievable user-2 SINR at user-1 power p1, with its case tag."""
    th = params.theta
    abc = _coeffs(params.lambda1, params.lambda2, th, params.Gamma, p1, P - p1)
    gamma2, tag, _ = select_case(*abc, th)
    return gamma2, tag


def _gamma2_vec(lam1, lam2, th, G, P):
    """select_case's gamma2 on arrays, as a function of p1: the array form
    of the rule, for the batched candidate scoring and the grid scans that
    check it (numpy costs more than math per scalar evaluation).  The
    reductions lambda1, lambda2, theta, Gamma and P are scalars or arrays
    that broadcast against p1; the terms that do not depend on p1 are
    computed once here, not once per evaluation.  Evaluate it under
    np.errstate(divide="ignore", invalid="ignore"): the crossing and the
    case-3 test divide by terms that can be 0 on rows that do not use them.
    """
    one_th = 1.0 - th
    den1 = 1.0 + G * lam1

    def f(p1):
        ratio = np.minimum(np.divide(G, p1, out=np.zeros_like(p1), where=p1 > 0), 1.0)
        a1 = np.where(
            ratio <= one_th,
            0.0,
            np.sqrt(th * ratio) - np.sqrt(one_th * (1.0 - ratio)),
        )
        rem = np.maximum(P - p1, 0.0)
        den = lam2 * p1 * a1 * a1 + 1.0
        a2_ = rem * lam1 / den1  # a^2
        b2_ = rem * lam2 * th / den
        c2_ = rem * lam2 * one_th / den
        a_ = np.sqrt(a2_)
        b_ = np.sqrt(b2_)
        case1 = a_ <= b_
        # the ratio first: a^2 * c^2 overflows long before the result does
        crossing = a2_ * (c2_ / (c2_ + (a_ - b_) ** 2))
        # select_case's test a > b + c^2/b; multiplied through by b it
        # misreads a == b, c = 0 (aligned equal-quality channels) as case 2
        case3 = (~case1) & (b_ > 0.0) & (a_ > b_ + c2_ / b_)
        crossing = np.where(c2_ + (a_ - b_) ** 2 > 0.0, crossing, a2_)
        return np.where(case1, a2_, np.where(case3, b2_ + c2_, crossing))

    return f


def _region_vec(lam1, lam2, th, G, P):
    """The paper's region rule on arrays: (case2, p1), row by row.

    case2 is classify_case's prediction (True: the optimal p1 lies where
    case 2 holds; theta = 0 is always case 2, theta = 1 never: with
    lambda1 == lambda2, tau can round an ulp above theta*Gamma there).
    p1 is the case-3 optimum,
    the stationary point of user 2's own branch b^2 + c^2
    (case3_closed_form_p1), clamped to [Gamma, P].  With
    m = theta*Gamma + (1-theta)(P-Gamma), psi2 = theta*Gamma - (1-theta)(P-Gamma)
    and r = (P-Gamma)*lambda2 / (1 + m*lambda2 + hypot(psi2*lambda2,
    sqrt(1 + 2*m*lambda2))), it is

        p1 = Gamma + 4*(theta*Gamma*r)*((1-theta)*r),

    the rationalized form multiplied through by lambda2: no 1/lambda2 term
    and no square of psi2, so nothing overflows while (P-Gamma)*lambda2 is
    finite, and theta*Gamma*r <= P - Gamma and (1-theta)*r <= 1 bound the
    product.  At theta = 1 it is Gamma exactly, where the design is pure
    power control, and p1 -> Gamma as lambda2 -> 0.  The arguments are
    scalars or arrays that broadcast together.
    """
    th = np.asarray(th, dtype=float)  # a float theta = 0 would raise ZeroDivisionError in _tau
    tG = th * G
    one_th = 1.0 - th
    with np.errstate(divide="ignore", invalid="ignore"):
        # theta = 0 divides by 0 (tau = +inf), tau < 0 has no square root,
        # and tau = 0 or theta = 1 divide thr by 0: those rows are decided
        # before thr is read
        tau = _tau(lam1, lam2, th, G)
        rt_tG, rt_tau = np.sqrt(tG), np.sqrt(tau)
        thr = G + (rt_tG - rt_tau) * (rt_tG + 1.0 / (lam2 * rt_tau)) / one_th
    case2 = (th == 0.0) | ((th != 1.0) & ((tG < tau) | ((tau > 0.0) & (P >= thr))))
    rem = P - G
    m = tG + one_th * rem
    psi2 = tG - one_th * rem
    r = rem * lam2 / (1.0 + m * lam2 + np.hypot(psi2 * lam2, np.sqrt(1.0 + 2.0 * m * lam2)))
    return case2, np.minimum(G + 4.0 * (tG * r) * (one_th * r), P)


# Relative slack on the closed-form bound of gamma2_bounds: the bound and
# _gamma2_vec round their products in different orders, so a value can
# exceed the computed bound by an ulp or so; 1e-9 covers that with room and
# prunes no less.
BOUND_GUARD = 1.0 + 1e-9


def gamma2_bounds(
    lam1: float, lam2: np.ndarray, theta: np.ndarray, Gamma, P: float
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise (lower, upper) bounds on maximize_gamma2_batch's result for
    the same arguments.

    lower is the user-2 SINR at the endpoint p1 = Gamma, which the batch
    returns when nothing beats it.  upper caps the SINR at every p1 in
    [Gamma, P] in closed form, (P - Gamma) * min(lambda1/(1 + Gamma*lambda1),
    lambda2), times BOUND_GUARD.  At p1 the three cases give a^2, the
    crossing (a*alpha2)^2 or b^2 + c^2.  Each is at most
    a^2 = (P-p1)*lambda1/(1+Gamma*lambda1): alpha2 <= 1, and case 3 has
    a > b + c^2/b, so b^2 + c^2 < a*b < a^2.  Each is also at most
    b^2 + c^2 = (P-p1)*lambda2/den with den >= 1: case 1 has a <= b, and the
    crossing lies on user 2's own branch
    b*alpha2 + c*sqrt(1-alpha2^2) <= sqrt(b^2 + c^2) (Cauchy-Schwarz).
    p1 >= Gamma does the rest.
    """
    ends = np.zeros(lam2.shape) + Gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = _gamma2_vec(lam1, lam2, theta, Gamma, P)(ends)
    upper = (P - Gamma) * np.minimum(lam1 / (1.0 + Gamma * lam1), lam2)
    return lower, upper * BOUND_GUARD


def _max_over_p1(f, G: float, P: float) -> tuple[float, float]:
    """argmax/max of f over p1 in [Gamma, P]: golden section over the whole
    interval, then the endpoint p1 = Gamma, which golden section approaches
    but never samples (the curve can fall off it like sqrt(p1 - Gamma), so a
    point within P1_XTOL of it can lose up to about 1e-5 of the value); the
    larger of the two is returned."""
    p1_opt, v_opt = golden_section_max(f, G, P, xtol=P1_XTOL)
    v_end = f(G)
    return (G, v_end) if v_end > v_opt else (p1_opt, v_opt)


def maximize_gamma2_over_p1(params: DerivedParams, P: float) -> tuple[float, float]:
    """argmax/max of the user-2 SINR over p1 in [Gamma, P], by _max_over_p1.

    The searched curve is the pointwise-optimal SINR, so the returned value
    is always achievable.
    """
    return _max_over_p1(lambda p: gamma2_of_p1(p, params, P)[0], params.Gamma, P)


def _case2_slope(lam1, lam2, th, G, P):
    """A function of s = sqrt(p1 - Gamma), on arrays, with the sign of the
    derivative in s of case 2's SINR, the branch crossing (a*alpha2)^2.

    On 0 <= s <= sqrt(Gamma*theta/(1-theta)) user 1's parallel weight gives
    p1*alpha1^2 = q^2 with q = sqrt(theta*Gamma) - sqrt(1-theta)*s, so with
    A = lambda1/(1 + Gamma*lambda1) and u = sqrt(A*(1 + lambda2*q^2)) the
    crossing is

        F(s) = (P - Gamma - s^2)*A*lambda2*(1-theta) / D,
        D    = (u - sqrt(lambda2*theta))^2 + lambda2*(1-theta),

    smooth in s, and dF/ds = 2*F/((P - Gamma - s^2)*D) times the returned

        (P - Gamma - s^2)*(1 - sqrt(lambda2*theta)/u)*A*lambda2*sqrt(1-theta)*q - s*D,

    formed without u^2 or q^2 times P, so that it stays finite at large P.
    The arguments are scalars or arrays that broadcast together.
    """
    rt_1th = np.sqrt(1.0 - th)
    rt_tG = np.sqrt(th * G)
    A = lam1 / (1.0 + G * lam1)
    v = np.sqrt(lam2 * th)
    k = A * lam2 * rt_1th
    c2 = lam2 * (1.0 - th)

    def h(s):
        q = np.maximum(rt_tG - rt_1th * s, 0.0)
        u = np.sqrt(A * (1.0 + lam2 * q * q))
        return (P - G - s * s) * (1.0 - v / u) * k * q - s * ((u - v) ** 2 + c2)

    return h


# The case-2 root-find stops once its bracket in s is narrower than S_RTOL
# times the bracket it started from.  The bisection safeguard halves the
# bracket at least every fourth step, so no row needs more than about
# 4*log2(1/S_RTOL) = 173 steps; _MAX_STEPS only bounds the loop.
S_RTOL = 1e-13
_MAX_STEPS = 180


def _case2_argmax(lam1, lam2, th, G, P):
    """The maximizer in s = sqrt(p1 - Gamma) of case 2's SINR on
    0 <= s <= S, S = sqrt(min(P - Gamma, Gamma*theta/(1-theta))), row by
    row, to within S_RTOL*S.

    Above p1 = Gamma/(1-theta) user 1's parallel weight is 0, so the SINR
    falls linearly in p1; at theta = 0 or Gamma = 0, S is 0 and s is 0.
    Where the slope (_case2_slope) is not positive at s = 0, s is 0; where
    it is positive at both ends, s is S.  Otherwise its root is bracketed
    by Illinois regula falsi (Dowell and Jarratt, BIT 1971): the end that
    holds twice in a row has its slope halved.  A step lands at least
    S_RTOL*S/2 inside the bracket, so that an end which has converged from
    one side is passed by the next step, as in Brent's zeroin; a step that
    follows three steps which did not halve the bracket, or whose slope
    ratio is NaN, bisects instead.  Each row stops once its bracket is
    narrower than S_RTOL*S or its slope is 0 (or NaN) at the step, and
    returns the bracket's upper end; its arrays are then left as they are,
    so a row's result does not depend on the other rows.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        S = np.sqrt(np.minimum(P - G, np.where(th < 1.0, th * G / (1.0 - th), np.inf)))
        h = _case2_slope(lam1, lam2, th, G, P)
        lo = np.zeros_like(S)
        h_lo, h_hi = h(lo), h(S)
        hi = np.where(h_lo > 0.0, S, 0.0)
        go = (h_lo > 0.0) & (h_hi < 0.0)
        tol = S_RTOL * S
        kept = np.zeros_like(S)  # +1: lo moved last, -1: hi moved last
        widths = [np.full_like(S, np.inf)] * 3  # the last three brackets
        for _ in range(_MAX_STEPS):
            w = hi - lo
            go &= w > tol
            if not go.any():
                break
            x = lo + w * (h_lo / (h_lo - h_hi))
            x = np.minimum(np.maximum(x, lo + 0.5 * tol), hi - 0.5 * tol)
            x = np.where((w > 0.5 * widths[0]) | np.isnan(x), lo + 0.5 * w, x)
            widths = widths[1:] + [w]
            hx = h(x)
            up, down = go & (hx > 0.0), go & (hx < 0.0)
            stop = go & ~up & ~down
            h_hi = np.where(up & (kept > 0.0), 0.5 * h_hi, h_hi)
            h_lo = np.where(down & (kept < 0.0), 0.5 * h_lo, h_lo)
            lo, h_lo = np.where(up | stop, x, lo), np.where(up, hx, h_lo)
            hi, h_hi = np.where(down | stop, x, hi), np.where(down, hx, h_hi)
            kept = np.where(up, 1.0, np.where(down, -1.0, kept))
    return hi


def maximize_gamma2_batch(
    lam1: float, lam2: np.ndarray, theta: np.ndarray, Gamma, P: float
) -> np.ndarray:
    """max of the user-2 SINR over p1 in [Gamma, P] for many instances that
    share lambda1 and P; lam2 and theta hold one entry per instance, and the
    normalized target Gamma is a scalar or one entry per instance (the
    scheduler stacks the candidates of several targets in one call).

    Each row is solved by region (_region_vec).  A row predicted case 3
    (every row with theta = 1 is) takes the SINR at its case-3 optimum p1
    (p1 = Gamma at theta = 1).  The rows predicted case 2 (every row with
    theta = 0 is) and the rows whose closed form is not finite are solved
    together: _case2_argmax finds the maximizer s of case 2's SINR in
    s = sqrt(p1 - Gamma), and the row takes the three-case SINR at
    p1 = Gamma + s^2.  Either value is taken as the max with
    the array form's value at p1 = Gamma, so gamma2_bounds' lower bound
    holds.  Every step is elementwise, so a row's value does not depend on
    the other rows of the call.
    """
    ends = np.zeros(lam2.shape) + Gamma
    case2, p1 = _region_vec(lam1, lam2, theta, ends, P)
    search = case2 | ~np.isfinite(p1)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _gamma2_vec(lam1, lam2, theta, ends, P)
        best = np.maximum(f(np.where(search, ends, p1)), f(ends))
        if search.any():
            i = np.flatnonzero(search)
            args = lam1, lam2[i], theta[i], ends[i], P
            s = _case2_argmax(*args)
            best[i] = np.maximum(_gamma2_vec(*args)(ends[i] + s * s), best[i])
    return best


@dataclass
class BeamSolution:
    """Designed beams and power split for one cluster.

    w1_scaled/w2_scaled carry the powers (sqrt(p_i) times a unit-ball
    direction); s/r fields are the resulting signal and leakage powers.
    """

    alpha1: float
    beta1: float
    alpha2: float
    p1: float
    p2: float
    case_tag: CaseTag
    gamma2_star: float
    w1_scaled: np.ndarray
    w2_scaled: np.ndarray
    s1: float
    r1: float
    s2: float
    r2: float


def _build_solution(
    ch: TwoUserChannel,
    params: DerivedParams,
    p1: float,
    p2: float,
    gamma2: float,
    tag: CaseTag,
    alpha2: float,
) -> BeamSolution:
    """Beams at powers (p1, p2) with user 2's parallel weight alpha2.

    Both users' directions come from one correlation c = <h1^, h2^> of the
    unit channels: the parallel parts h2^ conj(c)/|c| and h1^ c/|c|, and
    the normalized orthogonal parts h1^ - h2^ conj(c) and h2^ - h1^ c.  For
    orthogonal channels (|c| <= DEGENERATE_DIR_TOL) user 1 has no parallel
    part and user 2's is h1^: beam 2 leaks onto user 1's channel on purpose.
    Aligned channels (an orthogonal part below that tolerance) get pure
    power control: (alpha1, beta1, alpha2) = (t, 0, 1) with
    t = sqrt(min(Gamma/p1, 1)).  Otherwise alpha1 is _alpha1's and beta1
    meets the target: t/sqrt(1-theta) off the unit circle, 0 at theta = 1,
    else sqrt(1-theta)*t + sqrt(theta*(1-t^2)), free of cancellation as
    theta -> 1.
    """
    u1 = ch.h1 / np.linalg.norm(ch.h1)
    u2 = ch.h2 / np.linalg.norm(ch.h2)
    c = complex(np.vdot(u1, u2))
    perp1, perp2 = u1 - u2 * c.conjugate(), u2 - u1 * c
    n1, n2 = float(np.linalg.norm(perp1)), float(np.linalg.norm(perp2))
    if abs(c) > DEGENERATE_DIR_TOL:
        par1, par2 = u2 * (c.conjugate() / abs(c)), u1 * (c / abs(c))
    else:
        par1, par2 = np.zeros_like(u1), u1
    G, th = params.Gamma, params.theta
    t2 = min(G / p1, 1.0) if p1 > 0.0 else 0.0
    t = math.sqrt(t2)
    if min(n1, n2) <= DEGENERATE_DIR_TOL:
        a1, b1, alpha2 = t, 0.0, 1.0
        w1, w2 = a1 * par1, par2
    else:
        a1 = _alpha1(th, G, p1)
        if th == 1.0:
            b1 = 0.0
        elif t2 <= 1.0 - th:
            b1 = t / math.sqrt(1.0 - th)
        else:
            b1 = math.sqrt(1.0 - th) * t + math.sqrt(th * (1.0 - t2))
        w1 = a1 * par1 + b1 * (perp1 / n1)
        w2 = alpha2 * par2 + math.sqrt(max(1.0 - alpha2**2, 0.0)) * (perp2 / n2)

    w1s = math.sqrt(max(p1, 0.0)) * w1
    w2s = math.sqrt(max(p2, 0.0)) * w2
    s1 = abs(np.vdot(ch.h1, w1s)) ** 2
    r2 = abs(np.vdot(ch.h2, w1s)) ** 2
    s2 = abs(np.vdot(ch.h2, w2s)) ** 2
    r1 = abs(np.vdot(ch.h1, w2s)) ** 2
    return BeamSolution(
        alpha1=a1,
        beta1=b1,
        alpha2=alpha2,
        p1=p1,
        p2=p2,
        case_tag=tag,
        gamma2_star=gamma2,
        w1_scaled=w1s,
        w2_scaled=w2s,
        s1=float(s1),
        r1=float(r1),
        s2=float(s2),
        r2=float(r2),
    )


def optimize_p1(ch: TwoUserChannel, params: DerivedParams) -> BeamSolution:
    """Full power-allocated Pareto-optimal design, p1 by the region rule
    (_region_vec), as maximize_gamma2_batch takes it row by row.

    Where case 3 is predicted, p1 is the closed-form case-3 optimum (p1 =
    Gamma at theta = 1), or the endpoint p1 = Gamma if its SINR is strictly
    larger.  Where case 2 is predicted (every theta = 0 instance is) or the
    closed form is not finite, maximize_gamma2_over_p1 searches for p1.
    The beams are then built at p1, with select_case's tag and alpha2*.
    """
    P, G, th = ch.P, params.Gamma, params.theta
    case2, p1 = _region_vec(params.lambda1, params.lambda2, th, G, P)
    p1 = float(p1)
    if case2 or not math.isfinite(p1):
        p1, _ = maximize_gamma2_over_p1(params, P)
    elif gamma2_of_p1(G, params, P)[0] > gamma2_of_p1(p1, params, P)[0]:
        p1 = G
    abc = _coeffs(params.lambda1, params.lambda2, th, G, p1, P - p1)
    gamma2, tag, alpha2 = select_case(*abc, th)
    return _build_solution(ch, params, p1, P - p1, gamma2, tag, alpha2)


def case3_closed_form_p1(params: DerivedParams, P: float) -> float:
    """Stationary point of the case-3 SINR branch, in closed form: the
    region rule's p1 (_region_vec) at one instance.

    With psi1 = theta*Gamma + (1-theta)(P-Gamma) + 1/lambda2 and
    psi2 = theta*Gamma - (1-theta)(P-Gamma), the interior maximizer is

        p1 = Gamma + x^2/(1-theta),
        x  = 2*sqrt(theta*Gamma)*(1-theta)*(P-Gamma) / (psi1 + sqrt(D)),
        D  = psi2^2 + 2*psi1/lambda2 - 1/lambda2^2.

    The rationalized form of x is exact and stays stable as lambda2 -> 0,
    where p1 -> Gamma.  The result is clamped to [Gamma, P].  theta in
    {0, 1} is degenerate (raises ValueError; fall back to the numeric
    search).
    """
    if params.theta in (0.0, 1.0):
        raise ValueError("closed form undefined for theta in {0, 1}; use numeric search")
    _, p1 = _region_vec(params.lambda1, params.lambda2, params.theta, params.Gamma, P)
    return float(p1)


def maximize_branch_gamma2(params: DerivedParams, P: float) -> tuple[float, float]:
    """argmax/max over p1 in [Gamma, P] of the case-3 branch b^2 + c^2 (user
    2's own-SINR peak), by the same search as maximize_gamma2_over_p1.

    Used to cross-check case3_closed_form_p1; the branch formula is
    evaluated everywhere regardless of pointwise case membership.
    """
    lam1, lam2, th, G = params.lambda1, params.lambda2, params.theta, params.Gamma

    def branch3(p1: float) -> float:
        _, b, c = _coeffs(lam1, lam2, th, G, p1, P - p1)
        return b * b + c * c

    return _max_over_p1(branch3, G, P)


def _fixed_case(
    theta: float, lambda1: float, lambda2: float, Gamma: float
) -> tuple[float, CaseTag, float]:
    """select_case at fixed unit powers p1 = p2 = 1: (gamma2, tag, alpha2*).

    Requires theta in [0, 1], positive and finite qualities (check_positive) and
    Gamma in [0, 1] (check_target with bound 1: unit power caps the
    reachable user-1 SINR at lambda1).
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    check_positive(lambda1=lambda1, lambda2=lambda2)
    G = check_target(Gamma, 1.0)
    return select_case(*_coeffs(lambda1, lambda2, theta, G, 1.0, 1.0), theta)


def fixed_power_design(ch: TwoUserChannel, params: DerivedParams) -> BeamSolution:
    """Beam-only design at fixed unit powers p1 = p2 = 1 (_fixed_case)."""
    gamma2, tag, alpha2 = _fixed_case(params.theta, params.lambda1, params.lambda2, params.Gamma)
    return _build_solution(ch, params, 1.0, 1.0, gamma2, tag, alpha2)


def pareto_boundary(ch: TwoUserChannel, n_points: int) -> list[tuple[float, float, float]]:
    """Rate-region boundary rows (R1, R2_fixed, R2_power) on one grid of
    n_points normalized targets over [0, P].

    R2_power is the power-allocated design, non-increasing in R1 along the
    output; R2_fixed the design at fixed unit powers, nan where the target
    exceeds what unit user-1 power can reach (Gamma > 1).
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    rows = []
    for G in np.linspace(0.0, ch.P, n_points):
        params = derive_params(ch, float(G) * ch.lambda1)
        r2_power = log2_1p(optimize_p1(ch, params).gamma2_star)
        try:
            r2_fixed = log2_1p(fixed_power_design(ch, params).gamma2_star)
        except InfeasibleTargetError:
            r2_fixed = math.nan
        rows.append((log2_1p(params.gamma1_star), r2_fixed, r2_power))
    return rows

