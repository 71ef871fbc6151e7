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
closed form; the outer problem over p1 is solved numerically, by one
golden section over the whole of [Gamma, P] plus the endpoint p1 = Gamma
(classify_case predicts which case holds at the optimum).  The search needs
no grid: no p1 curve with more than one local maximum turned up in 10^5
edge-weighted draws scanned at 4096 points each.

Each formula is written once: _alpha1 is the minimal user-1 weight, _coeffs
the inner coefficients at powers (p1, p2), select_case the three-case rule,
and _max_over_p1 the p1 search; _gamma2_vec is the array form of the rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .complex_linalg import angle_theta, as_cvec
from .golden import golden_section_max, vector_golden_section_max

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


class InfeasibleTargetError(ValueError):
    """Requested user-1 SINR target cannot be met with the available power."""


class CaseTag(Enum):
    CASE1 = 1  # alpha2* = 1: user 2's own SINR is never the bottleneck
    CASE2 = 2  # alpha2* at the crossing of the two SINR branches
    CASE3 = 3  # alpha2* = sqrt(theta): user 2's own-SINR branch peak


class OptRegion(Enum):
    OPT_IN_P2 = 2  # optimal p1 lies where case 2 holds
    OPT_IN_P3 = 3  # optimal p1 lies where case 3 holds


@dataclass
class TwoUserChannel:
    """Effective two-user channel with per-user noise(+interference) powers.

    Ordering ||h1||^2/sigma1_sq >= ||h2||^2/sigma2_sq (user 1 at least as
    strong) is validated on construction; equality is admitted for
    boundary studies with symmetric channel qualities.
    """

    h1: np.ndarray
    h2: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    P: float

    def __post_init__(self):
        self.h1 = as_cvec(self.h1)
        self.h2 = as_cvec(self.h2)
        if self.h1.size != self.h2.size:
            raise ValueError("h1 and h2 must have the same length")
        if self.sigma1_sq <= 0 or self.sigma2_sq <= 0:
            raise ValueError("noise powers must be positive")
        if self.P <= 0:
            raise ValueError("cluster power P must be positive")
        lam1, lam2 = self.lambda1, self.lambda2
        if lam1 == 0.0 or lam2 == 0.0:
            raise ValueError("h1 and h2 must be nonzero")
        if lam1 < lam2 * (1.0 - 1e-9):
            raise ValueError(
                "ordering violated: ||h1||^2/sigma1^2 must be >= ||h2||^2/sigma2^2"
            )

    @property
    def lambda1(self) -> float:
        return float(np.vdot(self.h1, self.h1).real) / self.sigma1_sq

    @property
    def lambda2(self) -> float:
        return float(np.vdot(self.h2, self.h2).real) / self.sigma2_sq

    @property
    def theta(self) -> float:
        return angle_theta(self.h1, self.h2)


def channel_from_quality(
    lambda1: float,
    lambda2: float,
    theta: float,
    P: float,
    sigma1_sq: float = 1.0,
    sigma2_sq: float = 1.0,
    nt: int = 2,
) -> TwoUserChannel:
    """Canonical channel pair realizing given qualities and angle.

    h1 points along e1 with ||h1||^2 = lambda1*sigma1_sq; h2 lies in the
    e1/e2 plane at squared correlation theta to h1.
    """
    for name, value in (("lambda1", lambda1), ("lambda2", lambda2)):
        if not value > 0.0:
            raise ValueError(f"{name} must be positive, got {value}")
    if nt < 2 and theta not in (0.0, 1.0):
        raise ValueError("nt >= 2 required for intermediate angles")
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    h1 = np.zeros(nt, dtype=np.complex128)
    h1[0] = math.sqrt(lambda1 * sigma1_sq)
    h2 = np.zeros(nt, dtype=np.complex128)
    h2[0] = math.sqrt(lambda2 * sigma2_sq * theta)
    if nt >= 2:
        h2[1] = math.sqrt(lambda2 * sigma2_sq * (1.0 - theta))
    return TwoUserChannel(h1, h2, sigma1_sq, sigma2_sq, P)


@dataclass
class DerivedParams:
    """Scalar reduction of a design instance.

    lambda_i are the per-user channel SNR qualities, theta the squared
    channel correlation, Gamma = gamma1*/lambda1 the normalized user-1
    target, and tau the region-test threshold (set to +inf when theta = 0,
    where the 1/theta divergence makes case 2 always win).
    """

    lambda1: float
    lambda2: float
    theta: float
    Gamma: float
    tau: float

    @property
    def gamma1_star(self) -> float:
        return self.Gamma * self.lambda1


def derive_params(ch: TwoUserChannel, gamma1_star: float) -> DerivedParams:
    """Scalar parameters for a channel and a user-1 SINR target.

    Raises InfeasibleTargetError when the normalized target Gamma exceeds P
    (even full power on a matched filter cannot reach the target).
    """
    if gamma1_star < 0:
        raise ValueError("gamma1_star must be nonnegative")
    lam1 = ch.lambda1
    lam2 = ch.lambda2
    Gamma = gamma1_star / lam1
    if Gamma > ch.P * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"normalized target Gamma={Gamma:.6g} exceeds cluster power P={ch.P:.6g}"
        )
    Gamma = min(Gamma, ch.P)
    theta = ch.theta
    tau = math.inf if theta == 0.0 else (1.0 / lam1 + Gamma) / theta - 1.0 / lam2
    return DerivedParams(lam1, lam2, theta, Gamma, tau)


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


def alpha1_star_fixed(theta: float, Gamma: float) -> float:
    """Minimal user-1 parallel weight meeting the target at unit power."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0, 1]")
    if not 0.0 <= Gamma <= 1.0:
        raise ValueError("Gamma must lie in [0, 1] for unit user-1 power")
    return _alpha1(theta, Gamma, 1.0)


def alpha1_star(p1: float, params: DerivedParams) -> float:
    """Minimal user-1 parallel weight at power p1 (requires p1 >= Gamma)."""
    return _alpha1(params.theta, params.Gamma, p1)


def alpha1_beta1(p1: float, params: DerivedParams) -> tuple[float, float]:
    """(alpha1*, beta1*) meeting the user-1 constraint at power p1.

    beta1 follows from the constraint; the on-circle branch uses the
    algebraically equivalent form sqrt(1-theta)*t + sqrt(theta*(1-t^2))
    with t = sqrt(Gamma/p1), which avoids catastrophic cancellation as
    theta -> 1.
    """
    G, th = params.Gamma, params.theta
    if p1 == 0.0:
        return 0.0, 0.0
    t2 = min(G / p1, 1.0)
    t = math.sqrt(t2)
    if th == 1.0:
        return t, 0.0
    if t2 <= 1.0 - th:
        return 0.0, t / math.sqrt(1.0 - th)
    # _alpha1 at ratio t^2 and unit power: alpha1*, without the p1 >= Gamma check
    b1 = math.sqrt(1.0 - th) * t + math.sqrt(th * max(1.0 - t2, 0.0))
    return _alpha1(th, t2, 1.0), b1


@dataclass
class CaseCoefficients:
    """Inner-problem coefficients at a given p1.

    a scales user 1's decoding branch, b/c the parallel/orthogonal parts of
    user 2's own branch (all in the square-root SINR domain and including
    the sqrt(P-p1) factor).  d = b + c^2/b separates cases 2 and 3; it is
    +inf when b = 0 (theta = 0), where case 3 never applies.
    """

    a: float
    b: float
    c: float
    d: float = field(init=False)

    def __post_init__(self):
        self.d = self.b + self.c**2 / self.b if self.b > 0.0 else math.inf


def _coeffs(
    lam1: float, lam2: float, th: float, G: float, p1: float, p2: float
) -> tuple[float, float, float]:
    """Inner-problem coefficients (a, b, c) at powers (p1, p2): the design
    spends p2 = P - p1, the fixed-power design p1 = p2 = 1."""
    a1 = _alpha1(th, G, p1)
    root = math.sqrt(max(p2, 0.0))
    den = lam2 * p1 * a1 * a1 + 1.0
    a = root * math.sqrt(lam1 / (1.0 + G * lam1))
    b = root * math.sqrt(lam2 * th / den)
    c = root * math.sqrt(lam2 * (1.0 - th) / den)
    return a, b, c


def case_coeffs(p1: float, ch: TwoUserChannel, params: DerivedParams) -> CaseCoefficients:
    """Evaluate the inner-problem coefficients a, b, c (and d) at p1."""
    return CaseCoefficients(
        *_coeffs(params.lambda1, params.lambda2, params.theta, params.Gamma, p1, ch.P - p1)
    )


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


def classify_case(ch: TwoUserChannel, params: DerivedParams) -> OptRegion:
    """Predict which inner-problem case holds at the optimal p1.

    Case 2 wins iff theta*Gamma < tau, or tau >= 0 with enough total power:
    P >= Gamma + (sqrt(theta*Gamma)-sqrt(tau)) * (sqrt(theta*Gamma)
    + 1/(lambda2*sqrt(tau))) / (1-theta).  Degenerate limits: theta = 0
    gives tau = +inf (case 2); tau = 0 or theta = 1 push the power
    threshold to +inf (case 3).
    """
    th, G, lam2 = params.theta, params.Gamma, params.lambda2
    tau = params.tau
    tG = th * G
    if tG < tau:
        return OptRegion.OPT_IN_P2
    if tau < 0.0 or tau == 0.0 or th == 1.0:
        return OptRegion.OPT_IN_P3
    thr = G + (math.sqrt(tG) - math.sqrt(tau)) * (
        math.sqrt(tG) + 1.0 / (lam2 * math.sqrt(tau))
    ) / (1.0 - th)
    return OptRegion.OPT_IN_P2 if ch.P >= thr else OptRegion.OPT_IN_P3


def gamma2_of_p1(
    p1: float, ch: TwoUserChannel, params: DerivedParams
) -> tuple[float, CaseTag]:
    """Best achievable user-2 SINR at user-1 power p1, with its case tag."""
    th = params.theta
    abc = _coeffs(params.lambda1, params.lambda2, th, params.Gamma, p1, ch.P - p1)
    gamma2, tag, _ = select_case(*abc, th)
    return gamma2, tag


def _gamma2_vec(lam1, lam2, th, G, P):
    """select_case's gamma2 on arrays, as a function of p1: the array form
    of the rule, for the batched candidate search and the grid scans that
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


def _max_over_p1(f, G: float, P: float) -> tuple[float, float]:
    """argmax/max of f over p1 in [Gamma, P]: golden section over the whole
    interval, then the endpoint p1 = Gamma, which golden section approaches
    but never samples (the curve can fall off it like sqrt(p1 - Gamma), so a
    point within P1_XTOL of it can lose up to about 1e-5 of the value); the
    larger of the two is returned."""
    p1_opt, v_opt = golden_section_max(f, G, P, xtol=P1_XTOL)
    v_end = f(G)
    return (G, v_end) if v_end > v_opt else (p1_opt, v_opt)


def maximize_gamma2_over_p1(
    ch: TwoUserChannel, params: DerivedParams
) -> tuple[float, float]:
    """argmax/max of the user-2 SINR over p1 in [Gamma, P], by _max_over_p1.

    The searched curve is the pointwise-optimal SINR, so the returned value
    is always achievable.
    """
    return _max_over_p1(lambda p: gamma2_of_p1(p, ch, params)[0], params.Gamma, ch.P)


def maximize_gamma2_batch(
    lam1: float, lam2: np.ndarray, theta: np.ndarray, Gamma, P: float
) -> np.ndarray:
    """max of the user-2 SINR over p1 in [Gamma, P] for many instances that
    share lambda1 and P; lam2 and theta hold one entry per instance, and the
    normalized target Gamma is a scalar or one entry per instance (the
    scheduler stacks the candidates of several targets in one call).

    Row by row this is maximize_gamma2_over_p1's search on arrays: the same
    golden-section recurrence over [Gamma, P], run for that row's own step
    count, and the same endpoint.  The values agree with the scalar search
    to round-off.
    """
    ends = np.zeros(lam2.shape) + Gamma
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _gamma2_vec(lam1, lam2, theta, Gamma, P)
        _, best = vector_golden_section_max(f, ends, np.full(lam2.shape, float(P)), P1_XTOL)
        return np.maximum(best, f(ends))


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


def _direction_pair(x: np.ndarray, ref: np.ndarray, parallel_fallback: str):
    """Unit directions of x parallel and orthogonal to ref.

    Degenerate geometry: when the parallel component vanishes (orthogonal
    channels) the fallback is either the zero vector or the ref direction
    itself (needed for beam 2, which must leak energy onto the other
    user's channel on purpose); a vanishing orthogonal component (aligned
    channels) always degrades to the zero vector.
    """
    ref_unit = ref / np.linalg.norm(ref)
    par = ref_unit * np.vdot(ref_unit, x)
    perp = x - par
    npar = float(np.linalg.norm(par))
    nperp = float(np.linalg.norm(perp))
    nx = float(np.linalg.norm(x))
    if npar > DEGENERATE_DIR_TOL * nx:
        u_par = par / npar
    elif parallel_fallback == "ref":
        u_par = ref_unit
    else:
        u_par = np.zeros_like(x)
    u_perp = perp / nperp if nperp > DEGENERATE_DIR_TOL * nx else None
    return u_par, u_perp


def _build_solution(
    ch: TwoUserChannel,
    params: DerivedParams,
    p1: float,
    p2: float,
    gamma2: float,
    tag: CaseTag,
    alpha2: float,
) -> BeamSolution:
    a1, b1 = alpha1_beta1(p1, params)
    u_par1, u_perp1 = _direction_pair(ch.h1, ch.h2, parallel_fallback="zero")
    u_par2, u_perp2 = _direction_pair(ch.h2, ch.h1, parallel_fallback="ref")

    if u_perp1 is None:
        # aligned channels: pure power control along the common direction
        a1, b1 = (math.sqrt(min(params.Gamma / p1, 1.0)) if p1 > 0 else 0.0), 0.0
        w1 = a1 * u_par1
    else:
        w1 = a1 * u_par1 + b1 * u_perp1
    if u_perp2 is None:
        alpha2 = 1.0
        w2 = u_par2
    else:
        w2 = alpha2 * u_par2 + math.sqrt(max(1.0 - alpha2**2, 0.0)) * u_perp2

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
    """Full power-allocated Pareto-optimal design.

    The case-region prediction is recorded implicitly through the returned
    case tag; the numeric search runs on the pointwise-optimal SINR curve,
    which coincides with the predicted case's branch at the optimum.
    """
    p1_opt, _ = maximize_gamma2_over_p1(ch, params)
    th = params.theta
    abc = _coeffs(params.lambda1, params.lambda2, th, params.Gamma, p1_opt, ch.P - p1_opt)
    gamma2, tag, alpha2 = select_case(*abc, th)
    return _build_solution(ch, params, p1_opt, ch.P - p1_opt, gamma2, tag, alpha2)


def case3_closed_form_p1(ch: TwoUserChannel, params: DerivedParams) -> float:
    """Stationary point of the case-3 SINR branch, in closed form.

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
    th, G, lam2 = params.theta, params.Gamma, params.lambda2
    P = ch.P
    if th in (0.0, 1.0):
        raise ValueError("closed form undefined for theta in {0, 1}; use numeric search")
    psi1 = th * G + (1.0 - th) * (P - G) + 1.0 / lam2
    psi2 = th * G - (1.0 - th) * (P - G)
    # D = psi2^2 + 2*psi1/lam2 - 1/lam2^2, grouped to avoid cancellation
    D = psi2 * psi2 + (1.0 + 2.0 * (th * G + (1.0 - th) * (P - G)) * lam2) / (lam2 * lam2)
    x = 2.0 * math.sqrt(th * G) * (1.0 - th) * (P - G) / (psi1 + math.sqrt(D))
    p1 = G + x * x / (1.0 - th)
    return min(max(p1, G), P)


def maximize_branch_gamma2(ch: TwoUserChannel, params: DerivedParams) -> tuple[float, float]:
    """argmax/max over p1 in [Gamma, P] of the case-3 branch b^2 + c^2 (user
    2's own-SINR peak), by the same search as maximize_gamma2_over_p1.

    Used to cross-check case3_closed_form_p1; the branch formula is
    evaluated everywhere regardless of pointwise case membership.
    """
    lam1, lam2, th, G, P = params.lambda1, params.lambda2, params.theta, params.Gamma, ch.P

    def branch3(p1: float) -> float:
        _, b, c = _coeffs(lam1, lam2, th, G, p1, P - p1)
        return b * b + c * c

    return _max_over_p1(branch3, G, P)


def fixed_power_design(ch: TwoUserChannel, params: DerivedParams) -> BeamSolution:
    """Beam-only design at fixed unit powers p1 = p2 = 1.

    Requires Gamma <= 1 (unit power caps the reachable user-1 SINR at
    lambda1).  alpha2* follows select_case on the coefficients at unit
    powers.
    """
    th, G = params.theta, params.Gamma
    if G > 1.0 + 1e-12:
        raise InfeasibleTargetError(
            f"Gamma={G:.6g} > 1 is infeasible at fixed unit user-1 power"
        )
    abc = _coeffs(params.lambda1, params.lambda2, th, min(G, 1.0), 1.0, 1.0)
    gamma2, tag, alpha2 = select_case(*abc, th)
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
    lam1 = ch.lambda1
    rows = []
    for G in np.linspace(0.0, ch.P, n_points):
        params = derive_params(ch, float(G) * lam1)
        r2_power = math.log2(1.0 + optimize_p1(ch, params).gamma2_star)
        if params.Gamma <= 1.0:
            r2_fixed = math.log2(1.0 + fixed_power_design(ch, params).gamma2_star)
        else:
            r2_fixed = math.nan
        rows.append((math.log2(1.0 + params.gamma1_star), r2_fixed, r2_power))
    return rows


def achieved_user1_sinr(sol: BeamSolution, ch: TwoUserChannel) -> float:
    """User-1 SINR realized by the scaled beams (interference cancelled)."""
    return sol.s1 / ch.sigma1_sq


def achieved_gamma2(sol: BeamSolution, ch: TwoUserChannel) -> float:
    """User-2 SINR realized by the scaled beams."""
    return min(
        sol.r1 / (sol.s1 + ch.sigma1_sq),
        sol.s2 / (sol.r2 + ch.sigma2_sq),
    )
