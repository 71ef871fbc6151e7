"""Multi-cluster downlink scheduling: semi-orthogonal strong-user selection,
zero-forcing across clusters, interference-aware weak-user pairing with the
Pareto-optimal per-cluster design, and realized-rate evaluation.

Strong users are picked greedily for near-orthogonal channels (zf_select,
the SUS+ZF step that the ZF baseline shares); every cluster's beams are
then designed in the orthogonal complement of the other clusters' strong
channels, so strong users see no inter-cluster interference by
construction.  The selection depends on the strong pool alone, so a trial
computes it once and passes the same result to the scheduler, at every
target Gamma, and to the baseline's strong interval.  Weak users do
experience inter-cluster interference; candidates are scored with an
interference estimate that uses already-designed beams for earlier
clusters and normalized projected strong channels at full cluster power as
stand-ins for clusters not designed yet.

schedule_targets is the one scheduling pass; schedule is that pass at one
target.  All weak candidates left for a cluster are scored in one batch:
their interference estimates, projected channels and scalar reductions are
array operations over the pool's weak rows (candidate_reductions), and the
parts that do not depend on the pairing state are computed once per
cluster.  Scoring is bound-and-prune.  Each candidate's weak SINR at the
endpoint p1 = Gamma is a value its score never falls below, and a
closed-form bound (two_user_core.gamma2_bounds) caps it over all of
[Gamma, P]; a candidate whose cap lies below the best endpoint value cannot
win and is dropped.  Usually one candidate is left, which wins outright;
the rest are scored by region in one maximize_gamma2_batch call.
The paper's region rule (two_user_core._region_vec) predicts each row's
case at the optimum: a row predicted case 3 takes the SINR at its
closed-form p1 (the case-3 stationary point, p1 = Gamma at theta = 1);
only rows predicted case 2 (theta = 0 always is) and rows whose closed
form is not finite are solved numerically, all of them together by the
batch's root-find in s = sqrt(p1 - Gamma).  Several
targets run in lockstep, cluster by cluster: each keeps its own pairing
state, and one call scores the candidates of all of them, with Gamma given
per row.
Each winner is designed from the projected channel and ICI estimate of
the row it was scored on; derive_params and optimize_p1, which takes p1 by
the same region rule, build its beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .complex_linalg import (
    as_cvec,
    as_rows,
    gram_schmidt,
    pow2_normalized,
    project_complement,
    vdot_rows,
)
from .two_user_core import (
    BeamSolution,
    TwoUserChannel,
    check_positive,
    check_target,
    derive_params,
    gamma2_bounds,
    log2_1p,
    maximize_gamma2_batch,
    optimize_p1,
)

# residual-norm floor below which a candidate adds no usable direction
_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class User:
    """One user: id, channel and AWGN power.

    Pools hold users as rows of a UserGroup; a User is the input of
    UserPool.from_users, or a read-only view of one pool row.
    """

    uid: int
    h: np.ndarray
    eps_sq: float

    def __post_init__(self):
        object.__setattr__(self, "h", as_cvec(self.h))
        check_positive(eps_sq=self.eps_sq)


@dataclass(frozen=True, eq=False)
class UserGroup:
    """Users as rows: ids uid (n,), channels H (n, Nt), AWGN powers eps_sq (n,).

    Validated once, on read-only copies: a ragged or non-2-D channel stack,
    a non-finite channel entry and a noise power that is not positive and
    finite raise ValueError.
    """

    uid: np.ndarray
    H: np.ndarray
    eps_sq: np.ndarray

    def __post_init__(self):
        uid = np.array(self.uid, dtype=np.int64)
        H = np.array(self.H, dtype=np.complex128)  # a ragged stack raises ValueError
        eps = np.array(self.eps_sq, dtype=np.float64)
        if H.ndim != 2 or H.shape[1] == 0 or uid.shape != (len(H),) or eps.shape != uid.shape:
            raise ValueError("expected n ids, an (n, Nt) channel matrix (Nt >= 1), n noise powers")
        if not np.isfinite(H).all():
            raise ValueError("channel entries must be finite")
        if not ((eps > 0.0) & np.isfinite(eps)).all():
            raise ValueError("AWGN power must be positive and finite")
        for name, value in (("uid", uid), ("H", H), ("eps_sq", eps)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def users(self) -> tuple[User, ...]:
        """Each row as a User (a read-only view)."""
        return tuple(map(User, self.uid.tolist(), self.H, self.eps_sq.tolist()))


@dataclass(frozen=True, eq=False)
class UserPool:
    """The strong and the weak users, each group as rows.

    The weak rows are held in uid order, the order in which the scheduler
    scores them and breaks ties; the strong rows keep their given order.
    User ids must be unique across the pool.  strong and weak are read-only
    User views, built on first access; row(uid) looks one user up.
    """

    strong_rows: UserGroup
    weak_rows: UserGroup

    def __post_init__(self):
        if self.strong_rows.H.shape[1] != self.weak_rows.H.shape[1]:
            raise ValueError("strong and weak channels must have the same length")
        weak = self.weak_rows
        if (np.diff(weak.uid) < 0).any():
            order = np.argsort(weak.uid)
            weak = UserGroup(weak.uid[order], weak.H[order], weak.eps_sq[order])
            object.__setattr__(self, "weak_rows", weak)
        rows = {
            uid: (group, i)
            for group in (self.strong_rows, weak)
            for i, uid in enumerate(group.uid.tolist())
        }
        if len(rows) != len(self.strong_rows.uid) + len(weak.uid):
            raise ValueError("user ids must be unique across the pool")
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def from_users(cls, strong, weak) -> "UserPool":
        """The pool of two lists of User, converted to rows."""

        def rows(users) -> UserGroup:
            return UserGroup([u.uid for u in users], [u.h for u in users], [u.eps_sq for u in users])

        return cls(rows(strong), rows(weak))

    def row(self, uid: int) -> tuple[np.ndarray, float]:
        """Channel (a read-only row) and noise power of user uid."""
        group, i = self._rows[uid]
        return group.H[i], float(group.eps_sq[i])

    @cached_property
    def strong(self) -> tuple[User, ...]:
        return self.strong_rows.users()

    @cached_property
    def weak(self) -> tuple[User, ...]:
        return self.weak_rows.users()


@dataclass
class SUSConfig:
    target_count: int
    delta: float = 0.3  # semi-orthogonality parameter in (0, 1]

    def __post_init__(self):
        if self.target_count < 1:
            raise ValueError("target_count must be at least 1")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


@dataclass
class ClusterPlan:
    """One scheduled cluster: its pair, zero-forced h1_eff and final beams.

    single_user marks clusters that fell back to serving only the strong
    user with a matched-filter beam (no eligible weak candidate left).
    """

    strong_id: int
    weak_id: int | None
    h1_eff: np.ndarray
    sigma1_sq: float
    sigma_hat_u_sq: float | None
    solution: BeamSolution | None
    w1_tilde: np.ndarray
    w2_tilde: np.ndarray
    single_user: bool = False


@dataclass
class SchedulerOutput:
    clusters: list[ClusterPlan]
    Kc: int
    P: float  # per-cluster power P_T / Kc
    realized_rates: list[tuple[float, float]] = field(default_factory=list)


def sus_select(pool_channels, cfg: SUSConfig) -> list[int]:
    """Greedy semi-orthogonal user selection over the rows of pool_channels
    (an (n, Nt) matrix or a sequence of n vectors of one length).

    Repeatedly picks the user whose channel has the largest component
    orthogonal to the span of the already-selected (orthogonalized)
    channels, then discards candidates whose normalized correlation to the
    new basis direction exceeds delta.  May return fewer than target_count
    users.  Ties break to the lowest index.  Each pick deflates the
    remaining candidates' residuals by the new direction only (the SUS of
    Yoo and Goldsmith, IEEE JSAC 2006).
    """
    H = np.asarray(pool_channels, dtype=np.complex128)  # ragged: ValueError
    if H.ndim != 2 or H.size == 0 or not np.all(np.isfinite(H)):
        raise ValueError("expected a nonempty stack of finite 1-D vectors")
    norms = np.linalg.norm(H, axis=1)
    tol = _RESIDUAL_TOL * float(norms.max())
    selected: list[int] = []
    cand, R = np.arange(len(H)), H  # candidates in index order and their residuals
    while cand.size and len(selected) < cfg.target_count:
        res = np.linalg.norm(R, axis=1)
        j = int(np.argmax(res))  # the first maximum: ties go to the lowest index
        if res[j] <= tol:
            break  # remaining candidates lie in the selected span
        g = R[j] / res[j]
        selected.append(int(cand[j]))
        keep = np.abs(vdot_rows(g, H[cand])) <= cfg.delta * norms[cand]
        keep[j] = False
        cand, R = cand[keep], R[keep]  # R[keep] is a copy, so H stays intact
        R -= np.outer(vdot_rows(g, R), g)
    return selected


def estimate_ici(H, eps_sq, beams, pending_w_hat, P: float):
    """Interference-plus-noise estimate at a weak channel H (a float) or at
    each row of an (n, Nt) stack H (an (n,) array), summed in this order:
    the noise eps_sq, each designed beam, then each pending cluster's
    normalized projected strong channel at full cluster power P.  A vector
    is a one-row stack, so a row's estimate is bitwise the same alone, as a
    vector or in any stack; a beam of another length raises ValueError."""
    G = as_rows(H)
    total = np.array(eps_sq, dtype=np.float64).reshape(len(G))  # a copy, one per row
    for scale, ws in ((1.0, beams), (P, pending_w_hat)):
        for w in ws:
            w = np.asarray(w, dtype=np.complex128)
            if w.shape != G.shape[1:]:
                raise ValueError("beam/channel dimension mismatch")
            total += scale * np.abs(vdot_rows(w, G)) ** 2
    return float(total[0]) if np.ndim(H) == 1 else total


def candidate_reductions(
    H: np.ndarray,
    eps_sq: np.ndarray,
    h1: np.ndarray,
    lam1: float,
    basis: np.ndarray,
    pending_w_hat: list[np.ndarray],
    P: float,
):
    """Scalar reductions of weak candidates H (rows) paired with strong
    channel h1, of quality lam1, in one cluster: (g_eff, reduce).

    The parts that do not depend on the pairing state are computed here,
    once per cluster, over every row of H: g_eff, the rows projected off the
    basis, their squared norms and theta (on copies scaled by powers of
    two, as angle_theta scales, so that tiny channels do not underflow).
    reduce(rows, designed) then takes the unpaired rows of one target and
    that target's designed beams, and returns the mask of rows that keep
    the strong/weak ordering (the rows it drops are skipped), lambda2 and
    theta of the rows it keeps, and sig_hat, the estimate_ici of every row.

    A row's values do not depend on the other rows.  The winner is designed
    from its row of g_eff and its sig_hat; the best weak SINR of a kept row
    is maximize_gamma2_batch of its reductions at the normalized target
    that derive_params gives, which agrees with optimize_p1's gamma2_star
    to round-off.
    """
    g_eff = project_complement(H, basis)
    g_norm_sq = (g_eff.real**2 + g_eff.imag**2).sum(axis=1)
    h1_n, g_n = pow2_normalized(h1), pow2_normalized(g_eff)
    den = float(np.vdot(h1_n, h1_n).real) * (g_n.real**2 + g_n.imag**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with g_eff = 0
        theta = np.clip(np.abs(vdot_rows(h1_n, g_n)) ** 2 / den, 0.0, 1.0)

    def reduce(rows: np.ndarray, designed: list[np.ndarray]):
        gr = g_norm_sq[rows]
        sig_hat = estimate_ici(H[rows], eps_sq[rows], designed, pending_w_hat, P)
        ok = (gr > 0.0) & (gr / sig_hat <= lam1)
        return ok, gr[ok] / sig_hat[ok], theta[rows[ok]], sig_hat

    return g_eff, reduce


@dataclass(frozen=True, eq=False)
class ZFSelection:
    """zf_select's result: the selected rows of one group, in selection
    order (ids, noise powers, channels), with each row's orthonormal basis
    of the other selected channels (gram_schmidt's (r, Nt) matrix with
    orthonormal rows; r = 0 when one row is selected) and its channel
    projected off that basis (its zero-forced channel, a row of H_zf)."""

    uid: np.ndarray
    eps_sq: np.ndarray
    H: np.ndarray
    bases: list[np.ndarray]
    H_zf: np.ndarray

    def __len__(self) -> int:
        return len(self.uid)


def zf_select(group: UserGroup, cfg: SUSConfig) -> ZFSelection:
    """The SUS+ZF step shared by the scheduler and the baseline.

    Selects rows of one group with sus_select and returns them in selection
    order with their bases (matrices with orthonormal rows) and zero-forced
    channels.  It depends on the group alone, so a trial computes it once
    for its strong rows and shares it.
    """
    if cfg.target_count > group.H.shape[1]:
        raise ValueError("target_count must not exceed Nt")
    sel = sus_select(group.H, cfg)
    if not sel:
        raise ValueError("selection returned no users")
    H = group.H[sel]
    bases = [gram_schmidt(np.delete(H, k, axis=0)) for k in range(len(sel))]
    H_zf = np.array([project_complement(h, b) for h, b in zip(H, bases)])
    return ZFSelection(group.uid[sel], group.eps_sq[sel], H, bases, H_zf)


def schedule(
    pool: UserPool, strong: ZFSelection, P_T: float, Gamma: float
) -> SchedulerOutput:
    """Full scheduling pass at one target: schedule_targets(pool, strong,
    P_T, [Gamma])[0]."""
    return schedule_targets(pool, strong, P_T, [Gamma])[0]


def schedule_targets(
    pool: UserPool, strong: ZFSelection, P_T: float, gammas: list[float]
) -> list[SchedulerOutput]:
    """Full scheduling passes, one per target Gamma in gammas: weak pairing
    and beams for the strong users selected and zero-forced by
    strong = zf_select(pool.strong_rows, cfg), which the caller computes
    once and may share across calls.  Weak candidates are the rows of
    pool.weak_rows, in uid order.

    Candidates whose effective channel quality would invert the
    strong/weak ordering are skipped; a cluster with no eligible candidate
    is served single-user at full cluster power (flagged in its plan).

    The targets are scheduled in lockstep, cluster by cluster.  Each keeps
    its own unpaired rows, designed beams and plans, and so its own
    candidate reductions.  For each target, the rows whose gamma2_bounds
    upper bound lies strictly below the largest lower bound of that
    target's rows are dropped (score -inf): scoring can only return a
    value at or above its row's lower bound, and at or below its upper
    bound.  A target left with one row pairs it without scoring; the rows
    of targets left with two or more are stacked into one
    maximize_gamma2_batch call, with Gamma given per row.  Row by row that
    call scores as a single-target one, and a dropped row can neither be the
    maximum nor tie it, so the winner (ties to the lowest uid) and every
    output equal those of an unpruned pass at the target alone.  Every
    target is checked before any is scheduled.
    """
    bases, h_eff = strong.bases, strong.H_zf
    Kc = len(strong)
    uid, H, eps = pool.weak_rows.uid, pool.weak_rows.H, pool.weak_rows.eps_sq
    if len(uid) < Kc:
        raise ValueError(f"weak pool ({len(uid)}) smaller than Kc ({Kc})")
    P = P_T / Kc
    for Gamma in gammas:
        check_target(Gamma, P)
    if not gammas:
        return []
    w_hat = [he / np.linalg.norm(he) for he in h_eff]

    # per target: rows of H not yet paired (in uid order), designed beams, plans
    left = [np.arange(len(uid))] * len(gammas)
    W1: list[list[np.ndarray]] = [[] for _ in gammas]
    W2: list[list[np.ndarray]] = [[] for _ in gammas]
    plans: list[list[ClusterPlan]] = [[] for _ in gammas]
    for k in range(Kc):
        pending = w_hat[k + 1 :]
        eps1 = float(strong.eps_sq[k])  # zero-forced: strong user sees AWGN only
        lam1 = float(np.vdot(h_eff[k], h_eff[k]).real) / eps1
        g_eff, reduce = candidate_reductions(H, eps, h_eff[k], lam1, bases[k], pending, P)
        reductions = [reduce(r, w1 + w2) for r, w1, w2 in zip(left, W1, W2)]
        oks, lam2s, thetas, sig_hats = zip(*reductions)
        counts = [len(lam2) for lam2 in lam2s]
        ends = np.cumsum(counts)
        lam2, theta = np.concatenate(lam2s), np.concatenate(thetas)
        # the normalized target that derive_params gives each target's winner
        G = np.repeat([check_target(g * lam1 / lam1, P) for g in gammas], counts)
        # prune: a row whose upper bound lies below its target's best
        # endpoint value cannot win, and a target left with one row has won
        lower, upper = gamma2_bounds(lam1, lam2, theta, G, P)
        best = np.full(len(lam2), -np.inf)
        scored = []
        for lo, hi in zip(ends - counts, ends):
            keep = lo + np.flatnonzero(~(upper[lo:hi] < lower[lo:hi].max(initial=-np.inf)))
            if len(keep) == 1:
                best[keep] = lower[keep]
            elif len(keep):
                scored.append(keep)
        if scored:
            rows = np.concatenate(scored)
            best[rows] = maximize_gamma2_batch(lam1, lam2[rows], theta[rows], G[rows], P)
        parts = np.split(best, ends[:-1])
        for t, (Gamma, ok, part) in enumerate(zip(gammas, oks, parts)):
            scores = np.full(len(ok), -np.inf)
            scores[ok] = part
            j = int(np.argmax(scores))  # the first maximum: ties go to the lowest uid
            if scores[j] == -np.inf:  # every candidate would invert the ordering
                weak_id = sig_hat = sol = None
                w1 = math.sqrt(P) * w_hat[k]
                w2 = np.zeros_like(w1)
            else:
                r = left[t][j]
                left[t] = np.delete(left[t], j)
                weak_id = int(uid[r])
                sig_hat = float(sig_hats[t][j])  # the winner's row, as scored
                ch = TwoUserChannel(h_eff[k], g_eff[r], eps1, sig_hat, P)
                sol = optimize_p1(ch, derive_params(ch, Gamma * lam1))
                w1, w2 = sol.w1_scaled, sol.w2_scaled
            plans[t].append(
                ClusterPlan(
                    strong_id=int(strong.uid[k]),
                    weak_id=weak_id,
                    h1_eff=h_eff[k],
                    sigma1_sq=eps1,
                    sigma_hat_u_sq=sig_hat,
                    solution=sol,
                    w1_tilde=w1,
                    w2_tilde=w2,
                    single_user=weak_id is None,
                )
            )
            W1[t].append(w1)
            W2[t].append(w2)

    outs = []
    for target_plans in plans:
        out = SchedulerOutput(clusters=target_plans, Kc=Kc, P=P)
        out.realized_rates = realized_rates(out, pool)
        outs.append(out)
    return outs


def realized_rates(output: SchedulerOutput, pool: UserPool) -> list[tuple[float, float]]:
    """Per-cluster (strong rate, weak rate), recomputed from actual channels
    and all final beams; the weak rate of a single-user cluster is 0.0.

    Strong users: own signal over residual interference plus noise (the
    in-cluster weak-user signal is cancelled).  Weak users: the minimum of
    the strong user's decoding SINR for the weak message and the weak
    user's own SINR, both with the realized interference.
    """
    out: list[tuple[float, float]] = []
    for k, plan in enumerate(output.clusters):
        others = [
            w
            for kk, p in enumerate(output.clusters)
            if kk != k
            for w in (p.w1_tilde, p.w2_tilde)
        ]
        h1, eps1 = pool.row(plan.strong_id)
        ici1 = sum(abs(np.vdot(h1, w)) ** 2 for w in others)
        s1 = abs(np.vdot(h1, plan.w1_tilde)) ** 2
        sig1 = ici1 + eps1
        rate1 = log2_1p(s1 / sig1)
        if plan.weak_id is None:
            out.append((rate1, 0.0))
            continue
        h2, eps2 = pool.row(plan.weak_id)
        ici2 = sum(abs(np.vdot(h2, w)) ** 2 for w in others)
        r1 = abs(np.vdot(h1, plan.w2_tilde)) ** 2
        s2 = abs(np.vdot(h2, plan.w2_tilde)) ** 2
        r2 = abs(np.vdot(h2, plan.w1_tilde)) ** 2
        sinr2 = min(r1 / (s1 + sig1), s2 / (r2 + ici2 + eps2))
        out.append((rate1, log2_1p(sinr2)))
    return out


def baseline_sus_zf(
    pool: UserPool, strong: ZFSelection, P_T: float, cfg: SUSConfig
) -> tuple[float, float, float]:
    """Conventional reference: two scheduling intervals with ZF beams.

    Each interval serves one group's zf_select result: each selected user's
    beam is its zero-forced channel, normalized, at equal power P_T/Kc.  The
    strong interval serves strong = zf_select(pool.strong_rows, cfg), shared
    with the NOMA schedule; only the weak rows are selected here.  Returns
    the two interval sum rates and their average (each group is served half
    the time).
    """

    def interval(selection: ZFSelection) -> float:
        # |<h, w/|w|>|^2 = |w|^2, as w = H_zf's row is h's own projection
        p, w = P_T / len(selection), selection.H_zf
        gains = (w.real**2 + w.imag**2).sum(axis=1).tolist()
        return sum(log2_1p(p * g / eps) for g, eps in zip(gains, selection.eps_sq.tolist()))

    s_strong = interval(strong)
    s_weak = interval(zf_select(pool.weak_rows, cfg))
    return s_strong, s_weak, 0.5 * (s_strong + s_weak)
