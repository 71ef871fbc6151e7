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
array operations over the stacked weak pool (candidate_reductions), and the
parts that do not depend on the pairing state are computed once per
cluster.  Scoring is bound-and-prune.  Each candidate's weak SINR at the
endpoint p1 = Gamma is a value the p1 search never falls below, and a
closed-form bound (two_user_core.gamma2_bounds) caps it over all of
[Gamma, P]; a candidate whose cap lies below the best endpoint value cannot
win and is dropped.  Usually one candidate is left, which wins without a
search; the rest go through one row-wise golden section over p1 in
[Gamma, P] (maximize_gamma2_batch, the scalar search's recurrence on
arrays).  Several targets run in lockstep, cluster by cluster: each keeps
its own pairing state, and one search covers the candidates of all of
them, with Gamma given per row.  Only each target's winner goes through
the scalar design (estimate_ici, project_complement, derive_params,
optimize_p1), which builds its beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_linalg import (
    OrthonormalBasis,
    as_cvec,
    gram_schmidt,
    pow2_normalized,
    project_complement,
)
from .two_user_core import (
    BeamSolution,
    InfeasibleTargetError,
    TwoUserChannel,
    derive_params,
    gamma2_bounds,
    maximize_gamma2_batch,
    optimize_p1,
)

# residual-norm floor below which a candidate adds no usable direction
_RESIDUAL_TOL = 1e-12


@dataclass
class User:
    uid: int
    h: np.ndarray
    eps_sq: float

    def __post_init__(self):
        self.h = as_cvec(self.h)
        if self.eps_sq <= 0:
            raise ValueError("AWGN power must be positive")


@dataclass
class UserPool:
    strong: list[User]
    weak: list[User]

    def __post_init__(self):
        self._by_id = {u.uid: u for u in self.strong + self.weak}
        if len(self._by_id) != len(self.strong) + len(self.weak):
            raise ValueError("user ids must be unique across the pool")

    def by_id(self, uid: int) -> User:
        return self._by_id[uid]


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
    """One scheduled cluster: its pair, projected channels, and final beams.

    single_user marks clusters that fell back to serving only the strong
    user with a matched-filter beam (no eligible weak candidate left).
    """

    strong_id: int
    weak_id: int | None
    h1_eff: np.ndarray
    h2_eff: np.ndarray | None
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


def _vdot_rows(w: np.ndarray, H: np.ndarray) -> np.ndarray:
    """np.vdot(w, h) for every row h of H, written elementwise so that a
    row's value does not depend on the other rows."""
    return (w.conj() * H).sum(axis=1)


def sus_select(pool_channels, cfg: SUSConfig) -> list[int]:
    """Greedy semi-orthogonal user selection.

    Repeatedly picks the user whose channel has the largest component
    orthogonal to the span of the already-selected (orthogonalized)
    channels, then discards candidates whose normalized correlation to the
    new basis direction exceeds delta.  May return fewer than target_count
    users.  Ties break to the lowest index.  Each pick deflates the
    remaining candidates' residuals by the new direction only (the SUS of
    Yoo and Goldsmith, IEEE JSAC 2006).
    """
    H = np.asarray(list(pool_channels), dtype=np.complex128)  # ragged: ValueError
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
        keep = np.abs(_vdot_rows(g, H[cand])) <= cfg.delta * norms[cand]
        keep[j] = False
        cand, R = cand[keep], R[keep]  # R[keep] is a copy, so H stays intact
        R -= np.outer(_vdot_rows(g, R), g)
    return selected


def estimate_ici(
    weak_channel,
    eps_sq: float,
    designed_w1,
    designed_w2,
    pending_w_hat,
    P: float,
) -> float:
    """Interference-plus-noise estimate at a weak-user candidate.

    Designed clusters contribute through their power-scaled beams; pending
    clusters through their normalized projected strong channels at full
    cluster power P.
    """
    g = as_cvec(weak_channel)
    total = float(eps_sq)
    for w in list(designed_w1) + list(designed_w2):
        w = as_cvec(w)
        if w.size != g.size:
            raise ValueError("beam/channel dimension mismatch")
        total += abs(np.vdot(g, w)) ** 2
    for w in pending_w_hat:
        w = as_cvec(w)
        if w.size != g.size:
            raise ValueError("beam/channel dimension mismatch")
        total += P * abs(np.vdot(g, w)) ** 2
    return total


def candidate_reductions(
    H: np.ndarray,
    eps_sq: np.ndarray,
    h1: np.ndarray,
    sigma1_sq: float,
    basis: OrthonormalBasis,
    pending_w_hat: list[np.ndarray],
    P: float,
):
    """Scalar reductions of weak candidates H (rows) paired with strong
    channel h1 in one cluster, as a function reduce(rows, designed).

    The parts that do not depend on the pairing state are computed here,
    once per cluster, over every row of H: the channels projected off the
    basis, their squared norms, theta (on copies scaled by powers of two,
    as angle_theta scales, so that tiny channels do not underflow) and each
    pending cluster's term P*|<w, h>|^2.  reduce(rows, designed) then takes
    the unpaired rows of one target and that target's designed beams, and
    returns the mask of rows that keep the strong/weak ordering (the rows
    it drops are skipped), and lambda2 and theta of the rows it keeps.

    Per row this is what the scalar design computes: the estimate_ici
    estimate (noise, designed beams, then each pending cluster at full
    power P, summed in that order), the channel projected off the basis
    and its reductions.  A row's values do not depend on the other rows.
    The best weak SINR of a kept row is maximize_gamma2_batch of its
    reductions at the normalized target that derive_params gives, which
    agrees with optimize_p1's gamma2_star to round-off.
    """
    pending = [P * np.abs(_vdot_rows(w, H)) ** 2 for w in pending_w_hat]
    g_eff = H - sum(np.outer(_vdot_rows(b, H), b) for b in basis.vectors)
    g_norm_sq = (g_eff.real**2 + g_eff.imag**2).sum(axis=1)
    lam1 = float(np.vdot(h1, h1).real) / sigma1_sq
    h1_n, g_n = pow2_normalized(h1), pow2_normalized(g_eff)
    den = float(np.vdot(h1_n, h1_n).real) * (g_n.real**2 + g_n.imag**2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with g_eff = 0
        theta = np.clip(np.abs(_vdot_rows(h1_n, g_n)) ** 2 / den, 0.0, 1.0)

    def reduce(rows: np.ndarray, designed: list[np.ndarray]):
        Hr, gr = H[rows], g_norm_sq[rows]
        sig_hat = eps_sq[rows]  # a copy, summed in estimate_ici's order
        for w in designed:
            sig_hat += np.abs(_vdot_rows(w, Hr)) ** 2
        for term in pending:
            sig_hat += term[rows]
        ok = (gr > 0.0) & (gr / sig_hat <= lam1)
        return ok, gr[ok] / sig_hat[ok], theta[rows[ok]]

    return reduce


ZFSelection = tuple[list[User], list[OrthonormalBasis], list[np.ndarray]]


def zf_select(users: list[User], cfg: SUSConfig) -> ZFSelection:
    """The SUS+ZF step shared by the scheduler and the baseline.

    Selects users with sus_select and returns them in selection order with,
    for each, the orthonormal basis of the other selected channels and its
    own channel projected off that basis (its zero-forced channel).  It
    depends on the users alone, so a trial computes it once for its strong
    users and shares it.
    """
    if not users:
        raise ValueError("empty user pool")
    if cfg.target_count > users[0].h.size:
        raise ValueError("target_count must not exceed Nt")
    sel = [users[i] for i in sus_select([u.h for u in users], cfg)]
    if not sel:
        raise ValueError("selection returned no users")
    bases = [gram_schmidt([v.h for v in sel[:k] + sel[k + 1 :]]) for k in range(len(sel))]
    return sel, bases, [project_complement(u.h, b) for u, b in zip(sel, bases)]


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
    strong = zf_select(pool.strong, cfg), which the caller computes once and
    may share across calls.

    Candidates whose effective channel quality would invert the
    strong/weak ordering are skipped; a cluster with no eligible candidate
    is served single-user at full cluster power (flagged in its plan).

    The targets are scheduled in lockstep, cluster by cluster.  Each keeps
    its own unpaired rows, designed beams and plans, and so its own
    candidate reductions.  For each target, the rows whose gamma2_bounds
    upper bound lies strictly below the largest lower bound of that
    target's rows are dropped (score -inf): the search can only return a
    value at or above its row's lower bound, and at or below its upper
    bound.  A target left with one row pairs it without a search; the rows
    of targets left with two or more are stacked into one
    maximize_gamma2_batch call, with Gamma given per row.  Row by row that
    search is the single-target one, and a dropped row can neither be the
    maximum nor tie it, so the winner (ties to the lowest uid) and every
    output equal those of an unpruned pass at the target alone.  Every
    target is checked before any is scheduled.
    """
    sel_users, bases, h_eff = strong
    Kc = len(sel_users)
    if len(pool.weak) < Kc:
        raise ValueError(f"weak pool ({len(pool.weak)}) smaller than Kc ({Kc})")
    P = P_T / Kc
    for Gamma in gammas:
        if Gamma < 0 or Gamma > P * (1.0 + 1e-12):
            raise InfeasibleTargetError(
                f"Gamma={Gamma:.6g} outside [0, P_T/Kc={P:.6g}]"
            )
    if not gammas:
        return []
    w_hat = [he / np.linalg.norm(he) for he in h_eff]

    weak = sorted(pool.weak, key=lambda u: u.uid)
    H = np.array([u.h for u in weak])
    eps = np.array([u.eps_sq for u in weak])
    # per target: rows of H not yet paired (in uid order), designed beams, plans
    left = [np.arange(len(weak))] * len(gammas)
    W1: list[list[np.ndarray]] = [[] for _ in gammas]
    W2: list[list[np.ndarray]] = [[] for _ in gammas]
    plans: list[list[ClusterPlan]] = [[] for _ in gammas]
    for k in range(Kc):
        pending = w_hat[k + 1 :]
        eps1 = sel_users[k].eps_sq  # zero-forced: strong user sees AWGN only
        lam1 = float(np.vdot(h_eff[k], h_eff[k]).real) / eps1
        reduce = candidate_reductions(H, eps, h_eff[k], eps1, bases[k], pending, P)
        oks, lam2s, thetas = zip(*(reduce(r, w1 + w2) for r, w1, w2 in zip(left, W1, W2)))
        counts = [len(lam2) for lam2 in lam2s]
        ends = np.cumsum(counts)
        lam2, theta = np.concatenate(lam2s), np.concatenate(thetas)
        G = np.repeat([min(g * lam1 / lam1, P) for g in gammas], counts)
        # prune: a row whose upper bound lies below its target's best
        # endpoint value cannot win, and a target left with one row has won
        lower, upper = gamma2_bounds(lam1, lam2, theta, G, P)
        best = np.full(len(lam2), -np.inf)
        search = []
        for lo, hi in zip(ends - counts, ends):
            keep = lo + np.flatnonzero(~(upper[lo:hi] < lower[lo:hi].max(initial=-np.inf)))
            if len(keep) == 1:
                best[keep] = lower[keep]
            elif len(keep):
                search.append(keep)
        if search:
            rows = np.concatenate(search)
            best[rows] = maximize_gamma2_batch(lam1, lam2[rows], theta[rows], G[rows], P)
        parts = np.split(best, ends[:-1])
        for t, (Gamma, ok, part) in enumerate(zip(gammas, oks, parts)):
            scores = np.full(len(ok), -np.inf)
            scores[ok] = part
            j = int(np.argmax(scores))  # the first maximum: ties go to the lowest uid
            if scores[j] == -np.inf:  # every candidate would invert the ordering
                weak_id = g_eff = sig_hat = sol = None
                w1 = math.sqrt(P) * w_hat[k]
                w2 = np.zeros_like(w1)
            else:
                u = weak[left[t][j]]
                left[t] = np.delete(left[t], j)
                weak_id = u.uid
                sig_hat = estimate_ici(u.h, u.eps_sq, W1[t], W2[t], pending, P)
                g_eff = project_complement(u.h, bases[k])
                ch = TwoUserChannel(h_eff[k], g_eff, eps1, sig_hat, P)
                sol = optimize_p1(ch, derive_params(ch, Gamma * lam1))
                w1, w2 = sol.w1_scaled, sol.w2_scaled
            plans[t].append(
                ClusterPlan(
                    strong_id=sel_users[k].uid,
                    weak_id=weak_id,
                    h1_eff=h_eff[k],
                    h2_eff=g_eff,
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
        rates = dict(realized_rates(out, pool))
        out.realized_rates = [
            (rates[plan.strong_id], rates.get(plan.weak_id, 0.0)) for plan in target_plans
        ]
        outs.append(out)
    return outs


def realized_rates(output: SchedulerOutput, pool: UserPool) -> list[tuple[int, float]]:
    """Per-user rates recomputed from actual channels and all final beams.

    Strong users: own signal over residual interference plus noise (the
    in-cluster weak-user signal is cancelled).  Weak users: the minimum of
    the strong user's decoding SINR for the weak message and the weak
    user's own SINR, both with the realized interference.
    """
    out: list[tuple[int, float]] = []
    for k, plan in enumerate(output.clusters):
        others = [
            w
            for kk, p in enumerate(output.clusters)
            if kk != k
            for w in (p.w1_tilde, p.w2_tilde)
        ]
        hs = pool.by_id(plan.strong_id)
        ici1 = sum(abs(np.vdot(hs.h, w)) ** 2 for w in others)
        s1 = abs(np.vdot(hs.h, plan.w1_tilde)) ** 2
        sig1 = ici1 + hs.eps_sq
        out.append((plan.strong_id, math.log2(1.0 + s1 / sig1)))
        if plan.weak_id is None:
            continue
        uw = pool.by_id(plan.weak_id)
        ici2 = sum(abs(np.vdot(uw.h, w)) ** 2 for w in others)
        r1 = abs(np.vdot(hs.h, plan.w2_tilde)) ** 2
        s2 = abs(np.vdot(uw.h, plan.w2_tilde)) ** 2
        r2 = abs(np.vdot(uw.h, plan.w1_tilde)) ** 2
        sinr2 = min(r1 / (s1 + sig1), s2 / (r2 + ici2 + uw.eps_sq))
        out.append((plan.weak_id, math.log2(1.0 + sinr2)))
    return out


def baseline_sus_zf(
    pool: UserPool, strong: ZFSelection, P_T: float, cfg: SUSConfig
) -> tuple[float, float, float]:
    """Conventional reference: two scheduling intervals with ZF beams.

    Each interval serves one pool's zf_select result: each selected user's
    beam is its zero-forced channel, normalized, at equal power P_T/Kc.  The
    strong interval serves strong = zf_select(pool.strong, cfg), shared with
    the NOMA schedule; only the weak pool is selected here.  Returns the two
    interval sum rates and their average (each group is served half the
    time).
    """

    def interval(selection: ZFSelection) -> float:
        sel, _, h_zf = selection
        p = P_T / len(sel)
        total = 0.0
        for u, w in zip(sel, h_zf):
            w_norm = float(np.linalg.norm(w))
            if w_norm == 0.0:
                continue
            gain = abs(np.vdot(u.h, w / w_norm)) ** 2
            total += math.log2(1.0 + p * gain / u.eps_sq)
        return total

    s_strong = interval(strong)
    s_weak = interval(zf_select(pool.weak, cfg))
    return s_strong, s_weak, 0.5 * (s_strong + s_weak)
