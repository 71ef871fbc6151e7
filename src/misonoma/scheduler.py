"""Multi-cluster downlink scheduling: semi-orthogonal strong-user selection,
zero-forcing across clusters, interference-aware weak-user pairing with the
Pareto-optimal per-cluster design, and realized-rate evaluation.

Strong users are picked greedily for near-orthogonal channels (zf_select,
the SUS+ZF step that the ZF baseline shares); every cluster's beams are
then designed in the orthogonal complement of the other clusters' strong
channels, so strong users see no inter-cluster interference by
construction.  The selection depends on the strong pool alone, so a trial
computes it once and passes the same result to schedule, at every target
Gamma, and to the baseline's strong interval.  Weak users do experience
inter-cluster interference; candidates are
scored with an interference estimate that uses already-designed beams for
earlier clusters and normalized projected strong channels at full cluster
power as stand-ins for clusters not designed yet.

All weak candidates left for a cluster are scored in one batch
(score_candidates): their interference estimates, projected channels and
scalar reductions are array operations over the stacked weak pool, and
their best weak SINRs come from one row-wise golden section over p1 in
[Gamma, P] (maximize_gamma2_batch, the scalar search's recurrence on
arrays).  Only the winner goes through the scalar design
(estimate_ici, project_complement, derive_params, optimize_p1), which
builds its beams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .complex_linalg import OrthonormalBasis, as_cvec, gram_schmidt, project_complement
from .two_user_core import (
    BeamSolution,
    InfeasibleTargetError,
    TwoUserChannel,
    derive_params,
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


def score_candidates(
    H: np.ndarray,
    eps_sq: np.ndarray,
    h1: np.ndarray,
    sigma1_sq: float,
    basis: OrthonormalBasis,
    designed: list[np.ndarray],
    pending_w_hat: list[np.ndarray],
    P: float,
    Gamma: float,
) -> np.ndarray:
    """Best weak SINR of every candidate row of H paired with strong channel
    h1 in this cluster; -inf marks candidates that would invert the ordering.

    Per row this is what the scalar design computes: the estimate_ici
    estimate (designed beams, plus pending clusters at full power P), the
    channel projected off the basis, the reductions lambda2 and theta, and
    the maximum over p1 of the user-2 SINR at the normalized target that
    derive_params gives.  Values agree with optimize_p1's gamma2_star to
    round-off.
    """
    sig_hat = eps_sq.copy()  # summed in estimate_ici's order
    for w in designed:
        sig_hat += np.abs(_vdot_rows(w, H)) ** 2
    for w in pending_w_hat:
        sig_hat += P * np.abs(_vdot_rows(w, H)) ** 2
    g_eff = H - sum(np.outer(_vdot_rows(b, H), b) for b in basis.vectors)
    g_norm_sq = (g_eff.real**2 + g_eff.imag**2).sum(axis=1)
    n1 = float(np.vdot(h1, h1).real)
    lam1 = n1 / sigma1_sq
    ok = (g_norm_sq > 0.0) & (g_norm_sq / sig_hat <= lam1)
    theta = np.abs(_vdot_rows(h1, g_eff[ok])) ** 2 / (n1 * g_norm_sq[ok])
    scores = np.full(len(H), -np.inf)
    scores[ok] = maximize_gamma2_batch(
        lam1,
        g_norm_sq[ok] / sig_hat[ok],
        np.clip(theta, 0.0, 1.0),
        min(Gamma * lam1 / lam1, P),
        P,
    )
    return scores


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
    """Full scheduling pass: weak pairing and beams for the strong users
    selected and zero-forced by strong = zf_select(pool.strong, cfg), which
    the caller computes once and may share across targets.

    Candidates whose effective channel quality would invert the
    strong/weak ordering are skipped; a cluster with no eligible candidate
    is served single-user at full cluster power (flagged in its plan).
    """
    sel_users, bases, h_eff = strong
    Kc = len(sel_users)
    if len(pool.weak) < Kc:
        raise ValueError(f"weak pool ({len(pool.weak)}) smaller than Kc ({Kc})")
    P = P_T / Kc
    if Gamma < 0 or Gamma > P * (1.0 + 1e-12):
        raise InfeasibleTargetError(
            f"Gamma={Gamma:.6g} outside [0, P_T/Kc={P:.6g}]"
        )
    w_hat = [he / np.linalg.norm(he) for he in h_eff]

    weak = sorted(pool.weak, key=lambda u: u.uid)
    H = np.array([u.h for u in weak])
    eps = np.array([u.eps_sq for u in weak])
    left = np.arange(len(weak))  # rows of H not yet paired, in uid order
    W1: list[np.ndarray] = []
    W2: list[np.ndarray] = []
    plans: list[ClusterPlan] = []
    for k in range(Kc):
        pending = w_hat[k + 1 :]
        eps1 = sel_users[k].eps_sq  # zero-forced: strong user sees AWGN only
        lam1 = float(np.vdot(h_eff[k], h_eff[k]).real) / eps1
        scores = score_candidates(
            H[left], eps[left], h_eff[k], eps1, bases[k], W1 + W2, pending, P, Gamma
        )
        j = int(np.argmax(scores))  # the first maximum: ties go to the lowest uid
        if scores[j] == -np.inf:  # every candidate would invert the ordering
            weak_id = g_eff = sig_hat = sol = None
            w1 = math.sqrt(P) * w_hat[k]
            w2 = np.zeros_like(w1)
        else:
            u = weak[left[j]]
            left = np.delete(left, j)
            weak_id = u.uid
            sig_hat = estimate_ici(u.h, u.eps_sq, W1, W2, pending, P)
            g_eff = project_complement(u.h, bases[k])
            ch = TwoUserChannel(h_eff[k], g_eff, eps1, sig_hat, P)
            sol = optimize_p1(ch, derive_params(ch, Gamma * lam1))
            w1, w2 = sol.w1_scaled, sol.w2_scaled
        plans.append(
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
        W1.append(w1)
        W2.append(w2)

    out = SchedulerOutput(clusters=plans, Kc=Kc, P=P)
    rates = dict(realized_rates(out, pool))
    out.realized_rates = [
        (rates[plan.strong_id], rates.get(plan.weak_id, 0.0)) for plan in plans
    ]
    return out


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
