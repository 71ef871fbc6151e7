import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misonoma.complex_linalg import as_cvec, gram_schmidt, project_complement
from misonoma.scheduler import (
    ClusterPlan,
    SchedulerOutput,
    SUSConfig,
    User,
    UserGroup,
    UserPool,
    baseline_sus_zf,
    candidate_reductions,
    estimate_ici,
    realized_rates,
    schedule,
    schedule_targets,
    sus_select,
    zf_select,
)
from misonoma.simulation import SimConfig, generate_channels
from misonoma.two_user_core import (
    InfeasibleTargetError,
    TwoUserChannel,
    derive_params,
    optimize_p1,
)


def _cplx(rng, n, var=1.0):
    s = math.sqrt(var / 2.0)
    return rng.normal(0, s, n) + 1j * rng.normal(0, s, n)


def _pool(rng, nt, n_strong, n_weak, var_s=1.0, var_w=0.01):
    strong = [User(i, _cplx(rng, nt, var_s), 1.0) for i in range(n_strong)]
    weak = [User(n_strong + i, _cplx(rng, nt, var_w), 1.0) for i in range(n_weak)]
    return UserPool.from_users(strong=strong, weak=weak)


def _loop_sus_select(pool_channels, cfg):
    """sus_select as a loop over candidates and basis vectors, rebuilding
    each candidate's residual from scratch in every round: the reference
    for the array recurrence."""
    chans = [as_cvec(h) for h in pool_channels]
    if not chans:
        raise ValueError("empty candidate pool")
    max_norm = max(float(np.linalg.norm(h)) for h in chans)
    selected, basis = [], []
    candidates = list(range(len(chans)))
    while candidates and len(selected) < cfg.target_count:
        best_i, best_norm, best_res = -1, -1.0, None
        for i in candidates:
            r = chans[i].copy()
            for b in basis:
                r -= np.vdot(b, r) * b
            n = float(np.linalg.norm(r))
            if n > best_norm:
                best_i, best_norm, best_res = i, n, r
        if best_norm <= 1e-12 * max_norm:
            break
        g = best_res / best_norm
        selected.append(best_i)
        basis.append(g)
        candidates = [
            i
            for i in candidates
            if i != best_i
            and abs(np.vdot(g, chans[i])) <= cfg.delta * float(np.linalg.norm(chans[i]))
        ]
    return selected


def _pool_of(rng, strong_chans, n_weak, var_w=0.01):
    """A pool with the given strong channels and random weak ones."""
    nt = len(strong_chans[0])
    strong = [User(i, h, 1.0) for i, h in enumerate(strong_chans)]
    weak = [User(len(strong) + i, _cplx(rng, nt, var_w), 1.0) for i in range(n_weak)]
    return UserPool.from_users(strong=strong, weak=weak)


def _scalar_schedule(pool, Nt, P_T, Gamma, cfg):
    """The per-candidate scheduler, rebuilt from public functions: every
    remaining weak candidate gets the full scalar design and the strictly
    best gamma2_star wins.  Each cluster's skipped uids are returned next to
    the uids that candidate_reductions drops in the same state and the
    sig_hat it scores each remaining uid with."""
    sel_users = [pool.strong[i] for i in sus_select([u.h for u in pool.strong], cfg)]
    Kc = len(sel_users)
    P = P_T / Kc
    bases, h_eff = [], []
    for k in range(Kc):
        others = [sel_users[j].h for j in range(Kc) if j != k]
        bases.append(gram_schmidt(others) if others else np.empty((0, Nt), complex))
        h_eff.append(project_complement(sel_users[k].h, bases[k]))
    w_hat = [he / np.linalg.norm(he) for he in h_eff]
    remaining = sorted(pool.weak, key=lambda u: u.uid)
    W1, W2, plans, skips = [], [], [], []
    for k in range(Kc):
        pending = w_hat[k + 1 :]
        eps1 = sel_users[k].eps_sq
        lam1 = float(np.vdot(h_eff[k], h_eff[k]).real) / eps1
        best, skipped = None, set()
        for u in remaining:
            sig_hat = estimate_ici(u.h, u.eps_sq, W1 + W2, pending, P)
            g_eff = project_complement(u.h, bases[k])
            g_norm_sq = float(np.vdot(g_eff, g_eff).real)
            if g_norm_sq <= 0.0 or g_norm_sq / sig_hat > lam1:
                skipped.add(u.uid)
                continue
            ch = TwoUserChannel(h_eff[k], g_eff, eps1, sig_hat, P)
            sol = optimize_p1(ch, derive_params(ch, Gamma * lam1))
            if best is None or sol.gamma2_star > best[1].gamma2_star:
                best = (u, sol, sig_hat)
        _, reduce = candidate_reductions(
            np.array([u.h for u in remaining]),
            np.array([u.eps_sq for u in remaining]),
            h_eff[k],
            eps1,
            bases[k],
            pending,
            P,
        )
        ok, _, _, scored_sig = reduce(np.arange(len(remaining)), W1 + W2)
        skips.append(
            (
                skipped,
                {u.uid for u, keep in zip(remaining, ok) if not keep},
                dict(zip((u.uid for u in remaining), scored_sig.tolist())),
            )
        )
        if best is None:
            w1 = math.sqrt(P) * w_hat[k]
            w2, weak_id, sig_hat, sol = np.zeros_like(w1), None, None, None
        else:
            u, sol, sig_hat = best
            w1, w2, weak_id = sol.w1_scaled, sol.w2_scaled, u.uid
            remaining = [r for r in remaining if r.uid != u.uid]
        plan = ClusterPlan(
            sel_users[k].uid, weak_id, h_eff[k], eps1, sig_hat, sol, w1, w2, best is None
        )
        plans.append(plan)
        W1.append(plan.w1_tilde)
        W2.append(plan.w2_tilde)
    return SchedulerOutput(clusters=plans, Kc=Kc, P=P), skips


class TestUserPool:
    def test_pool_from_shuffled_users_matches_arrays(self):
        # shuffled User lists with non-contiguous uids give the rows of the
        # pool built from arrays (weak rows in uid order) and its schedule
        for seed in range(6):
            rng = np.random.default_rng(seed)
            nt, half = 2 + seed % 3, 10
            uid = 7 + 3 * rng.permutation(100)[: 2 * half]
            H = np.vstack([_cplx(rng, (half, nt)), _cplx(rng, (half, nt), 0.01)])
            eps = rng.uniform(0.5, 2.0, 2 * half)
            arrays = UserPool(
                UserGroup(uid[:half], H[:half], eps[:half]),
                UserGroup(uid[half:], H[half:], eps[half:]),
            )
            users = list(map(User, uid.tolist(), H, eps.tolist()))
            strong, weak = users[:half], users[half:]
            pool = UserPool.from_users(
                [strong[i] for i in rng.permutation(half)], [weak[i] for i in rng.permutation(half)]
            )
            order = np.argsort(uid[half:])
            for got in (arrays.weak_rows, pool.weak_rows):
                assert got.uid.tolist() == uid[half:][order].tolist()
                assert got.H.tobytes() == H[half:][order].tobytes()
                assert got.eps_sq.tobytes() == eps[half:][order].tobytes()
            for u in users:
                h, eps_sq = arrays.row(u.uid)
                assert pool.row(u.uid)[0].tobytes() == h.tobytes() == u.h.tobytes()
                assert pool.row(u.uid)[1] == eps_sq == u.eps_sq
            sus = SUSConfig(nt, 0.5)
            sel = [zf_select(p.strong_rows, sus) for p in (arrays, pool)]
            assert sel[0].uid.tolist() == sel[1].uid.tolist()
            assert sel[0].H_zf.tobytes() == sel[1].H_zf.tobytes()
            P = 10.0 / len(sel[0])
            gammas = [0.0, 0.4 * P, P]
            outs = [schedule_targets(p, z, 10.0, gammas) for p, z in zip((arrays, pool), sel)]
            for a, b in zip(*outs):
                assert [(c.strong_id, c.weak_id) for c in a.clusters] == [
                    (c.strong_id, c.weak_id) for c in b.clusters
                ]
                for ca, cb in zip(a.clusters, b.clusters):
                    assert ca.w1_tilde.tobytes() == cb.w1_tilde.tobytes()
                    assert ca.w2_tilde.tobytes() == cb.w2_tilde.tobytes()
                assert a.realized_rates == b.realized_rates
            assert baseline_sus_zf(arrays, sel[0], 10.0, sus) == baseline_sus_zf(
                pool, sel[1], 10.0, sus
            )

    def test_invalid_rows_rejected(self):
        good = dict(uid=[0, 1], H=[[1.0, 0.0], [0.0, 1j]], eps_sq=[1.0, 2.0])
        for bad in (
            dict(good, H=[[1.0, 0.0], [math.nan, 1.0]]),
            dict(good, H=[[1.0, 0.0], [1j * math.inf, 1.0]]),
            dict(good, eps_sq=[1.0, 0.0]),
            dict(good, eps_sq=[-1.0, 1.0]),
            dict(good, eps_sq=[1.0, math.nan]),
            dict(good, eps_sq=[1.0]),
            dict(good, H=[[1.0, 0.0], [0.0, 1.0, 0.0]]),  # ragged
            dict(good, H=[1.0, 0.0]),
            dict(good, H=[[], []]),
            dict(good, uid=[0]),
        ):
            with pytest.raises(ValueError):
                UserGroup(**bad)
        group = UserGroup(**good)
        with pytest.raises(ValueError, match="unique"):
            UserPool(group, UserGroup([2, 0], good["H"], good["eps_sq"]))
        with pytest.raises(ValueError, match="unique"):
            UserPool(group, UserGroup([2, 2], good["H"], good["eps_sq"]))
        with pytest.raises(ValueError, match="same length"):
            UserPool(group, UserGroup([2], [[1.0, 0.0, 0.0]], [1.0]))
        # the same checks on User lists: per user, then on the stacked rows
        for bad in (
            lambda: User(0, [1.0, math.inf], 1.0),
            lambda: User(0, [1.0, 0.0], 0.0),
            lambda: User(0, [1.0, 0.0], math.nan),
            lambda: User(0, [1.0, 0.0], math.inf),
            lambda: UserPool.from_users(
                [User(0, [1.0, 0.0], 1.0), User(1, [1.0], 1.0)], [User(2, [0.1, 0.0], 1.0)]
            ),
            lambda: UserPool.from_users([User(0, [1.0], 1.0)], [User(0, [0.1], 1.0)]),
        ):
            with pytest.raises(ValueError):
                bad()
        # rows and User views are read-only
        pool = UserPool(group, UserGroup([5], [[0.1, 0.0]], [1.0]))
        with pytest.raises(ValueError):
            pool.strong_rows.H[0, 0] = 2.0
        with pytest.raises(ValueError):
            pool.strong[0].h[0] = 2.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            pool.weak[0].eps_sq = 3.0


class TestSusSelect:
    def test_orthogonal_pair_both_selected_larger_first(self):
        chans = [np.array([0.0, 1.0]), np.array([2.0, 0.0])]
        sel = sus_select(chans, SUSConfig(2, 0.5))
        assert sel == [1, 0]

    def test_aligned_pair_keeps_larger_only(self):
        chans = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        sel = sus_select(chans, SUSConfig(2, 0.5))
        assert sel == [1]

    def test_selected_users_semi_orthogonal(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            chans = [_cplx(rng, 4) for _ in range(20)]
            cfg = SUSConfig(4, 0.3)
            sel = sus_select(chans, cfg)
            assert 1 <= len(sel) <= 4
            # verify against the orthogonal directions built in selection order
            basis = []
            for i in sel:
                r = chans[i].copy()
                for b in basis:
                    r -= np.vdot(b, r) * b
                g = r / np.linalg.norm(r)
                for j in sel:
                    if j == i or sel.index(j) < sel.index(i):
                        continue
                    corr = abs(np.vdot(g, chans[j])) / np.linalg.norm(chans[j])
                    assert corr <= cfg.delta + 1e-12
                basis.append(g)

    def test_empty_pool_rejected(self):
        # also ragged, non-finite, 2-D-entry, scalar-entry and empty-entry stacks
        for chans in (
            [],
            [[1.0, 0.0], [0.0, 1.0, 0.0]],
            [[1.0, 0.0], [math.nan, 1.0]],
            [[1.0, 0.0], [1j * math.inf, 1.0]],
            [np.eye(2)],
            [np.eye(2), np.eye(2)],
            [1.0, 2.0],
            [[], []],
        ):
            with pytest.raises(ValueError):
                sus_select(chans, SUSConfig(2, 0.5))

    @pytest.mark.parametrize("nt", [1, 2, 4, 8])
    def test_array_recurrence_matches_loop(self, nt):
        # random pools of 1-120 users, a quarter of them no larger than Nt, with
        # duplicate, collinear (complex multiples) and all-zero channels mixed
        # in, and every tenth pool all zero
        seen = set()
        for seed in range(120):
            rng = np.random.default_rng(1000 * nt + seed)
            n = int(rng.integers(1, nt + 1) if seed % 4 == 0 else rng.integers(1, 121))
            H = _cplx(rng, (n, nt), var=float(rng.choice([1e-6, 1.0, 1e4])))
            for row in rng.integers(0, n, size=(int(rng.integers(0, n // 4 + 1)), 3)):
                H[row[0]] = H[row[1]]  # duplicate
                H[row[2]] = complex(*rng.normal(size=2)) * H[row[1]]  # collinear
            H[rng.random(n) < 0.1] = 0.0
            if seed % 10 == 9:
                H[:] = 0.0
            cfg = SUSConfig(int(rng.integers(1, nt + 1)), (0.1, 0.3, 1.0)[seed % 3])
            sel = sus_select(list(H), cfg)
            assert sel == _loop_sus_select(list(H), cfg), seed
            seen |= {"empty"} if not sel else set()
            seen |= {"short"} if 0 < len(sel) < cfg.target_count else set()
            seen |= {"full"} if len(sel) == cfg.target_count else set()
        assert seen == ({"empty", "full"} if nt == 1 else {"empty", "short", "full"})


class TestEstimateIci:
    def test_no_other_clusters(self):
        g = np.array([1.0, 1j])
        assert estimate_ici(g, 0.7, [], [], 5.0) == pytest.approx(0.7)

    def test_orthogonal_beams_contribute_nothing(self):
        g = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        assert estimate_ici(g, 0.7, [w, w], [w], 5.0) == pytest.approx(0.7)

    def test_hand_built_two_cluster_sum(self):
        g = np.array([1.0 + 1j, 0.5])
        w1 = np.array([0.3, 0.4j])
        w2 = np.array([0.1j, 0.2])
        wh = np.array([0.6, 0.0])
        P = 4.0
        expect = (
            abs(np.vdot(g, w1)) ** 2
            + abs(np.vdot(g, w2)) ** 2
            + P * abs(np.vdot(g, wh)) ** 2
            + 1.3
        )
        got = estimate_ici(g, 1.3, [w1, w2], [wh], P)
        assert got == pytest.approx(expect, abs=1e-12)

    def test_dimension_mismatch(self):
        # a length-1 beam would broadcast against Nt = 2 if it were let through
        for g, eps in (([1.0, 0.0], 1.0), (np.ones((3, 2)), np.ones(3))):
            for w in ([1.0, 0.0, 0.0], [1.0], np.ones((1, 2))):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    estimate_ici(g, eps, [w], [], 1.0)
                with pytest.raises(ValueError, match="dimension mismatch"):
                    estimate_ici(g, eps, [], [w], 1.0)

    @pytest.mark.parametrize("n", [1, 5, 200])
    def test_row_kernels_are_rowwise(self, n):
        # project_complement and estimate_ici on an (n, Nt) stack equal,
        # bitwise, the calls on each row as a one-row stack and as a vector
        rng = np.random.default_rng(n)
        for nt in (2, 4):
            H = _cplx(rng, (n, nt), 0.3)
            eps = rng.uniform(0.5, 2.0, n)
            basis = gram_schmidt(_cplx(rng, (nt - 1, nt)))
            beams = list(_cplx(rng, (3, nt)))
            pending = [w / np.linalg.norm(w) for w in _cplx(rng, (2, nt))]
            G = project_complement(H, basis)
            sig = estimate_ici(H, eps, beams, pending, 2.5)
            assert G.shape == (n, nt) and sig.shape == (n,)
            for i in range(n):
                assert project_complement(H[i : i + 1], basis).tobytes() == G[i].tobytes()
                assert project_complement(H[i], basis).tobytes() == G[i].tobytes()
                row = estimate_ici(H[i : i + 1], eps[i : i + 1], beams, pending, 2.5)
                assert row.tobytes() == sig[i : i + 1].tobytes()
                assert estimate_ici(H[i], eps[i], beams, pending, 2.5) == sig[i]


class TestSchedule:
    def test_zero_forcing_and_strong_rate(self):
        # criterion 9's invariants, on a random pool and on pools where SUS
        # meets duplicate or collinear strong users or selects fewer than
        # Nt users, at Gamma = 0, an interior target and Gamma = P_T/Kc
        rng = np.random.default_rng(8)
        cases = [(_pool(rng, 2, 6, 6), SUSConfig(2, 0.6))]
        a, b, c = (_cplx(rng, 4) for _ in range(3))
        cases += [
            (_pool_of(rng, [a, b, c, a, b.copy(), c], 6), SUSConfig(4, 0.9)),
            (_pool_of(rng, [a, 2 * a, (1 - 1j) * b, 0.5j * a, 3 * b], 6), SUSConfig(4, 1.0)),
            (_pool(rng, 4, 2, 6), SUSConfig(4, 0.5)),
            (_pool(rng, 4, 10, 10), SUSConfig(4, 0.3)),
        ]
        P_T, underloaded = 10.0, 0
        for pool, sus in cases:
            strong = zf_select(pool.strong_rows, sus)
            underloaded += len(strong) < pool.strong[0].h.size
            for Gamma in (0.0, 0.5, P_T / len(strong)):
                out = schedule(pool, strong, P_T, Gamma)
                assert out.Kc >= 1
                for k, plan in enumerate(out.clusters):
                    hs, _ = pool.row(plan.strong_id)
                    others = [
                        w
                        for kk, other in enumerate(out.clusters)
                        if kk != k
                        for w in (other.w1_tilde, other.w2_tilde)
                    ]
                    for w in others:
                        wn = np.linalg.norm(w)
                        assert abs(np.vdot(hs, w)) <= 1e-9 * np.linalg.norm(hs) * wn
                    s1 = abs(np.vdot(hs, plan.w1_tilde)) ** 2
                    if Gamma > 0:  # at Gamma = 0 a paired strong user gets no power
                        assert sum(abs(np.vdot(hs, w)) ** 2 for w in others) <= 1e-9 * s1
                    power = np.vdot(plan.w1_tilde, plan.w1_tilde).real + np.vdot(
                        plan.w2_tilde, plan.w2_tilde
                    ).real
                    assert power <= out.P * (1.0 + 1e-9)
                    if plan.single_user:
                        continue
                    lam1 = float(np.vdot(plan.h1_eff, plan.h1_eff).real) / plan.sigma1_sq
                    assert out.realized_rates[k][0] == pytest.approx(
                        math.log2(1.0 + Gamma * lam1), rel=1e-6
                    )
                rates = [r for pair in out.realized_rates for r in pair]
                assert all(math.isfinite(r) and r >= 0.0 for r in rates)
        assert underloaded >= 3

    def test_power_budget(self):
        rng = np.random.default_rng(12)
        pool = _pool(rng, 4, 10, 10)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(4, 0.5)), 10.0, 0.5)
        total = sum(
            np.linalg.norm(p.w1_tilde) ** 2 + np.linalg.norm(p.w2_tilde) ** 2
            for p in out.clusters
        )
        assert total <= 10.0 + 1e-6

    def test_single_cluster_reduces_to_two_user_design(self):
        rng = np.random.default_rng(21)
        pool = _pool(rng, 2, 1, 1)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(1, 0.5)), 10.0, 0.5)
        assert out.Kc == 1
        ch = TwoUserChannel(pool.strong[0].h, pool.weak[0].h, 1.0, 1.0, 10.0)
        sol = optimize_p1(ch, derive_params(ch, 0.5 * ch.lambda1))
        assert out.realized_rates[0][1] == pytest.approx(
            math.log2(1.0 + sol.gamma2_star), rel=1e-12
        )

    def test_underloaded_clusters_span_two_dimensions(self):
        # Kc < Nt leaves a multi-dimensional null space: beams of a cluster
        # need not be parallel
        rng = np.random.default_rng(33)
        pool = _pool(rng, 4, 2, 2, var_w=0.5)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.9)), 10.0, 0.2)
        assert out.Kc == 2
        plan = out.clusters[0]
        w1 = plan.w1_tilde / np.linalg.norm(plan.w1_tilde)
        w2 = plan.w2_tilde / np.linalg.norm(plan.w2_tilde)
        assert abs(np.vdot(w1, w2)) < 1.0 - 1e-6

    def test_weak_choice_attains_candidate_maximum(self):
        rng = np.random.default_rng(45)
        pool = _pool(rng, 2, 4, 5)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.6)), 10.0, 0.5)
        plan = out.clusters[0]
        assert not plan.single_user
        # recompute every candidate's achievable SINR for cluster 0
        others = [
            pool.strong[i].h
            for i in range(len(pool.strong))
            if pool.strong[i].uid != plan.strong_id
            and pool.strong[i].uid in {p.strong_id for p in out.clusters}
        ]
        from misonoma.complex_linalg import gram_schmidt, project_complement

        basis = gram_schmidt(others) if others else None
        best_uid, best_g2 = None, -1.0
        pend = []
        for kk, p in enumerate(out.clusters[1:], start=1):
            pend.append(p.h1_eff / np.linalg.norm(p.h1_eff))
        for u in pool.weak:
            sig = estimate_ici(u.h, u.eps_sq, [], pend, out.P)
            g_eff = project_complement(u.h, basis) if basis is not None else u.h
            lam1 = float(np.vdot(plan.h1_eff, plan.h1_eff).real) / plan.sigma1_sq
            lam2 = float(np.vdot(g_eff, g_eff).real) / sig
            if lam2 > lam1:
                continue
            ch = TwoUserChannel(plan.h1_eff, g_eff, plan.sigma1_sq, sig, out.P)
            sol = optimize_p1(ch, derive_params(ch, 0.5 * lam1))
            if sol.gamma2_star > best_g2:
                best_uid, best_g2 = u.uid, sol.gamma2_star
        assert plan.weak_id == best_uid
        assert plan.solution.gamma2_star == pytest.approx(best_g2, rel=1e-12)

    def test_last_cluster_estimate_is_exact(self):
        # the last cluster sees only designed beams, so its realized weak
        # rate equals the design value
        rng = np.random.default_rng(52)
        pool = _pool(rng, 2, 6, 6)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.6)), 10.0, 0.5)
        if out.Kc < 2 or out.clusters[-1].single_user:
            pytest.skip("needs a two-cluster realization with a paired last cluster")
        plan = out.clusters[-1]
        design_rate = math.log2(1.0 + plan.solution.gamma2_star)
        realized = out.realized_rates[-1][1]
        assert realized == pytest.approx(design_rate, rel=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(60)
        pool = _pool(rng, 2, 6, 6)
        out1 = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.6)), 10.0, 0.5)
        out2 = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.6)), 10.0, 0.5)
        assert [p.strong_id for p in out1.clusters] == [
            p.strong_id for p in out2.clusters
        ]
        assert [p.weak_id for p in out1.clusters] == [p.weak_id for p in out2.clusters]
        for a, b in zip(out1.clusters, out2.clusters):
            np.testing.assert_array_equal(a.w1_tilde, b.w1_tilde)
            np.testing.assert_array_equal(a.w2_tilde, b.w2_tilde)
        assert out1.realized_rates == out2.realized_rates

    def test_infeasible_gamma(self):
        rng = np.random.default_rng(71)
        pool = _pool(rng, 2, 4, 4)
        with pytest.raises(InfeasibleTargetError):
            schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.5)), 10.0, 50.0)

    def test_weak_pool_shortage_rejected(self):
        strong = [User(0, [1.0, 0.0], 1.0), User(1, [0.0, 1.0], 1.0)]
        weak = [User(2, [0.05, 0.05], 1.0)]
        pool = UserPool.from_users(strong, weak)
        with pytest.raises(ValueError):
            schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.9)), 10.0, 0.5)

    @pytest.mark.parametrize(
        "nt, k_users, pt_db, seeds, weak_vars, covers",
        [
            (2, 40, 10.0, range(100), (0.01, 0.3, 1.0), {"skip"}),
            (4, 200, 20.0, range(10), (0.01,), set()),
            # tiny pools of equal-variance users, where clusters fall back
            (2, 4, 10.0, range(40), (1.0,), {"skip", "single_user"}),
        ],
    )
    def test_batched_scoring_matches_scalar_loop(
        self, nt, k_users, pt_db, seeds, weak_vars, covers
    ):
        # Gamma = P_T/Nt is the cluster power P when all Nt clusters form,
        # where every candidate scores 0 and the first in uid order must win
        seen = set()
        for seed in seeds:
            cfg = SimConfig(
                nt=nt,
                k_users=k_users,
                pt_db=pt_db,
                sigma_h2_sq=weak_vars[seed % len(weak_vars)],
                seed=seed,
            )
            Gamma = cfg.p_total / nt * (0.0, 0.1, 0.3, 0.6, 1.0)[seed % 5]
            pool = generate_channels(cfg, np.random.default_rng(seed))
            sus = SUSConfig(nt, cfg.delta)
            out = schedule(pool, zf_select(pool.strong_rows, sus), cfg.p_total, Gamma)
            ref, skips = _scalar_schedule(pool, nt, cfg.p_total, Gamma, sus)
            assert [(p.strong_id, p.weak_id) for p in out.clusters] == [
                (p.strong_id, p.weak_id) for p in ref.clusters
            ]
            for scalar_skipped, batch_skipped, _ in skips:
                assert batch_skipped == scalar_skipped
                seen |= {"skip"} if scalar_skipped else set()
            for got, want, (_, _, scored_sig) in zip(out.clusters, ref.clusters, skips):
                assert got.single_user == want.single_user
                assert got.w1_tilde.tobytes() == want.w1_tilde.tobytes()
                assert got.w2_tilde.tobytes() == want.w2_tilde.tobytes()
                assert got.sigma_hat_u_sq == want.sigma_hat_u_sq
                if not got.single_user:  # designed from the row it was scored with
                    assert got.sigma_hat_u_sq == scored_sig[got.weak_id]
                seen |= {"single_user"} if want.single_user else set()
            assert out.realized_rates == realized_rates(ref, pool)
        assert covers <= seen

    @pytest.mark.parametrize(
        "nt, k_users, weak_var, seeds, covers",
        [
            (2, 40, 0.01, range(12), set()),
            (4, 200, 0.01, range(3), set()),
            # tiny pools of equal-variance users, where clusters fall back
            (2, 4, 1.0, range(30), {"single_user"}),
        ],
    )
    def test_lockstep_targets_match_one_target_passes(
        self, nt, k_users, weak_var, seeds, covers
    ):
        # the targets include 0, P and just below P, a duplicate, and are
        # not sorted; every output must equal a pass at its target alone
        seen = set()
        for seed in seeds:
            cfg = SimConfig(nt=nt, k_users=k_users, pt_db=10.0, sigma_h2_sq=weak_var, seed=seed)
            pool = generate_channels(cfg, np.random.default_rng(seed))
            strong = zf_select(pool.strong_rows, SUSConfig(nt, cfg.delta))
            P = cfg.p_total / len(strong)
            gammas = [0.6 * P, 0.0, P, P - 1e-11, 0.2 * P, 0.6 * P, 0.9 * P]
            outs = schedule_targets(pool, strong, cfg.p_total, gammas)
            assert len(outs) == len(gammas)
            for Gamma, out in zip(gammas, outs):
                ref = schedule(pool, strong, cfg.p_total, Gamma)
                assert (out.Kc, out.P) == (ref.Kc, ref.P)
                assert [(p.strong_id, p.weak_id) for p in out.clusters] == [
                    (p.strong_id, p.weak_id) for p in ref.clusters
                ]
                for got, want in zip(out.clusters, ref.clusters):
                    assert got.single_user == want.single_user
                    assert got.sigma_hat_u_sq == want.sigma_hat_u_sq
                    assert got.w1_tilde.tobytes() == want.w1_tilde.tobytes()
                    assert got.w2_tilde.tobytes() == want.w2_tilde.tobytes()
                    seen |= {"single_user"} if want.single_user else set()
                assert out.realized_rates == ref.realized_rates
        assert covers <= seen

    def test_pruned_scoring_matches_unpruned(self, monkeypatch):
        # the bound prune against the same pass with nothing pruned (upper
        # bounds at +inf, so every kept row of a target with two or more
        # goes through the search); pairs, beams, estimates and rates bitwise
        from misonoma import scheduler

        bounds = scheduler.gamma2_bounds
        seen = set()

        def spied(lam1, lam2, theta, G, P):
            lower, upper = bounds(lam1, lam2, theta, G, P)
            n, kept = len(lam2), int((~(upper < lower.max(initial=-np.inf))).sum())
            if n > 1:  # one target per call below, so one segment
                seen.add("one" if kept == 1 else "all" if kept == n else "some")
            return lower, upper

        def unpruned(lam1, lam2, theta, G, P):
            return bounds(lam1, lam2, theta, G, P)[0], np.full(lam2.shape, np.inf)

        def outputs(pool, strong, P_T, gammas, fn):
            monkeypatch.setattr(scheduler, "gamma2_bounds", fn)
            return scheduler.schedule_targets(pool, strong, P_T, gammas)

        configs = [(2, 40, 10.0, var, range(8)) for var in (0.01, 0.3, 1.0)]
        configs += [(4, 200, 20.0, 0.01, range(3)), (2, 4, 10.0, 1.0, range(20))]
        for nt, k_users, pt_db, var, seeds in configs:
            for seed in seeds:
                cfg = SimConfig(nt=nt, k_users=k_users, pt_db=pt_db, sigma_h2_sq=var, seed=seed)
                pool = generate_channels(cfg, np.random.default_rng(seed))
                strong = zf_select(pool.strong_rows, SUSConfig(nt, cfg.delta))
                P = cfg.p_total / len(strong)
                gammas = [0.0, 0.3 * P, P]
                got = [outputs(pool, strong, cfg.p_total, [g], spied)[0] for g in gammas]
                got += outputs(pool, strong, cfg.p_total, gammas, bounds)
                want = 2 * outputs(pool, strong, cfg.p_total, gammas, unpruned)
                for out, ref in zip(got, want):
                    assert [(p.strong_id, p.weak_id) for p in out.clusters] == [
                        (p.strong_id, p.weak_id) for p in ref.clusters
                    ]
                    for a, b in zip(out.clusters, ref.clusters):
                        assert a.single_user == b.single_user
                        assert a.sigma_hat_u_sq == b.sigma_hat_u_sq
                        assert a.w1_tilde.tobytes() == b.w1_tilde.tobytes()
                        assert a.w2_tilde.tobytes() == b.w2_tilde.tobytes()
                        seen |= {"single_user"} if b.single_user else set()
                    assert out.realized_rates == ref.realized_rates
        assert seen == {"one", "some", "all", "single_user"}

    def test_schedule_unchanged_by_power_of_two_scaling(self):
        # every channel times 2^-400 and every noise power times 2^-800
        # leaves every SNR, angle and so the schedule unchanged, although
        # products of two squared norms (about 1e-480) leave the float range
        for seed in range(20):
            cfg = SimConfig(nt=2, k_users=12, sigma_h2_sq=0.3, seed=seed)
            pool = generate_channels(cfg, np.random.default_rng(seed))
            tiny = UserPool.from_users(
                *(
                    [User(u.uid, 2.0**-400 * u.h, 2.0**-800 * u.eps_sq) for u in users]
                    for users in (pool.strong, pool.weak)
                )
            )
            sus = SUSConfig(2, cfg.delta)
            out = schedule(pool, zf_select(pool.strong_rows, sus), cfg.p_total, 1.0)
            got = schedule(tiny, zf_select(tiny.strong_rows, sus), cfg.p_total, 1.0)
            assert [(p.strong_id, p.weak_id) for p in got.clusters] == [
                (p.strong_id, p.weak_id) for p in out.clusters
            ]
            np.testing.assert_allclose(got.realized_rates, out.realized_rates, rtol=1e-9)

    def test_targets_checked_before_scheduling(self):
        rng = np.random.default_rng(5)
        pool = _pool(rng, 2, 6, 6)
        strong = zf_select(pool.strong_rows, SUSConfig(2, 0.6))
        with pytest.raises(InfeasibleTargetError, match="Gamma=50"):
            schedule_targets(pool, strong, 10.0, [0.5, 1.0, 50.0])
        with pytest.raises(InfeasibleTargetError, match="Gamma=-1"):
            schedule_targets(pool, strong, 10.0, [-1.0, 0.5])
        with pytest.raises(InfeasibleTargetError, match="Gamma=nan"):
            schedule_targets(pool, strong, 10.0, [0.5, math.nan])
        assert schedule_targets(pool, strong, 10.0, []) == []

    def test_tie_goes_to_lowest_uid(self):
        # identical weak channels score identically; the lower uid is listed
        # second in the pool and must still win
        g = np.array([0.1 + 0.05j, -0.08j])
        pool = UserPool.from_users(
            strong=[User(0, [1.0, 0.3j], 1.0)],
            weak=[User(7, g, 1.0), User(3, g, 1.0), User(5, 0.5 * g, 1.0)],
        )
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(1, 0.5)), 10.0, 0.5)
        assert out.clusters[0].weak_id == 3
        ref, _ = _scalar_schedule(pool, 2, 10.0, 0.5, SUSConfig(1, 0.5))
        assert ref.clusters[0].weak_id == 3

    def test_single_user_fallback(self):
        # every weak candidate is stronger than the strong user: no valid pair
        h = np.array([1.0 + 0.5j, 0.2])
        pool = UserPool.from_users(
            strong=[User(0, h, 2.0)],
            weak=[User(1, [3.0, 1.0j], 1.0), User(2, [0.0, 2.0], 1.0), User(3, 2 * h, 2.0)],
        )
        P = 10.0
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(1, 0.5)), P, 0.5)
        plan = out.clusters[0]
        assert plan.single_user and plan.weak_id is None and plan.solution is None
        assert not np.any(plan.w2_tilde)
        np.testing.assert_array_equal(plan.w1_tilde, math.sqrt(P) * (h / np.linalg.norm(h)))
        lam1 = float(np.vdot(h, h).real) / 2.0
        assert out.realized_rates[0] == (pytest.approx(math.log2(1.0 + P * lam1), rel=1e-12), 0.0)

    def test_no_strong_user_selected_rejected(self):
        strong = [User(0, [0.0, 0.0], 1.0), User(1, [0.0, 0.0], 1.0)]
        weak = [User(2, [0.05, 0.05], 1.0), User(3, [0.01, 0.02], 1.0)]
        pool = UserPool.from_users(strong, weak)
        with pytest.raises(ValueError, match="selection returned no users"):
            schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.9)), 10.0, 0.5)

    def test_realized_rates_roundtrip(self):
        rng = np.random.default_rng(84)
        pool = _pool(rng, 2, 6, 6)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(2, 0.6)), 10.0, 0.5)
        rates = realized_rates(out, pool)
        assert len(rates) == len(out.clusters)
        for (r1, r2), plan, stored in zip(rates, out.clusters, out.realized_rates):
            assert (r1, r2) == pytest.approx(stored)
            if plan.weak_id is None:
                assert r2 == 0.0


@st.composite
def _degenerate_pools(draw):
    """A whole pool and target for schedule: K/2 strong and K/2 weak users,
    with K/2 below Nt allowed; strong users that repeat or are collinear
    with (complex multiples of) earlier ones; weak users as strong as the
    strong ones or stronger; every channel scaled toward 0; Gamma at 0, at
    P_T/Kc or between."""
    nt = draw(st.integers(1, 4))
    half = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strong = [_cplx(rng, nt) for _ in range(half)]
    for i in range(1, half):
        kind = draw(st.sampled_from(["free", "duplicate", "collinear"]))
        j = draw(st.integers(0, i - 1))
        if kind == "duplicate":
            strong[i] = strong[j].copy()
        elif kind == "collinear":
            strong[i] = complex(*rng.normal(size=2)) * strong[j]
    var_w = draw(st.sampled_from([0.01, 1.0, 100.0]))
    weak = [_cplx(rng, nt, var_w) for _ in range(half)]
    scale = 10.0 ** -draw(st.sampled_from([0, 4, 30, 100]))
    eps = draw(st.sampled_from([1.0, 0.1]))
    pool = UserPool.from_users(
        strong=[User(i, scale * h, eps) for i, h in enumerate(strong)],
        weak=[User(half + i, scale * h, eps) for i, h in enumerate(weak)],
    )
    frac = draw(st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0))
    return pool, SUSConfig(nt, draw(st.sampled_from([0.3, 0.9, 1.0]))), frac


class TestScheduleProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_degenerate_pools())
    def test_criterion9_invariants(self, case):
        # test_zero_forcing_and_strong_rate's invariants and tolerances on
        # every output: no leakage at strong users, cluster power <= P, the
        # strong rate at its target, every rate finite and nonnegative;
        # Gamma ranges over all of [0, P_T/Kc], so the leakage power is held
        # to the larger of signal and noise (see below)
        pool, sus, frac = case
        P_T = 10.0
        strong = zf_select(pool.strong_rows, sus)
        Gamma = frac * P_T / len(strong)
        out = schedule(pool, strong, P_T, Gamma)
        for k, plan in enumerate(out.clusters):
            hs, eps = pool.row(plan.strong_id)
            others = [
                w
                for kk, other in enumerate(out.clusters)
                if kk != k
                for w in (other.w1_tilde, other.w2_tilde)
            ]
            for w in others:
                assert abs(np.vdot(hs, w)) <= 1e-9 * np.linalg.norm(hs) * np.linalg.norm(w)
            # leakage below 1e-9 of the signal, or of the noise where the
            # signal is weaker (a target near 0 leaves only round-off)
            s1 = abs(np.vdot(hs, plan.w1_tilde)) ** 2
            assert sum(abs(np.vdot(hs, w)) ** 2 for w in others) <= 1e-9 * max(s1, eps)
            power = np.vdot(plan.w1_tilde, plan.w1_tilde).real
            power += np.vdot(plan.w2_tilde, plan.w2_tilde).real
            assert power <= out.P * (1.0 + 1e-9)
            if not plan.single_user:
                lam1 = float(np.vdot(plan.h1_eff, plan.h1_eff).real) / plan.sigma1_sq
                assert out.realized_rates[k][0] == pytest.approx(
                    math.log2(1.0 + Gamma * lam1), rel=1e-6
                )
        rates = [r for pair in out.realized_rates for r in pair]
        assert all(math.isfinite(r) and r >= 0.0 for r in rates)


class TestBaseline:
    def test_single_user_matched_filter(self):
        pool = UserPool.from_users(
            strong=[User(0, [1.0 + 1j, 0.5], 2.0)],
            weak=[User(1, [0.1, 0.1], 1.0)],
        )
        sus = SUSConfig(1, 0.5)
        s, _, _ = baseline_sus_zf(pool, zf_select(pool.strong_rows, sus), 10.0, sus)
        h = pool.strong[0].h
        expect = math.log2(1.0 + 10.0 * float(np.vdot(h, h).real) / 2.0)
        assert s == pytest.approx(expect, rel=1e-12)

    def test_orthogonal_users_zero_forcing_is_matched_filter(self):
        pool = UserPool.from_users(
            strong=[User(0, [2.0, 0.0], 1.0), User(1, [0.0, 1.0], 1.0)],
            weak=[User(2, [0.1, 0.0], 1.0), User(3, [0.0, 0.1], 1.0)],
        )
        sus = SUSConfig(2, 0.5)
        s, w, comb = baseline_sus_zf(pool, zf_select(pool.strong_rows, sus), 10.0, sus)
        expect_s = math.log2(1.0 + 5.0 * 4.0) + math.log2(1.0 + 5.0 * 1.0)
        assert s == pytest.approx(expect_s, rel=1e-12)
        assert comb == pytest.approx(0.5 * (s + w), rel=1e-12)

    def test_served_users_get_zero_mutual_interference(self):
        rng = np.random.default_rng(99)
        pool = _pool(rng, 4, 10, 10)
        sel = zf_select(pool.strong_rows, SUSConfig(4, 0.4))
        assert len(sel) >= 2
        for i, h in enumerate(sel.H_zf):
            w = h / np.linalg.norm(h)
            for j, hj in enumerate(sel.H):
                if j == i:
                    continue
                assert abs(np.vdot(hj, w)) <= 1e-9 * np.linalg.norm(hj)

    @pytest.mark.parametrize("nt, k_users, seeds", [(2, 40, range(20)), (4, 200, range(20))])
    def test_schedule_and_baseline_share_the_zf_step(self, nt, k_users, seeds):
        # the NOMA strong users are the baseline's strong interval: the same
        # zero-forced channels, and the interval rate is their ZF sum rate
        for seed in seeds:
            cfg = SimConfig(nt=nt, k_users=k_users, pt_db=10.0 + 5.0 * (seed % 3), seed=seed)
            pool = generate_channels(cfg, np.random.default_rng(seed))
            sus = SUSConfig(nt, cfg.delta)
            strong = zf_select(pool.strong_rows, sus)
            out = schedule(pool, strong, cfg.p_total, 0.5 * cfg.p_total / nt)
            assert [p.strong_id for p in out.clusters] == strong.uid.tolist()
            for plan, h in zip(out.clusters, strong.H_zf):
                assert plan.h1_eff.tobytes() == h.tobytes()
            s_strong, _, _ = baseline_sus_zf(pool, strong, cfg.p_total, sus)
            expect = 0.0
            for h, eps, plan in zip(strong.H, strong.eps_sq, out.clusters):
                w_hat = plan.h1_eff / np.linalg.norm(plan.h1_eff)
                expect += math.log2(1.0 + out.P * abs(np.vdot(h, w_hat)) ** 2 / eps)
            assert s_strong == pytest.approx(expect, rel=1e-12, abs=0.0)
