import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misonoma.golden import golden_section_max
from misonoma.oracle import sample_instance
from misonoma.two_user_core import (
    P1_GRID,
    P1_XTOL,
    CaseTag,
    DerivedParams,
    InfeasibleTargetError,
    OptRegion,
    TwoUserChannel,
    _gamma2_vec,
    achieved_gamma2,
    achieved_user1_sinr,
    alpha1_star,
    alpha1_star_fixed,
    case3_closed_form_p1,
    case_coeffs,
    channel_from_quality,
    classify_case,
    derive_params,
    fixed_power_design,
    gamma2_of_p1,
    maximize_branch_gamma2,
    maximize_gamma2_batch,
    maximize_gamma2_over_p1,
    optimize_p1,
    pareto_boundary,
)

FIG2 = dict(lambda1=20.0, lambda2=3.0, theta=0.5, P=2.0)


def fig2_channel():
    return channel_from_quality(**FIG2)


def _gamma2_at(p1, lam1, lam2, th, G, P):
    """The array p1 rule _gamma2_vec(lam1, lam2, th, G, P), evaluated once at p1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return _gamma2_vec(lam1, lam2, th, G, P)(np.asarray(p1, dtype=float))


def _grid_golden_max(f, grid_values, G, P):
    """argmax/max of f over p1 in [Gamma, P]: grid, bracket, golden section.

    The grid-then-golden search the grid-free one replaced, kept as an
    independent reference: grid_values(grid) gives f on a P1_GRID scan that
    locates the global bracket; golden section refines it to P1_XTOL, and
    the best grid point is kept when the refinement does not beat it.
    """
    if P - G <= P1_XTOL:
        return P, 0.0
    grid = np.linspace(G, P, P1_GRID)
    vals = grid_values(grid)
    i = int(np.argmax(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, P1_GRID - 1)]
    p1_opt, v_opt = golden_section_max(f, lo, hi, xtol=P1_XTOL)
    if v_opt < vals[i]:
        p1_opt, v_opt = float(grid[i]), float(vals[i])
    return float(p1_opt), float(v_opt)


def _min_alpha1_by_grid(theta, Gamma, p1, n=2_000_001):
    """Independent feasibility search over the constraint segment."""
    t = math.sqrt(Gamma / p1)
    al = np.linspace(0.0, 1.0, n)
    if theta == 1.0:
        return t
    be = (t - math.sqrt(theta) * al) / math.sqrt(1.0 - theta)
    ok = (be >= -1e-12) & (al**2 + be**2 <= 1.0 + 1e-9)
    assert ok.any()
    return float(al[np.argmax(ok)])


class TestDerivedParams:
    def test_fig2_values(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert params.lambda1 == pytest.approx(20.0, rel=1e-12)
        assert params.lambda2 == pytest.approx(3.0, rel=1e-12)
        assert params.theta == pytest.approx(0.5, abs=1e-12)
        # tau = (1/lam1 + Gamma)/theta - 1/lam2 = 2*(0.05+0.5) - 1/3
        assert params.tau == pytest.approx(0.7666666666666667, rel=1e-12)

    def test_zero_target(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.0)
        assert params.Gamma == 0.0
        assert params.tau == pytest.approx(1.0 / 0.5 / 20.0 - 1.0 / 3.0, rel=1e-9)

    def test_infeasible_target(self):
        ch = fig2_channel()
        with pytest.raises(InfeasibleTargetError):
            derive_params(ch, 2.5 * ch.lambda1)  # Gamma = 2.5 > P = 2

    def test_ordering_validated_on_channel(self):
        with pytest.raises(ValueError):
            TwoUserChannel([1.0, 0.0], [2.0, 0.0], 1.0, 1.0, 1.0)

    def test_zero_channel_rejected(self):
        for h1, h2 in (([0.0, 0.0], [0.0, 0.0]), ([1.0, 0.0], [0.0, 0.0])):
            with pytest.raises(ValueError, match="nonzero"):
                TwoUserChannel(h1, h2, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "lam1, lam2, name",
        [(0.0, 0.0, "lambda1"), (-1.0, -2.0, "lambda1"), (20.0, 0.0, "lambda2"), (20.0, -2.0, "lambda2")],
    )
    def test_nonpositive_quality_rejected(self, lam1, lam2, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            channel_from_quality(lam1, lam2, 0.5, 2.0)


class TestAlpha1:
    def test_fixed_zero_branch(self):
        assert alpha1_star_fixed(0.5, 0.3) == 0.0

    def test_fixed_corner(self):
        assert alpha1_star_fixed(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_fixed_generic_against_grid(self):
        val = alpha1_star_fixed(0.8, 0.5)
        assert val == pytest.approx(0.316227766016838, rel=1e-12)
        assert val == pytest.approx(_min_alpha1_by_grid(0.8, 0.5, 1.0), abs=1e-3)

    def test_fixed_range_checks(self):
        with pytest.raises(ValueError):
            alpha1_star_fixed(1.5, 0.5)
        with pytest.raises(ValueError):
            alpha1_star_fixed(0.5, 1.5)

    def test_p1_at_minimum_power_is_sqrt_theta(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert alpha1_star(params.Gamma, params) == pytest.approx(
            math.sqrt(params.theta), rel=1e-12
        )

    def test_theta_zero_always_zero(self):
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        for p1 in (params.Gamma, 1.0, 2.0):
            assert alpha1_star(p1, params) == 0.0

    def test_generic_against_grid(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        val = alpha1_star(0.8, params)
        assert val == pytest.approx(0.12600429248272815, rel=1e-12)
        assert val == pytest.approx(_min_alpha1_by_grid(0.5, 0.5, 0.8), abs=1e-3)

    def test_below_minimum_power_rejected(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        with pytest.raises(InfeasibleTargetError):
            alpha1_star(0.25 * params.Gamma, params)


class TestCaseCoefficients:
    def test_full_power_all_zero(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        cc = case_coeffs(ch.P, ch, params)
        assert cc.a == cc.b == cc.c == 0.0

    def test_theta_zero_b_zero_d_inf(self):
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        cc = case_coeffs(1.0, ch, params)
        assert cc.b == 0.0
        assert cc.d == math.inf

    def test_a_squared_value(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        cc = case_coeffs(0.5, ch, params)
        # (P - p1) * lam1 / (1 + Gamma*lam1) = 1.5 * 20 / 11
        assert cc.a**2 == pytest.approx(30.0 / 11.0, rel=1e-12)


class TestClassify:
    def test_fig2_case2(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert params.theta * params.Gamma < params.tau
        assert classify_case(ch, params) is OptRegion.OPT_IN_P2

    def test_negative_tau_case3(self):
        ch = channel_from_quality(10.0, 0.1, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        assert params.tau < 0
        assert classify_case(ch, params) is OptRegion.OPT_IN_P3

    def test_vanishing_weak_quality_case3(self):
        ch = channel_from_quality(10.0, 1e-6, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        assert classify_case(ch, params) is OptRegion.OPT_IN_P3

    def test_theta_zero_case2(self):
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert classify_case(ch, params) is OptRegion.OPT_IN_P2

    def test_theta_one_case3(self):
        ch = channel_from_quality(20.0, 3.0, 1.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert classify_case(ch, params) is OptRegion.OPT_IN_P3


class TestGamma2OfP1:
    def test_full_power_zero(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        val, tag = gamma2_of_p1(ch.P, ch, params)
        assert val == 0.0
        assert tag is CaseTag.CASE1

    def test_small_lambda2_limit_at_minimum_power(self):
        # at p1 = Gamma the case-3 value is (P-Gamma)/Gamma / (theta + 1/(lam2*Gamma))
        ch = channel_from_quality(10.0, 1e-4, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        val, tag = gamma2_of_p1(params.Gamma, ch, params)
        G, th, lam2 = params.Gamma, params.theta, params.lambda2
        expect = (ch.P - G) / G / (th + 1.0 / (lam2 * G))
        assert tag is CaseTag.CASE3
        assert val == pytest.approx(expect, rel=1e-12)

    def test_grid_form_matches_scalar(self):
        rng = np.random.default_rng(11)
        instances = [sample_instance(rng) for _ in range(40)]
        # edges: theta in {0, 1}, Gamma in {0, P}, lambda2 = 1e-6*lambda1
        for lam1, lam2, th, G in (
            (20.0, 3.0, 0.0, 0.5),
            (20.0, 3.0, 1.0, 0.5),
            (20.0, 3.0, 0.5, 0.0),
            (20.0, 3.0, 0.5, 2.0),
            (20.0, 2e-5, 0.5, 0.5),
            (20.0, 2e-5, 1.0, 2.0),
            # aligned equal-quality channels: a == b with c = 0 at every p1
            (20.0, 20.0, 1.0, 0.5),
        ):
            ch = channel_from_quality(lam1, lam2, th, 2.0)
            instances.append((ch, derive_params(ch, G * ch.lambda1)))
        grids, scalars = [], []
        for ch, params in instances:
            grid = np.linspace(params.Gamma, ch.P, P1_GRID)
            scalar = [gamma2_of_p1(float(p), ch, params)[0] for p in grid]
            lam1, lam2, th, G = params.lambda1, params.lambda2, params.theta, params.Gamma
            np.testing.assert_allclose(
                _gamma2_at(grid, lam1, lam2, th, G, ch.P),
                scalar,
                rtol=1e-12,
                atol=1e-15,
            )
            grids.append(grid)
            scalars.append(scalar)
        # the batched form: every reduction an (m, 1) column, one row per instance
        cols = [
            np.array([[getattr(params, name)] for _, params in instances])
            for name in ("lambda1", "lambda2", "theta", "Gamma")
        ]
        P = np.array([[ch.P] for ch, _ in instances])
        np.testing.assert_allclose(
            _gamma2_at(np.array(grids), *cols, P),
            np.array(scalars),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_batch_max_matches_scalar_search(self):
        """maximize_gamma2_batch against maximize_gamma2_over_p1, one call per
        shared (lambda1, Gamma, P) with edges theta in {0, 1}, Gamma in {0, P}
        and lambda2 = 1e-6*lambda1 among the rows."""
        rng = np.random.default_rng(17)
        for lam1, P, g in (
            (20.0, 2.0, 0.25),
            (5.0, 10.0, 0.0),
            (50.0, 4.0, 1.0),
            (1.0, 0.5, 0.9),
            # P^2 * lambda beyond the float range, Gamma about 1
            (20.0, 1e160, 1e-160),
        ):
            lam2 = np.concatenate(
                [lam1 * rng.uniform(1e-6, 1.0, 30), [1e-6 * lam1, 1e-6 * lam1, lam1, 0.5 * lam1]]
            )
            theta = np.concatenate([rng.uniform(0.0, 1.0, 30), [0.0, 1.0, 0.0, 1.0]])
            params = [
                derive_params(channel_from_quality(lam1, l2, th, P), g * P * lam1)
                for l2, th in zip(lam2, theta)
            ]
            G = params[0].Gamma
            # the reductions the scalar search sees: theta = 1 can come back
            # one ulp below 1, which matters once Gamma/P is below 1e-16
            batch = maximize_gamma2_batch(
                lam1,
                np.array([prm.lambda2 for prm in params]),
                np.array([prm.theta for prm in params]),
                G,
                P,
            )
            scalar = [
                maximize_gamma2_over_p1(channel_from_quality(lam1, l2, th, P), prm)[1]
                for l2, th, prm in zip(lam2, theta, params)
            ]
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-15)

    def test_batch_with_per_row_targets_matches_one_call_per_target(self):
        # rows of several targets in one call, Gamma per row: each row runs
        # its own step count, so the stacked call equals one call per
        # target bitwise; targets at 0, P, just below P and duplicated
        rng = np.random.default_rng(29)
        lam1, P = 12.0, 3.0
        gammas = [0.4 * P, 0.0, P, P - 1e-11, 0.9 * P, 0.4 * P]
        rows = [rng.integers(1, 6) for _ in gammas]
        lam2 = [lam1 * rng.uniform(1e-6, 1.0, n) for n in rows]
        theta = [rng.uniform(0.0, 1.0, n) for n in rows]
        stacked = maximize_gamma2_batch(
            lam1, np.concatenate(lam2), np.concatenate(theta), np.repeat(gammas, rows), P
        )
        each = [maximize_gamma2_batch(lam1, l2, th, g, P) for l2, th, g in zip(lam2, theta, gammas)]
        assert stacked.tobytes() == np.concatenate(each).tobytes()

    def test_grid_free_search_differential(self):
        """The grid-free search, row-wise and scalar, is never below the
        grid-then-golden reference (_grid_golden_max) nor a 4096-point scan,
        by more than 1e-9 relative.  10^4 draws in groups that share
        (lambda1, Gamma, P); edges: theta at 0 and 1 and within 1e-7 of
        them, lambda2/lambda1 down to 1e-9, Gamma at 0 and at P."""
        rng = np.random.default_rng(23)
        rows = 100
        for k in range(100):
            lam1 = float(np.exp(rng.uniform(0.0, math.log(1e3))))
            P = float(np.exp(rng.uniform(math.log(0.1), math.log(1e3))))
            G = (0.0, P, P * float(rng.uniform()))[min(k % 10, 2)]
            near = 1e-7 * rng.uniform(size=rows)
            u = rng.uniform(size=rows)
            theta = np.select(
                [u < 0.1, u < 0.2, u < 0.35, u < 0.5],
                [0.0, 1.0, near, 1.0 - near],
                rng.uniform(size=rows),
            )
            u = rng.uniform(size=rows)
            lam2 = lam1 * np.select(
                [u < 0.1, u < 0.2], [1e-9, 1.0], np.exp(rng.uniform(math.log(1e-9), 0.0, rows))
            )
            cols = (lam2[:, None], theta[:, None])
            scan = _gamma2_at(np.linspace(G, P, 4096), lam1, *cols, G, P)
            grid = _gamma2_at(np.linspace(G, P, P1_GRID), lam1, *cols, G, P)
            ch = channel_from_quality(lam1, lam1, 1.0, P)  # gamma2_of_p1 reads only P
            new = maximize_gamma2_batch(lam1, lam2, theta, G, P)
            for j in range(rows):
                prm = DerivedParams(lam1, float(lam2[j]), float(theta[j]), G, math.nan)
                _, old = _grid_golden_max(
                    lambda p: gamma2_of_p1(p, ch, prm)[0], lambda _: grid[j], G, P
                )
                ref = (1.0 - 1e-9) * max(old, scan[j].max())
                assert new[j] >= ref, (lam1, lam2[j], theta[j], G, P)
                if j % 10 == 0:
                    assert maximize_gamma2_over_p1(ch, prm)[1] >= ref


def _random_params(rng):
    lam1 = rng.uniform(1.0, 100.0)
    lam2 = lam1 * max(float(rng.uniform(0.0, 1.0)), 1e-9)
    theta = float(rng.uniform(0.0, 1.0))
    P = float(rng.uniform(0.5, 20.0))
    Gamma = P * float(rng.uniform(0.0, 1.0))
    ch = channel_from_quality(lam1, lam2, theta, P)
    return ch, derive_params(ch, Gamma * ch.lambda1)


class TestOptimizeP1:
    def test_matched_filter_limit(self):
        ch = channel_from_quality(10.0, 1e-4, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        sol = optimize_p1(ch, params)
        assert abs(sol.p1 - params.Gamma) <= 1e-2 * params.Gamma
        for w, h in ((sol.w1_scaled, ch.h1), (sol.w2_scaled, ch.h2)):
            cosang = abs(np.vdot(w, h)) / (np.linalg.norm(w) * np.linalg.norm(h))
            assert math.acos(min(cosang, 1.0)) <= 1e-3

    def test_zero_target_gives_all_power_to_user2(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.0)
        sol = optimize_p1(ch, params)
        assert sol.p1 == 0.0
        assert sol.p2 == ch.P
        assert sol.s1 == 0.0
        assert sol.gamma2_star > 0.0

    def test_full_gamma_endpoint(self):
        ch = fig2_channel()
        params = derive_params(ch, ch.P * ch.lambda1)
        sol = optimize_p1(ch, params)
        assert sol.p1 == pytest.approx(ch.P, rel=1e-12)
        assert sol.gamma2_star == pytest.approx(0.0, abs=1e-12)
        assert achieved_user1_sinr(sol, ch) == pytest.approx(
            params.gamma1_star, rel=1e-6
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_solution_invariants_random(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(10):
            ch, params = _random_params(rng)
            sol = optimize_p1(ch, params)
            assert params.Gamma - 1e-12 <= sol.p1 <= ch.P + 1e-12
            assert sol.p2 == pytest.approx(ch.P - sol.p1, abs=1e-12)
            assert sol.alpha1**2 + sol.beta1**2 <= 1.0 + 1e-9
            assert np.linalg.norm(sol.w1_scaled) ** 2 <= sol.p1 + 1e-9
            assert np.linalg.norm(sol.w2_scaled) ** 2 == pytest.approx(
                sol.p2, rel=1e-9, abs=1e-12
            )
            # user-1 constraint met exactly
            assert achieved_user1_sinr(sol, ch) == pytest.approx(
                params.gamma1_star, rel=1e-6, abs=1e-9
            )
            # nominal SINR reproduced by the reconstructed beams
            if sol.gamma2_star > 0:
                assert achieved_gamma2(sol, ch) == pytest.approx(
                    sol.gamma2_star, rel=1e-6
                )
            # constraint in amplitude form
            lhs = (
                math.sqrt(sol.p1)
                * np.linalg.norm(ch.h1)
                * (
                    math.sqrt(params.theta) * sol.alpha1
                    + math.sqrt(1.0 - params.theta) * sol.beta1
                )
            )
            rhs = math.sqrt(params.gamma1_star * ch.sigma1_sq)
            assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.0, 2 * np.pi))
    def test_common_phase_invariance(self, phase):
        ch = fig2_channel()
        z = np.exp(1j * phase)
        ch_rot = TwoUserChannel(z * ch.h1, z * ch.h2, 1.0, 1.0, ch.P)
        params = derive_params(ch, 0.5 * ch.lambda1)
        params_rot = derive_params(ch_rot, 0.5 * ch_rot.lambda1)
        g0 = optimize_p1(ch, params).gamma2_star
        g1 = optimize_p1(ch_rot, params_rot).gamma2_star
        assert g1 == pytest.approx(g0, abs=1e-9, rel=1e-9)


class TestCase3ClosedForm:
    def test_matches_numeric_branch_maximizer(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            ch, params = _random_params(rng)
            if classify_case(ch, params) is not OptRegion.OPT_IN_P3:
                continue
            if params.theta in (0.0, 1.0):
                continue
            p_cf = case3_closed_form_p1(ch, params)
            p_num, _ = maximize_branch_gamma2(ch, params)
            assert p_cf == pytest.approx(p_num, abs=1e-6)
            checked += 1

    def test_branch_search_matches_scan(self):
        """The grid-free maximize_branch_gamma2 is never below a 4096-point
        scan of the case-3 branch by more than 1e-9 relative, on 2,000
        draws; edges: theta at 0 and 1 and within 1e-7 of them,
        lambda2/lambda1 down to 1e-9, Gamma at 0 and at P."""
        rng = np.random.default_rng(31)
        for k in range(2000):
            lam1 = float(np.exp(rng.uniform(0.0, math.log(1e3))))
            P = float(np.exp(rng.uniform(math.log(0.1), math.log(1e3))))
            G = (0.0, P, P * float(rng.uniform()))[min(k % 10, 2)]
            near = 1e-7 * float(rng.uniform())
            th = float(rng.choice([0.0, 1.0, near, 1.0 - near, rng.uniform()], p=[0.1, 0.1, 0.15, 0.15, 0.5]))
            ratio = rng.choice([1e-9, 1.0, np.exp(rng.uniform(math.log(1e-9), 0.0))], p=[0.1, 0.1, 0.8])
            lam2 = lam1 * float(ratio)
            # the branch b^2 + c^2 written out: (P - p1) lambda2 / (lambda2 p1 alpha1^2 + 1)
            p1 = np.linspace(G, P, 4096)
            r = np.minimum(np.divide(G, p1, out=np.zeros_like(p1), where=p1 > 0.0), 1.0)
            a1 = np.where(r <= 1.0 - th, 0.0, np.sqrt(th * r) - np.sqrt((1.0 - th) * (1.0 - r)))
            scan = np.maximum(P - p1, 0.0) * lam2 / (lam2 * p1 * a1 * a1 + 1.0)
            ch = channel_from_quality(lam1, lam1, 1.0, P)  # the branch reads only P from ch
            prm = DerivedParams(lam1, lam2, th, G, math.nan)
            _, best = maximize_branch_gamma2(ch, prm)
            assert best >= (1.0 - 1e-9) * scan.max(), (lam1, lam2, th, G, P)

    def test_converges_to_minimum_power(self):
        prev = None
        for lam2 in (1e-2, 1e-3, 1e-4):
            ch = channel_from_quality(10.0, lam2, 0.5, 10.0)
            params = derive_params(ch, 2.0 * ch.lambda1)
            gap = case3_closed_form_p1(ch, params) - params.Gamma
            assert gap >= 0.0
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev <= 1e-4

    def test_degenerate_theta_signals_fallback(self):
        ch = channel_from_quality(10.0, 0.1, 0.0, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        with pytest.raises(ValueError):
            case3_closed_form_p1(ch, params)


class TestFixedPower:
    def test_equal_quality_aligned_boundary(self):
        ch = channel_from_quality(10.0, 10.0, 1.0, 2.0)
        params = derive_params(ch, 0.2 * ch.lambda1)
        sol = fixed_power_design(ch, params)
        assert sol.gamma2_star == pytest.approx(10.0 / 3.0, rel=1e-12)
        assert sol.case_tag is CaseTag.CASE1  # a = b tie resolves low
        assert sol.p1 == sol.p2 == 1.0

    def test_case1_value_independent_of_theta(self):
        # strong decoding branch binds for every theta in its region
        vals = []
        for th in (0.75, 0.8, 0.85, 0.9):
            ch = channel_from_quality(10.0, 9.0, th, 2.0)
            params = derive_params(ch, 0.05 * ch.lambda1)
            sol = fixed_power_design(ch, params)
            if sol.case_tag is CaseTag.CASE1:
                assert sol.alpha2 == 1.0
                vals.append(sol.gamma2_star)
        assert len(vals) >= 2
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_infeasible_gamma(self):
        ch = fig2_channel()
        params = derive_params(ch, 1.5 * ch.lambda1)  # Gamma = 1.5 > 1
        with pytest.raises(InfeasibleTargetError):
            fixed_power_design(ch, params)

    def test_matches_alpha2_grid_oracle(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0.0, 1.0, 20001)
        for _ in range(20):
            lam1 = rng.uniform(1.0, 50.0)
            lam2 = lam1 * rng.uniform(0.05, 1.0)
            th = float(rng.uniform(0.0, 1.0))
            G = float(rng.uniform(0.0, 1.0))
            ch = channel_from_quality(lam1, lam2, th, 2.0)
            params = derive_params(ch, G * ch.lambda1)
            sol = fixed_power_design(ch, params)
            a1 = alpha1_star_fixed(params.theta, min(params.Gamma, 1.0))
            den = params.lambda2 * a1 * a1 + 1.0
            a = math.sqrt(params.lambda1 / (1.0 + params.Gamma * params.lambda1))
            b = math.sqrt(params.lambda2 * params.theta / den)
            c = math.sqrt(params.lambda2 * (1.0 - params.theta) / den)
            vals = np.minimum(a * grid, b * grid + c * np.sqrt(1.0 - grid**2))
            assert sol.gamma2_star == pytest.approx(
                float(np.max(vals)) ** 2, rel=1e-4
            )


class TestParetoBoundary:
    def test_endpoint_and_monotonicity(self):
        ch = fig2_channel()
        pts = pareto_boundary(ch, 21)
        assert pts[-1][2] == pytest.approx(0.0, abs=1e-9)
        r2 = [p[2] for p in pts]
        assert all(b <= a + 1e-9 for a, b in zip(r2, r2[1:]))

    def test_power_allocation_dominates_fixed(self):
        ch = fig2_channel()
        rows = pareto_boundary(ch, 21)
        # R2_fixed is nan exactly where Gamma > 1, at the end of the grid
        fixed = [row for row in rows if not math.isnan(row[1])]
        assert fixed and all(math.isnan(row[1]) for row in rows[len(fixed) :])
        for _, r2_fixed, r2_pow in fixed:
            assert r2_pow >= r2_fixed - 1e-9

    def test_points_match_single_calls(self):
        ch = fig2_channel()
        pts = pareto_boundary(ch, 5)
        for r1, r2_fixed, r2 in pts:
            G = (2.0**r1 - 1.0) / ch.lambda1
            params = derive_params(ch, G * ch.lambda1)
            sol = optimize_p1(ch, params)
            assert r2 == pytest.approx(math.log2(1.0 + sol.gamma2_star), abs=1e-9)
            if not math.isnan(r2_fixed):
                sol = fixed_power_design(ch, params)
                assert r2_fixed == pytest.approx(math.log2(1.0 + sol.gamma2_star), abs=1e-9)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            pareto_boundary(fig2_channel(), 1)
