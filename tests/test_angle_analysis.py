import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from misonoma.angle_analysis import (
    PowerBranch,
    ThetaBand,
    _beam_angle,
    _solve_case_boundary,
    angle_sweep,
    gamma2_fixed_vs_theta,
    gamma2_simple_power,
    optimal_theta_region,
    matched_filter_limit_check,
)
from misonoma.two_user_core import (
    CaseTag,
    InfeasibleTargetError,
    _fixed_case,
    _gamma2_vec,
    channel_from_quality,
    derive_params,
    fixed_power_design,
    gamma2_of_p1,
    optimize_p1,
)


class TestGamma2FixedVsTheta:
    def test_equal_quality_aligned(self):
        assert gamma2_fixed_vs_theta(1.0, 10.0, 10.0, 0.2) == pytest.approx(
            10.0 / 3.0, rel=1e-12
        )

    def test_plateau_constant_in_strong_branch_region(self):
        region = optimal_theta_region(10.0, 10.0, 0.2)
        vals = [
            gamma2_fixed_vs_theta(th, 10.0, 10.0, 0.2)
            for th in np.linspace(region.theta_opt_low + 1e-6, 1.0, 50)
        ]
        assert max(vals) - min(vals) <= 1e-12 * max(vals)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            gamma2_fixed_vs_theta(1.2, 10.0, 1.0, 0.5)
        # nonpositive or NaN channel qualities, named in the message
        for lam1, lam2, name in ((-1.0, -2.0, "lambda1"), (math.nan, 1.0, "lambda1"), (10.0, 0.0, "lambda2")):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                gamma2_fixed_vs_theta(0.5, lam1, lam2, 0.5)
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                optimal_theta_region(lam1, lam2, 0.5)
        for G in (1.5, -0.5, math.nan):
            with pytest.raises(InfeasibleTargetError, match="Gamma="):
                gamma2_fixed_vs_theta(0.5, 10.0, 1.0, G)
            with pytest.raises(InfeasibleTargetError, match="Gamma="):
                optimal_theta_region(10.0, 1.0, G)
        # the unit-power bound admits round-off above 1, clamped to 1
        at_one = gamma2_fixed_vs_theta(0.5, 10.0, 1.0, 1.0)
        assert gamma2_fixed_vs_theta(0.5, 10.0, 1.0, 1.0 + 1e-13) == at_one
        assert optimal_theta_region(10.0, 1.0, 1.0 + 1e-13) == optimal_theta_region(10.0, 1.0, 1.0)


class TestClassifyThetaRegion:
    # the fixed-power case tag, select_case at unit powers
    def test_aligned_is_weakest_region(self):
        assert _fixed_case(1.0, 10.0, 3.0, 0.2)[1] is CaseTag.CASE3

    def test_near_orthogonal_is_crossing_region(self):
        assert _fixed_case(1e-9, 10.0, 3.0, 0.2)[1] is CaseTag.CASE2

    def test_boundaries_match_sign_changes(self):
        lam1, lam2, G = 10.0, 3.0, 0.2
        grid = np.linspace(1e-6, 1.0, 10001)
        regions = [_fixed_case(float(t), lam1, lam2, G)[1] for t in grid]
        # region index can only change where a coefficient comparison flips
        changes = sum(1 for a, b in zip(regions, regions[1:]) if a is not b)
        assert changes <= 3

    def test_matches_fixed_power_design(self):
        rng = np.random.default_rng(13)
        draws = [
            (rng.uniform(1.0, 100.0), rng.uniform(1e-6, 1.0), rng.uniform(), rng.uniform())
            for _ in range(40)
        ]
        # edges: theta in {0, 1}, Gamma in {0, 1}, lambda2 = 1e-6*lambda1
        draws += [
            (10.0, 0.3, 0.0, 0.4),
            (10.0, 0.3, 1.0, 0.4),
            (10.0, 0.3, 0.5, 0.0),
            (10.0, 0.3, 0.5, 1.0),
            (10.0, 1e-6, 0.5, 0.4),
        ]
        for lam1, ratio, th, G in draws:
            ch = channel_from_quality(lam1, ratio * lam1, th, 2.0)
            params = derive_params(ch, G * ch.lambda1)
            sol = fixed_power_design(ch, params)
            args = (params.theta, params.lambda1, params.lambda2, params.Gamma)
            assert gamma2_fixed_vs_theta(*args) == sol.gamma2_star
            assert _fixed_case(*args)[1] is sol.case_tag


class TestOptimalThetaRegion:
    def test_equal_quality_band_covers_all_targets(self):
        res = optimal_theta_region(10.0, 10.0, 0.2)
        assert res.branch is ThetaBand.IN_BAND
        assert res.gamma_bounds[0] == pytest.approx(0.0, abs=1e-12)
        assert res.gamma_bounds[1] == pytest.approx(1.0, rel=1e-12)
        # 1/(1+Gamma*lam1) = 1/3 <= 1-Gamma so theta0 = 1/3
        assert res.theta_opt_low == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert res.theta_opt_high == pytest.approx(1.0, rel=1e-12)

    def test_low_out_of_band_plateau(self):
        res = optimal_theta_region(10.0, 0.5, 0.3)
        assert res.branch is ThetaBand.LOW_OUT_OF_BAND
        assert res.theta_opt_low == pytest.approx(0.05 * (1.0 + 3.0), rel=1e-12)
        assert res.theta_opt_high == pytest.approx(0.7, rel=1e-12)

    def test_grid_argmax_inside_region(self):
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 2001)
        step = float(grid[1] - grid[0])
        for _ in range(100):
            lam1 = float(rng.uniform(1.0, 50.0))
            lam2 = lam1 * float(rng.uniform(0.05, 1.0))
            G = float(rng.uniform(0.0, 1.0))
            res = optimal_theta_region(lam1, lam2, G)
            vals = [gamma2_fixed_vs_theta(float(t), lam1, lam2, G) for t in grid]
            th_best = float(grid[int(np.argmax(vals))])
            assert res.theta_opt_low - step <= th_best <= res.theta_opt_high + step

    @staticmethod
    def _high_out_of_band_draws(n):
        """n draws (lam1, lam2, Gamma, region) above the band; edges:
        lambda2/lambda1 at 1 and down to 1e-9, Gamma at 1 and within 1e-7
        of it."""
        rng = np.random.default_rng(37)
        checked = 0
        while checked < n:
            lam1 = float(np.exp(rng.uniform(0.0, math.log(1e3))))
            ratio = rng.choice([1e-9, 1.0, np.exp(rng.uniform(math.log(1e-9), 0.0))], p=[0.1, 0.1, 0.8])
            lam2 = lam1 * float(ratio)
            G = float(rng.choice([1.0, 1.0 - 1e-7 * rng.uniform(), rng.uniform()], p=[0.1, 0.1, 0.8]))
            res = optimal_theta_region(lam1, lam2, G)
            if res.branch is not ThetaBand.HIGH_OUT_OF_BAND:
                continue
            yield lam1, lam2, G, res
            checked += 1

    def test_stationary_angle_matches_scan(self):
        """Above the band the golden-section angle is never below a
        4096-angle scan of the fixed-power SINR by more than 1e-9 relative,
        on 500 draws."""
        grid = np.linspace(0.0, 1.0, 4096)
        for lam1, lam2, G, res in self._high_out_of_band_draws(500):
            # the SINR at p1 = 1 of a design with P = 2 is the fixed-power SINR
            with np.errstate(divide="ignore", invalid="ignore"):
                scan = _gamma2_vec(lam1, lam2, grid, G, 2.0)(np.ones_like(grid))
            best = gamma2_fixed_vs_theta(res.theta_opt_low, lam1, lam2, G)
            assert best >= (1.0 - 1e-9) * scan.max(), (lam1, lam2, G)

    def test_case_boundary_is_case_tag_flip(self):
        """The case-2/3 boundary that bounds the stationary-angle search
        lies where select_case's tag turns to case 3, to 1e-12 relative, on
        the draws of test_stationary_angle_matches_scan; and it is bitwise
        the angle of a fixed 200-step bisection, which the solver cuts
        short once the midpoint repeats an end."""
        for lam1, lam2, G, _ in self._high_out_of_band_draws(500):
            theta_a = _solve_case_boundary(lam1, lam2, G)
            ref = 1.0
            if _fixed_case(1.0, lam1, lam2, G)[1] is CaseTag.CASE3:
                lo, hi = 1e-15, 1.0
                for _ in range(200):
                    mid = 0.5 * (lo + hi)
                    if _fixed_case(mid, lam1, lam2, G)[1] is CaseTag.CASE3:
                        hi = mid
                    else:
                        lo = mid
                ref = 0.5 * (lo + hi)
            assert theta_a == ref, (lam1, lam2, G)
            below = _fixed_case(theta_a * (1.0 - 1e-12), lam1, lam2, G)[1]
            assert below is not CaseTag.CASE3, (lam1, lam2, G)
            if theta_a < 1.0:
                above = _fixed_case(min(theta_a * (1.0 + 1e-12), 1.0), lam1, lam2, G)[1]
                assert above is CaseTag.CASE3, (lam1, lam2, G)

    def test_region_attains_grid_max_in_band(self):
        lam1, lam2, G = 12.0, 8.0, 0.3
        res = optimal_theta_region(lam1, lam2, G)
        assert res.branch is ThetaBand.IN_BAND
        grid = np.linspace(0.0, 1.0, 10001)
        vals = np.array([gamma2_fixed_vs_theta(float(t), lam1, lam2, G) for t in grid])
        vmax = float(vals.max())
        inside = (grid >= res.theta_opt_low + 1e-4) & (grid <= res.theta_opt_high - 1e-4)
        assert np.all(vals[inside] >= vmax * (1.0 - 1e-12))


class TestSimplePower:
    def test_mid_asymmetry_point(self):
        res = gamma2_simple_power(0.9, 10.0, 1.0, 2.0, 10.0)
        assert res.theta1 == pytest.approx(0.8047511554864493, rel=1e-12)
        assert res.branch is PowerBranch.ABOVE_THETA1
        assert res.gamma2 == pytest.approx(4.0 / 1.4, rel=1e-12)

    def test_aligned_always_above_branch(self):
        for lam2 in (0.1, 1.0, 9.9):
            res = gamma2_simple_power(1.0, 10.0, lam2, 2.0, 10.0)
            assert res.branch is PowerBranch.ABOVE_THETA1
            expect = (10.0 - 2.0) / 2.0 / (1.0 + 1.0 / (lam2 * 2.0))
            assert res.gamma2 == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize(
        "lam1, lam2, Gamma",
        [(10.0, 1.0, 1e-12 * 10.0), (10.0, 1.0, 1e-9 * 10.0), (10.0, 1.0, 2.0), (10.0, 0.1, 10.0),
         (10.0, 1e-100, 1e-150)],
    )
    def test_theta1_against_decimal_reference(self, lam1, lam2, Gamma):
        # (-x + sqrt(x^2 + 4(y+1)))/2 in 600 digits from the same floats, more
        # than its cancellation costs; at Gamma = 1e-12 P the plain float
        # form lost 1.5e-5 relative, and at lambda2*Gamma = 1e-250 its x^2
        # overflows
        with localcontext() as ctx:
            ctx.prec = 600
            x = 1 / (Decimal(lam2) * Decimal(Gamma))
            y = 1 / (Decimal(lam1) * Decimal(Gamma))
            ref = (-x + (x * x + 4 * (y + 1)).sqrt()) / 2
        theta1 = gamma2_simple_power(0.5, lam1, lam2, Gamma, 10.0).theta1
        assert abs(Decimal(theta1) - ref) <= Decimal("1e-14") * ref

    def test_negative_gamma_rejected(self):
        for G in (-1e-3, math.nan, 10.5):
            with pytest.raises(InfeasibleTargetError, match="Gamma="):
                gamma2_simple_power(0.5, 10.0, 1.0, G, 10.0)
        # and nonpositive or NaN channel qualities, named in the message
        for lam1, lam2, name in ((10.0, 0.0, "lambda2"), (math.nan, 1.0, "lambda1"), (-1.0, -2.0, "lambda1")):
            with pytest.raises(ValueError, match=f"{name} must be positive"):
                gamma2_simple_power(0.5, lam1, lam2, 1.0, 2.0)
        # round-off above P is clamped to P, where nothing is left for user 2
        assert gamma2_simple_power(0.5, 10.0, 1.0, 10.0 * (1.0 + 1e-13), 10.0).gamma2 == 0.0

    @pytest.mark.parametrize("lam1, lam2", [(10.0, 1.0), (10.0, 0.1), (10.0, 10.0), (100.0, 1e-3)])
    def test_zero_gamma_is_the_limit(self, lam1, lam2):
        # Gamma = 0 takes each branch's limit: within 1e-9 of Gamma = 1e-12 P,
        # P*lambda2 above theta1 = lambda2/lambda1, never above the design
        P, seen = 10.0, set()
        for th in np.linspace(0.0, 1.0, 201):
            res = gamma2_simple_power(float(th), lam1, lam2, 0.0, P)
            near = gamma2_simple_power(float(th), lam1, lam2, 1e-12 * P, P)
            assert res.theta1 == lam2 / lam1
            assert res.gamma2 == pytest.approx(near.gamma2, rel=1e-9)
            if res.branch is PowerBranch.ABOVE_THETA1:
                assert res.gamma2 == P * lam2
            ch = channel_from_quality(lam1, lam2, float(th), P)
            assert res.gamma2 <= optimize_p1(ch, derive_params(ch, 0.0)).gamma2_star * (1 + 1e-12)
            seen.add(res.branch)
        assert seen == set(PowerBranch) or lam1 == lam2

    @pytest.mark.parametrize("lam2", [10.0, 1.0, 0.1])
    def test_matches_minimum_power_evaluation(self, lam2):
        for th in np.linspace(0.0, 1.0, 101):
            ch = channel_from_quality(10.0, lam2, float(th), 10.0)
            params = derive_params(ch, 2.0 * ch.lambda1)
            val, _ = gamma2_of_p1(params.Gamma, params, ch.P)
            res = gamma2_simple_power(
                ch.theta, params.lambda1, params.lambda2, params.Gamma, ch.P
            )
            assert res.gamma2 == pytest.approx(val, rel=1e-9)

    def test_never_beats_full_optimization(self):
        for th in np.linspace(0.0, 1.0, 41):
            ch = channel_from_quality(10.0, 1.0, float(th), 10.0)
            params = derive_params(ch, 2.0 * ch.lambda1)
            res = gamma2_simple_power(
                ch.theta, params.lambda1, params.lambda2, params.Gamma, ch.P
            )
            assert res.gamma2 <= optimize_p1(ch, params).gamma2_star + 1e-9

    def test_symmetric_qualities_close_at_aligned_angle(self):
        ch = channel_from_quality(10.0, 10.0, 1.0, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        opt = optimize_p1(ch, params).gamma2_star
        simple = gamma2_simple_power(
            ch.theta, params.lambda1, params.lambda2, params.Gamma, ch.P
        ).gamma2
        assert abs(opt - simple) / opt <= 0.05


def _sweep_draws(rng, n):
    """Edge-weighted angle-sweep arguments (lambda1, lambda2, Gamma, P,
    points): lambda2/lambda1 equal to 1, 1e-6 or log-uniform in between,
    Gamma at 0, at P or uniform on [0, P], 1, 2 or 201 angles, and P below
    or above 2; 54 draws give every combination of the four."""
    for k in range(n):
        lam1 = float(np.exp(rng.uniform(0.0, math.log(100.0))))
        ratio = (1.0, 1e-6, float(np.exp(rng.uniform(math.log(1e-6), 0.0))))[k % 3]
        P = float(rng.uniform(0.5, 2.0) if k % 2 else rng.uniform(2.0, 20.0))
        G = (0.0, P, float(rng.uniform(0.0, P)))[k // 3 % 3]
        yield lam1, lam1 * ratio, G, P, (1, 2, 201)[k // 9 % 3]


def _per_point_row(lam1, lam2, G, P, theta):
    """The per-point reference for one angle: a channel, derive_params and
    an optimize_p1 beam design, plus the simple rule on the channel's
    reductions; also the target that derive_params checked and clamped."""
    ch = channel_from_quality(lam1, lam2, theta, P)
    params = derive_params(ch, G * ch.lambda1)
    simple = gamma2_simple_power(params.theta, params.lambda1, params.lambda2, params.Gamma, P)
    return optimize_p1(ch, params).gamma2_star, simple.gamma2, params.Gamma


class TestAngleSweep:
    def test_matches_per_point_design(self):
        for lam1, lam2, G, P, n in _sweep_draws(np.random.default_rng(21), 54):
            rows = angle_sweep(lam1, lam2, G, P, n)
            assert [r[0] for r in rows] == np.linspace(0.0, 1.0, n).tolist()
            for theta, *got in rows:
                *want, G_ref = _per_point_row(lam1, lam2, G, P, theta)
                for g, w in zip(got, want):
                    if G == P and G_ref < P:
                        # G*lambda1/lambda1 rounded an ulp below P: the
                        # reference gives the weak user that ulp of power
                        assert g == 0.0 and 0.0 <= w <= (P - G_ref) * lam2 * (1.0 + 1e-9)
                    else:  # exact where both are 0
                        assert g == pytest.approx(w, rel=1e-12, abs=0.0), (lam1, lam2, G, P)

    @pytest.mark.parametrize(
        "lam1, lam2, G, P",
        [
            (0.0, 0.0, 1.0, 2.0), (-1.0, -2.0, 1.0, 2.0), (1.0, 0.0, 1.0, 2.0),
            (math.inf, 1.0, 1.0, 2.0), (math.nan, 1.0, 1.0, 2.0),
            (1.0, 2.0, 1.0, 2.0), (1.0 - 1e-10, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, 2.0),
            (4.0, 1.0, 1.0, 0.0), (4.0, 1.0, 1.0, -1.0), (4.0, 1.0, 1.0, math.nan),
            (4.0, 1.0, 1.0, math.inf), (4.0, 1.0, -1.0, 2.0), (4.0, 1.0, 2.5, 2.0),
            (4.0, 1.0, math.nan, 2.0), (4.0, 1.0, 2.0, 2.0), (4.0, 1.0, 0.0, 2.0),
        ],
    )
    def test_rejects_what_the_channel_path_rejects(self, lam1, lam2, G, P):
        # the same exception class, or none, on both paths
        outcomes = []
        for sweep in (
            lambda: angle_sweep(lam1, lam2, G, P, 3),
            lambda: [_per_point_row(lam1, lam2, G, P, th) for th in (0.0, 0.5, 1.0)],
        ):
            try:
                sweep()
                outcomes.append(None)
            except ValueError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1]


class TestMatchedFilterLimit:
    def test_monotone_convergence(self):
        rows = matched_filter_limit_check(10.0, 2.0, 10.0, 0.5, [1e-2, 1e-3, 1e-4])
        gaps = [abs(p1 - 2.0) for _, p1, _, _ in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        ang1 = [a for _, _, a, _ in rows]
        assert ang1[0] > ang1[1] > ang1[2]
        ang2 = [a for _, _, _, a in rows]
        assert max(ang2) <= 1e-9
        # the angle reading resolves angles far below the 1e-9 bound
        w = 3.0 * np.exp(0.7j) * np.array([math.cos(1e-12), math.sin(1e-12)])
        assert _beam_angle(w, np.array([2.0j, 0.0])) == pytest.approx(1e-12, rel=1e-9)

    def test_limit_value(self):
        rows = matched_filter_limit_check(10.0, 2.0, 10.0, 0.5, [1e-4])
        lam2, p1, _, _ = rows[0]
        ch = channel_from_quality(10.0, lam2, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        sol = optimize_p1(ch, params)
        expect = (10.0 - 2.0) / 2.0 / (0.5 + 1.0 / (lam2 * 2.0))
        assert sol.gamma2_star == pytest.approx(expect, rel=1e-2)

    def test_zero_theta_rejected(self):
        with pytest.raises(ValueError):
            matched_filter_limit_check(10.0, 2.0, 10.0, 0.0, [1e-2, 1e-3])

    def test_non_decreasing_sequence_rejected(self):
        with pytest.raises(ValueError):
            matched_filter_limit_check(10.0, 2.0, 10.0, 0.5, [1e-3, 1e-2])
