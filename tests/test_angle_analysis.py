import math

import numpy as np
import pytest

from misonoma.angle_analysis import (
    PowerBranch,
    ThetaBand,
    ThetaRegion,
    _beam_angle,
    classify_theta_region,
    gamma2_fixed_vs_theta,
    gamma2_simple_power,
    optimal_theta_region,
    matched_filter_limit_check,
)
from misonoma.two_user_core import (
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
        with pytest.raises(ValueError):
            gamma2_fixed_vs_theta(0.5, 10.0, 1.0, 1.5)


class TestClassifyThetaRegion:
    def test_aligned_is_weakest_region(self):
        assert classify_theta_region(1.0, 10.0, 3.0, 0.2) is ThetaRegion.N3

    def test_near_orthogonal_is_crossing_region(self):
        assert classify_theta_region(1e-9, 10.0, 3.0, 0.2) is ThetaRegion.N2

    def test_boundaries_match_sign_changes(self):
        lam1, lam2, G = 10.0, 3.0, 0.2
        grid = np.linspace(1e-6, 1.0, 10001)
        regions = [classify_theta_region(float(t), lam1, lam2, G) for t in grid]
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
            assert classify_theta_region(*args).value == sol.case_tag.value


class TestOptimalThetaRegion:
    def test_equal_quality_band_covers_all_targets(self):
        res = optimal_theta_region(10.0, 10.0, 0.2)
        assert res.branch is ThetaBand.IN_BAND
        assert res.gamma_bounds[0] == pytest.approx(0.0, abs=1e-12)
        assert res.gamma_bounds[1] == pytest.approx(1.0, rel=1e-12)
        # 1/(1+Gamma*lam1) = 1/3 <= 1-Gamma so theta0 = 1/3
        assert res.theta0 == pytest.approx(1.0 / 3.0, rel=1e-12)
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

    def test_stationary_angle_matches_scan(self):
        """Above the band the golden-section angle is never below a
        4096-angle scan of the fixed-power SINR by more than 1e-9 relative,
        on 500 draws; edges: lambda2/lambda1 at 1 and down to 1e-9, Gamma
        at 1 and within 1e-7 of it."""
        rng = np.random.default_rng(37)
        grid = np.linspace(0.0, 1.0, 4096)
        checked = 0
        while checked < 500:
            lam1 = float(np.exp(rng.uniform(0.0, math.log(1e3))))
            ratio = rng.choice([1e-9, 1.0, np.exp(rng.uniform(math.log(1e-9), 0.0))], p=[0.1, 0.1, 0.8])
            lam2 = lam1 * float(ratio)
            G = float(rng.choice([1.0, 1.0 - 1e-7 * rng.uniform(), rng.uniform()], p=[0.1, 0.1, 0.8]))
            res = optimal_theta_region(lam1, lam2, G)
            if res.branch is not ThetaBand.HIGH_OUT_OF_BAND:
                continue
            # the SINR at p1 = 1 of a design with P = 2 is the fixed-power SINR
            with np.errstate(divide="ignore", invalid="ignore"):
                scan = _gamma2_vec(lam1, lam2, grid, G, 2.0)(np.ones_like(grid))
            best = gamma2_fixed_vs_theta(res.theta0, lam1, lam2, G)
            assert best >= (1.0 - 1e-9) * scan.max(), (lam1, lam2, G)
            checked += 1

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

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            gamma2_simple_power(0.5, 10.0, 1.0, -1e-3, 10.0)

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
            val, _ = gamma2_of_p1(params.Gamma, ch, params)
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
