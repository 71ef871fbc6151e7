import dataclasses
import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misonoma import two_user_core
from misonoma.complex_linalg import angle_theta
from misonoma.golden import golden_section_max, vector_golden_section_max
from misonoma.oracle import sample_instance
from misonoma.two_user_core import (
    P1_GRID,
    P1_XTOL,
    CaseTag,
    DerivedParams,
    InfeasibleTargetError,
    OptRegion,
    TwoUserChannel,
    _alpha1,
    _coeffs,
    _fixed_case,
    _gamma2_vec,
    _region_vec,
    _tau,
    case3_closed_form_p1,
    channel_from_quality,
    classify_case,
    derive_params,
    fixed_power_design,
    gamma2_bounds,
    gamma2_of_p1,
    maximize_branch_gamma2,
    maximize_gamma2_batch,
    maximize_gamma2_over_p1,
    optimize_p1,
    pareto_boundary,
    select_case,
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


def _abc(p1, ch, params):
    """The inner coefficients (a, b, c) of the design at user-1 power p1."""
    return _coeffs(params.lambda1, params.lambda2, params.theta, params.Gamma, p1, ch.P - p1)


def _tau_of(params):
    """The region-test threshold tau of a reduction."""
    return _tau(params.lambda1, params.lambda2, params.theta, params.Gamma)


def _realized_sinrs(sol, ch):
    """(user-1 SINR, user-2 SINR) that the scaled beams realize; user 1
    cancels user 2's signal first."""
    gamma2 = min(sol.r1 / (sol.s1 + ch.sigma1_sq), sol.s2 / (sol.r2 + ch.sigma2_sq))
    return sol.s1 / ch.sigma1_sq, gamma2


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


def _edge_draws(rng, groups=100, rows=100, lam1_range=(1e-3, 1e4)):
    """groups x rows draws (lambda1, lambda2, theta, Gamma, P) that share
    (lambda1, Gamma, P) within a group; edges: theta at 0 and 1 and within
    1e-7 of them, lambda2/lambda1 down to 1e-9, Gamma at 0 and at P."""
    for k in range(groups):
        lam1 = float(np.exp(rng.uniform(*map(math.log, lam1_range))))
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
        yield lam1, lam2, theta, G, P


class TestDerivedParams:
    def test_fig2_values(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert params.lambda1 == pytest.approx(20.0, rel=1e-12)
        assert params.lambda2 == pytest.approx(3.0, rel=1e-12)
        assert params.theta == pytest.approx(0.5, abs=1e-12)
        # tau = (1/lam1 + Gamma)/theta - 1/lam2 = 2*(0.05+0.5) - 1/3
        assert _tau_of(params) == pytest.approx(0.7666666666666667, rel=1e-12)

    def test_zero_target(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.0)
        assert params.Gamma == 0.0
        assert _tau_of(params) == pytest.approx(1.0 / 0.5 / 20.0 - 1.0 / 3.0, rel=1e-9)

    def test_infeasible_target(self):
        ch = fig2_channel()
        with pytest.raises(InfeasibleTargetError, match=r"Gamma=2\.5 outside \[0, 2\]"):
            derive_params(ch, 2.5 * ch.lambda1)  # Gamma = 2.5 > P = 2
        for gamma1 in (-1e-9, math.nan):
            with pytest.raises(InfeasibleTargetError, match="Gamma="):
                derive_params(ch, gamma1)
        # round-off above P is admitted and clamped to P
        assert derive_params(ch, 2.0 * (1.0 + 1e-13) * ch.lambda1).Gamma == ch.P

    def test_ordering_validated_on_channel(self):
        with pytest.raises(ValueError):
            TwoUserChannel([1.0, 0.0], [2.0, 0.0], 1.0, 1.0, 1.0)

    def test_zero_channel_rejected(self):
        for h1, h2 in (([0.0, 0.0], [0.0, 0.0]), ([1.0, 0.0], [0.0, 0.0])):
            with pytest.raises(ValueError, match="nonzero"):
                TwoUserChannel(h1, h2, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("name", ["sigma1_sq", "sigma2_sq", "P"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_noise_or_power_rejected(self, name, value):
        args = dict(h1=[2.0, 0.0], h2=[0.5, 0.5], sigma1_sq=1.0, sigma2_sq=2.0, P=2.0)
        args[name] = value
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            TwoUserChannel(**args)

    def test_reductions_stored_on_construction(self):
        h1, h2 = np.array([3.0, 1j]), np.array([1.0 - 1j, 0.5])
        ch = TwoUserChannel(h1, h2, 2.0, 0.5, 4.0)
        assert ch.lambda1 == 10.0 / 2.0 and ch.lambda2 == 2.25 / 0.5
        assert ch.theta == angle_theta(h1, h2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ch.P = 5.0

    @pytest.mark.parametrize(
        "lam1, lam2, name",
        [
            (0.0, 0.0, "lambda1"), (-1.0, -2.0, "lambda1"), (math.nan, 1.0, "lambda1"),
            (20.0, 0.0, "lambda2"), (20.0, -2.0, "lambda2"), (20.0, math.nan, "lambda2"),
            (math.inf, 1.0, "lambda1"), (20.0, math.inf, "lambda2"),
        ],
    )
    def test_nonpositive_quality_rejected(self, lam1, lam2, name):
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            channel_from_quality(lam1, lam2, 0.5, 2.0)
        # the fixed-power rule checks them too (check_positive)
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            _fixed_case(0.5, lam1, lam2, 0.5)


class TestAlpha1:
    def test_fixed_zero_branch(self):
        assert _alpha1(0.5, 0.3, 1.0) == 0.0

    def test_fixed_corner(self):
        assert _alpha1(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_fixed_generic_against_grid(self):
        val = _alpha1(0.8, 0.5, 1.0)
        assert val == pytest.approx(0.316227766016838, rel=1e-12)
        assert val == pytest.approx(_min_alpha1_by_grid(0.8, 0.5, 1.0), abs=1e-3)

    def test_p1_at_minimum_power_is_sqrt_theta(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert _alpha1(params.theta, params.Gamma, params.Gamma) == pytest.approx(
            math.sqrt(params.theta), rel=1e-12
        )

    def test_theta_zero_always_zero(self):
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        for p1 in (params.Gamma, 1.0, 2.0):
            assert _alpha1(params.theta, params.Gamma, p1) == 0.0

    def test_generic_against_grid(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        val = _alpha1(params.theta, params.Gamma, 0.8)
        assert val == pytest.approx(0.12600429248272815, rel=1e-12)
        assert val == pytest.approx(_min_alpha1_by_grid(0.5, 0.5, 0.8), abs=1e-3)

    def test_below_minimum_power_rejected(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        with pytest.raises(InfeasibleTargetError):
            _alpha1(params.theta, params.Gamma, 0.25 * params.Gamma)


class TestCaseCoefficients:
    def test_full_power_all_zero(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        a, b, c = _abc(ch.P, ch, params)
        assert a == b == c == 0.0

    def test_theta_zero_b_zero_d_inf(self):
        # b = 0 puts the case-2/3 boundary b + c^2/b at +inf: never case 3
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        a, b, c = _abc(1.0, ch, params)
        assert b == 0.0
        assert select_case(a, b, c, params.theta)[1] is CaseTag.CASE2

    def test_a_squared_value(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        a, _, _ = _abc(0.5, ch, params)
        # (P - p1) * lam1 / (1 + Gamma*lam1) = 1.5 * 20 / 11
        assert a**2 == pytest.approx(30.0 / 11.0, rel=1e-12)


class TestClassify:
    def test_fig2_case2(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert params.theta * params.Gamma < _tau_of(params)
        assert classify_case(params, ch.P) is OptRegion.OPT_IN_P2

    def test_negative_tau_case3(self):
        ch = channel_from_quality(10.0, 0.1, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        assert _tau_of(params) < 0
        assert classify_case(params, ch.P) is OptRegion.OPT_IN_P3

    def test_vanishing_weak_quality_case3(self):
        ch = channel_from_quality(10.0, 1e-6, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        assert classify_case(params, ch.P) is OptRegion.OPT_IN_P3

    def test_theta_zero_case2(self):
        ch = channel_from_quality(20.0, 3.0, 0.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert classify_case(params, ch.P) is OptRegion.OPT_IN_P2

    def test_theta_one_case3(self):
        ch = channel_from_quality(20.0, 3.0, 1.0, 2.0)
        params = derive_params(ch, 0.5 * ch.lambda1)
        assert classify_case(params, ch.P) is OptRegion.OPT_IN_P3

    def test_aligned_equal_quality_case3(self):
        # lambda1 == lambda2 at theta = 1: tau can round an ulp above
        # theta*Gamma = Gamma, which must not make the prediction case 2;
        # the optimum is p1 = Gamma (pure power control)
        aligned = 0
        for lam in np.logspace(-2.0, 2.0, 50):
            for G in np.linspace(0.0, 2.0, 41):
                ch = channel_from_quality(lam, lam, 1.0, 2.0)
                params = derive_params(ch, G * ch.lambda1)
                if params.theta == 1.0:  # a few come back one ulp below 1
                    aligned += 1
                    assert classify_case(params, ch.P) is OptRegion.OPT_IN_P3, (lam, G)
        assert aligned >= 2000


class TestGamma2OfP1:
    def test_full_power_zero(self):
        ch = fig2_channel()
        params = derive_params(ch, 0.5 * ch.lambda1)
        val, tag = gamma2_of_p1(ch.P, params, ch.P)
        assert val == 0.0
        assert tag is CaseTag.CASE1

    def test_small_lambda2_limit_at_minimum_power(self):
        # at p1 = Gamma the case-3 value is (P-Gamma)/Gamma / (theta + 1/(lam2*Gamma))
        ch = channel_from_quality(10.0, 1e-4, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        val, tag = gamma2_of_p1(params.Gamma, params, ch.P)
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
            scalar = [gamma2_of_p1(float(p), params, ch.P)[0] for p in grid]
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
            scalar = [maximize_gamma2_over_p1(prm, P)[1] for prm in params]
            np.testing.assert_allclose(batch, scalar, rtol=1e-12, atol=1e-15)

    def test_batch_with_per_row_targets_matches_one_call_per_target(self):
        # rows of several targets in one call, Gamma per row: the case-2
        # rows are solved elementwise, each frozen once it converges, so the
        # stacked call equals one call per target bitwise; targets at 0, P,
        # just below P and duplicated
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
        """The region solve (row-wise) and the scalar search are never below the
        grid-then-golden reference (_grid_golden_max) nor a 4096-point scan,
        by more than 1e-9 relative.  10^4 draws in groups that share
        (lambda1, Gamma, P); edges: theta at 0 and 1 and within 1e-7 of
        them, lambda2/lambda1 down to 1e-9, Gamma at 0 and at P."""
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(23), lam1_range=(1.0, 1e3)):
            rows = len(lam2)
            cols = (lam2[:, None], theta[:, None])
            scan = _gamma2_at(np.linspace(G, P, 4096), lam1, *cols, G, P)
            grid = _gamma2_at(np.linspace(G, P, P1_GRID), lam1, *cols, G, P)
            new = maximize_gamma2_batch(lam1, lam2, theta, G, P)
            for j in range(rows):
                prm = DerivedParams(lam1, float(lam2[j]), float(theta[j]), G)
                _, old = _grid_golden_max(
                    lambda p: gamma2_of_p1(p, prm, P)[0], lambda _: grid[j], G, P
                )
                ref = (1.0 - 1e-9) * max(old, scan[j].max())
                assert new[j] >= ref, (lam1, lam2[j], theta[j], G, P)
                if j % 10 == 0:
                    assert maximize_gamma2_over_p1(prm, P)[1] >= ref

    def test_bounds_hold_on_edge_draws(self):
        """gamma2_bounds' closed-form upper bound (with its guard) is never
        below the SINR at any p1 in [Gamma, P], array and scalar form; its
        lower bound is the array form at p1 = Gamma; and the two bracket
        maximize_gamma2_batch row by row.  10^4 draws; edges: theta at 0
        and 1 and within 1e-7 of them, lambda2/lambda1 down to 1e-9, Gamma
        at 0 and at P."""
        p1_scan = np.concatenate([[0.0, 1e-12, 1e-7], np.linspace(0.0, 1.0, 509)])
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(31)):
            rows = len(lam2)
            lower, upper = gamma2_bounds(lam1, lam2, theta, G, P)
            p1 = G + (P - G) * p1_scan
            scan = _gamma2_at(p1, lam1, lam2[:, None], theta[:, None], G, P)
            assert (scan <= upper[:, None]).all(), (lam1, G, P)
            assert lower.tobytes() == scan[:, 0].tobytes()
            best = maximize_gamma2_batch(lam1, lam2, theta, G, P)
            assert (lower <= best).all() and (best <= upper).all()
            for j in range(0, rows, 10):
                prm = DerivedParams(lam1, float(lam2[j]), float(theta[j]), G)
                assert max(gamma2_of_p1(float(p), prm, P)[0] for p in p1[::8]) <= upper[j]



def _golden_rows(lam1, lam2, theta, G, P):
    """The row-wise golden section over [Gamma, P] plus the endpoint
    p1 = Gamma: the search that the region solve replaces on most rows."""
    ends = np.full(lam2.shape, float(G))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = _gamma2_vec(lam1, lam2, theta, G, P)
        _, best = vector_golden_section_max(f, ends, np.full(lam2.shape, float(P)), P1_XTOL)
        return np.maximum(best, f(ends))


def _classify_reference(lam1, lam2, th, G, P):
    """The paper's region test written out on floats: True for case 2.
    theta = 1 is case 3 (p1 = Gamma), whatever tau rounds to."""
    if th == 1.0:
        return False
    tau = math.inf if th == 0.0 else (1.0 / lam1 + G) / th - 1.0 / lam2
    tG = th * G
    if tG < tau:
        return True
    if tau <= 0.0:
        return False
    thr = G + (math.sqrt(tG) - math.sqrt(tau)) * (
        math.sqrt(tG) + 1.0 / (lam2 * math.sqrt(tau))
    ) / (1.0 - th)
    return P >= thr


def _case2_max_decimal(lam1, lam2, th, G, P):
    """Maximum over 0 <= s <= sqrt(min(P - Gamma, Gamma*theta/(1-theta))) of
    case 2's SINR in s = sqrt(p1 - Gamma),
    (P - Gamma - s^2)*A*lambda2*(1-theta) / ((sqrt(A*(1 + lambda2*q^2)) -
    sqrt(lambda2*theta))^2 + lambda2*(1-theta)) with A = lambda1/(1 +
    Gamma*lambda1) and q = sqrt(theta*Gamma) - sqrt(1-theta)*s: golden
    section in 40 digits, to a bracket 1e-33 of its start."""
    with localcontext() as ctx:
        ctx.prec = 40
        l1, l2, t, g, p = map(Decimal, (lam1, lam2, th, G, P))
        A, v, c2 = l1 / (1 + g * l1), (l2 * t).sqrt(), l2 * (1 - t)

        def F(s):
            u = (A * (1 + l2 * ((t * g).sqrt() - (1 - t).sqrt() * s) ** 2)).sqrt()
            return (p - g - s * s) * A * c2 / ((u - v) ** 2 + c2)

        r = (Decimal(5).sqrt() - 1) / 2
        lo, hi = Decimal(0), min(p - g, t * g / (1 - t)).sqrt()
        c, d = hi - r * (hi - lo), lo + r * (hi - lo)
        fc, fd = F(c), F(d)
        for _ in range(160):
            if fc > fd:
                hi, d, fd = d, c, fc
                c = hi - r * (hi - lo)
                fc = F(c)
            else:
                lo, c, fc = c, d, fd
                d = lo + r * (hi - lo)
                fd = F(d)
        return max(fc, fd)


class TestRegionSolve:
    def test_searched_rows_never_below_scalar_search(self):
        # a row that the region rule cannot solve is solved in s = sqrt(p1 -
        # Gamma); its value is never below the scalar search's, maxed with
        # the array form at p1 = Gamma, by more than 1e-13 relative
        searched = 0
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(5)):
            got = maximize_gamma2_batch(lam1, lam2, theta, G, P)
            case2, p1 = _region_vec(lam1, lam2, theta, G, P)
            at_gamma = _gamma2_at(np.full(lam2.shape, G), lam1, lam2, theta, G, P)
            for j in np.flatnonzero(case2 | ~np.isfinite(p1)).tolist():
                prm = DerivedParams(lam1, float(lam2[j]), float(theta[j]), G)
                want = max(maximize_gamma2_over_p1(prm, P)[1], at_gamma[j])
                assert got[j] >= want * (1.0 - 1e-13), (lam1, lam2[j], theta[j], G, P)
                searched += 1
        assert searched >= 10**4 // 4

    def test_case2_rows_against_decimal_reference(self):
        # 20 rows predicted case 2 whose case-2 SINR rises at p1 = Gamma:
        # the batch is within 1e-14 relative of that SINR's maximum over
        # s = sqrt(p1 - Gamma), golden section in 40 digits from the same
        # floats.  Four rows of each kind: theta within 1e-7 of 0 or drawn
        # uniformly, each with lambda2/lambda1 = 1e-9 or drawn, and theta
        # within 1e-7 of 1 with lambda2/lambda1 drawn (with 1e-9 no such
        # row is case 2 below P = 1e10)
        kinds = [(0, True), (0, False), (1, False), (2, True), (2, False)]
        rng = np.random.default_rng(53)
        rows = []
        while len(rows) < 20:
            near, tiny = kinds[len(rows) % 5]
            lam1 = float(np.exp(rng.uniform(math.log(1e-3), math.log(1e4))))
            lam2 = lam1 * (1e-9 if tiny else float(np.exp(rng.uniform(math.log(1e-9), 0.0))))
            th = (1e-7 * rng.uniform(), 1.0 - 1e-7 * rng.uniform(), rng.uniform())[near]
            P = float(np.exp(rng.uniform(math.log(0.1), math.log(1e10))))
            G = P * float(rng.uniform())
            case2, _ = _region_vec(lam1, lam2, th, G, P)
            if case2 and two_user_core._case2_slope(lam1, lam2, th, G, P)(0.0) > 0.0:
                rows.append((lam1, lam2, th, G, P))
        for lam1, lam2, th, G, P in rows:
            got = maximize_gamma2_batch(lam1, np.array([lam2]), np.array([th]), G, P)[0]
            ref = _case2_max_decimal(lam1, lam2, th, G, P)
            assert abs(Decimal(got) - ref) <= Decimal("1e-14") * ref, (lam1, lam2, th, G, P)

    def test_region_solve_differential(self):
        """maximize_gamma2_batch, which solves most rows by region, is never
        more than 1e-9 relative below the row-wise golden section, and never
        above gamma2_bounds' upper bound, on 10^4 edge-weighted draws; at
        least a third of the rows take the closed form."""
        closed = 0
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(37)):
            got = maximize_gamma2_batch(lam1, lam2, theta, G, P)
            ref = _golden_rows(lam1, lam2, theta, G, P)
            _, upper = gamma2_bounds(lam1, lam2, theta, G, P)
            assert (got >= (1.0 - 1e-9) * ref).all(), (lam1, G, P)
            assert (got <= upper).all(), (lam1, G, P)
            case2, _ = _region_vec(lam1, lam2, theta, G, P)
            closed += int(((~case2 | (theta == 1.0)) & (theta > 0.0)).sum())
        assert closed >= 10**4 // 3

    def test_array_classifier_matches_scalar(self):
        # _region_vec's case test against classify_case and against the
        # rule written out on floats, on every one of 10^4 edge draws
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(41)):
            case2, _ = _region_vec(lam1, lam2, theta, G, P)
            for j in range(len(lam2)):
                l2, th = float(lam2[j]), float(theta[j])
                prm = DerivedParams(lam1, l2, th, G)
                scalar = classify_case(prm, P) is OptRegion.OPT_IN_P2
                assert bool(case2[j]) == scalar == _classify_reference(lam1, l2, th, G, P)

    def test_aligned_rows_return_endpoint_value(self):
        # theta = 1 is pure power control: the value is f(Gamma), bitwise;
        # so is it at theta = 0 and at Gamma = 0, where the case-2 bracket
        # in s is the point p1 = Gamma
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(43), groups=30):
            for th, g in ((np.ones_like(theta), G), (np.zeros_like(theta), G), (theta, 0.0)):
                got = maximize_gamma2_batch(lam1, lam2, th, g, P)
                want = _gamma2_at(np.full(lam2.shape, g), lam1, lam2, th, g, P)
                assert got.tobytes() == want.tobytes()
                _, p1 = _region_vec(lam1, lam2, th, g, P)
                assert (p1 == g).all()

    def test_huge_power_raises_no_warning(self):
        # P up to 1e160 with Gamma from 1e-160*P to P: psi2^2 of the plain
        # closed form would overflow; the region solve stays finite, takes
        # the closed form, and matches the search
        rng = np.random.default_rng(47)
        lam1 = 20.0
        lam2 = lam1 * np.concatenate([rng.uniform(1e-6, 1.0, 40), [1e-9, 1.0]])
        theta = np.concatenate([rng.uniform(0.0, 1.0, 40), [1.0 - 1e-9, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for P in (1e10, 1e80, 1e160):
                for G in (1e-160 * P, 1e-8 * P, 0.5 * P, P):
                    got = maximize_gamma2_batch(lam1, lam2, theta, G, P)
                    case2, p1 = _region_vec(lam1, lam2, theta, G, P)
                    assert np.isfinite(p1).all() and np.isfinite(got).all()
                    assert ((G <= p1) & (p1 <= P)).all()
                    ref = _golden_rows(lam1, lam2, theta, G, P)
                    np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-300)


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
        assert _realized_sinrs(sol, ch)[0] == pytest.approx(
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
            assert _realized_sinrs(sol, ch)[0] == pytest.approx(
                params.gamma1_star, rel=1e-6, abs=1e-9
            )
            # nominal SINR reproduced by the reconstructed beams
            if sol.gamma2_star > 0:
                assert _realized_sinrs(sol, ch)[1] == pytest.approx(
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

    def test_case3_p1_is_well_conditioned(self):
        # a one-ulp scaling of h1 moves a case-3 design's p1 by round-off
        # only; golden section, which locates a flat maximum to about
        # sqrt(eps), moved it by up to 8e-8 relative on these instances
        # (about one draw in a hundred is case 3)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 99:
            ch, params = sample_instance(rng)
            if classify_case(params, ch.P) is not OptRegion.OPT_IN_P3:
                continue
            ch_ulp = TwoUserChannel(ch.h1 * (1.0 + 2.0**-52), ch.h2, 1.0, 1.0, ch.P)
            p1 = optimize_p1(ch, params).p1
            p1_ulp = optimize_p1(ch_ulp, derive_params(ch_ulp, params.gamma1_star)).p1
            assert abs(p1_ulp - p1) <= 1e-12 * p1, (params, ch.P)
            checked += 1

    def test_case3_design_takes_closed_form(self, monkeypatch):
        """Where case 3 is predicted, optimize_p1 runs no search: p1 is
        case3_closed_form_p1, or Gamma at theta = 1 or where the endpoint
        is strictly better; and its SINR is never below the golden section
        by more than round-off, on edge-weighted draws."""
        searches = []

        def counting(*args, **kwargs):
            searches.append(args[1:3])  # the bracket
            return golden_section_max(*args, **kwargs)

        monkeypatch.setattr(two_user_core, "golden_section_max", counting)
        checked = 0
        for lam1, lam2, theta, G, P in _edge_draws(np.random.default_rng(59), groups=20):
            case2, p1_cf = _region_vec(lam1, lam2, theta, G, P)
            for j in np.flatnonzero(~case2 & np.isfinite(p1_cf)).tolist():
                l2, th = float(lam2[j]), float(theta[j])
                prm = DerivedParams(lam1, l2, th, G)
                sol = optimize_p1(channel_from_quality(lam1, l2, th, P), prm)
                assert not searches, (lam1, l2, th, G, P)
                _, ref = maximize_gamma2_over_p1(prm, P)
                searches.clear()
                assert sol.gamma2_star >= ref * (1.0 - 1e-14), (lam1, l2, th, G, P)
                if th == 1.0:
                    assert sol.p1 == G
                else:
                    cf = case3_closed_form_p1(prm, P)
                    end_wins = gamma2_of_p1(G, prm, P)[0] > gamma2_of_p1(cf, prm, P)[0]
                    assert sol.p1 == cf or (sol.p1 == G and end_wins), (lam1, l2, th, G, P)
                checked += 1
        assert checked >= 500

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


def _complex_pair(rng, theta):
    """A random complex channel pair: the canonical pair's geometry at
    squared correlation theta with random phases, or h2 = z*h1 exactly for
    theta = "aligned", rotated by a random unitary of C^Nt (Nt in 2..4),
    at random noise powers and cluster power."""
    nt = int(rng.integers(2, 5))
    Q, _ = np.linalg.qr(rng.normal(size=(nt, nt)) + 1j * rng.normal(size=(nt, nt)))
    s1, s2 = (float(s) for s in rng.uniform(0.5, 2.0, size=2))
    lam1 = float(rng.uniform(1.0, 100.0))
    lam2 = lam1 * float(rng.uniform(1e-3, 1.0))
    ph = np.exp(2j * np.pi * rng.uniform(size=3))
    h1 = math.sqrt(lam1 * s1) * ph[0] * Q[:, 0]
    if theta == "aligned":
        h2 = complex(math.sqrt(lam2 * s2 / (lam1 * s1)) * ph[1]) * h1
    else:
        th = float(rng.uniform()) if theta == "random" else theta
        e2 = math.sqrt(th) * Q[:, 0] + ph[2] * math.sqrt(1.0 - th) * Q[:, 1]
        h2 = math.sqrt(lam2 * s2) * ph[1] * e2
    return TwoUserChannel(h1, h2, s1, s2, float(rng.uniform(0.5, 20.0)))


COMPLEX_THETAS = (0.0, 1e-30, 1e-20, 1e-13, 1e-9, "random", 1.0 - 1e-9, 1.0 - 1e-16, 1.0, "aligned")


class TestComplexPairs:
    @pytest.mark.parametrize("theta", COMPLEX_THETAS)
    def test_beams_realize_the_design(self, theta):
        """On rotated complex pairs, the power-allocated and the fixed-power
        beams spend their powers and realize gamma1* for user 1 and
        gamma2_star for user 2, to 1e-6 relative."""
        rng = np.random.default_rng(70 + COMPLEX_THETAS.index(theta))
        for _ in range(10):
            ch = _complex_pair(rng, theta)
            G, G_fixed = ch.P * rng.uniform(0.05, 0.95), min(ch.P, 1.0) * rng.uniform(0.05, 0.95)
            for design, Gamma in ((optimize_p1, G), (fixed_power_design, G_fixed)):
                params = derive_params(ch, Gamma * ch.lambda1)
                sol = design(ch, params)
                w1, w2 = sol.w1_scaled, sol.w2_scaled
                assert np.linalg.norm(w1) ** 2 <= sol.p1 * (1.0 + 1e-6)
                assert np.linalg.norm(w2) ** 2 == pytest.approx(sol.p2, rel=1e-6)
                s1, r1 = abs(np.vdot(ch.h1, w1)) ** 2, abs(np.vdot(ch.h1, w2)) ** 2
                s2, r2 = abs(np.vdot(ch.h2, w2)) ** 2, abs(np.vdot(ch.h2, w1)) ** 2
                assert s1 / ch.sigma1_sq == pytest.approx(params.gamma1_star, rel=1e-6)
                gamma2 = min(r1 / (s1 + ch.sigma1_sq), s2 / (r2 + ch.sigma2_sq))
                assert gamma2 == pytest.approx(sol.gamma2_star, rel=1e-6), (theta, ch.theta)


class TestCase3ClosedForm:
    def test_matches_numeric_branch_maximizer(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            ch, params = _random_params(rng)
            if classify_case(params, ch.P) is not OptRegion.OPT_IN_P3:
                continue
            if params.theta in (0.0, 1.0):
                continue
            p_cf = case3_closed_form_p1(params, ch.P)
            p_num, _ = maximize_branch_gamma2(params, ch.P)
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
            prm = DerivedParams(lam1, lam2, th, G)
            _, best = maximize_branch_gamma2(prm, P)
            assert best >= (1.0 - 1e-9) * scan.max(), (lam1, lam2, th, G, P)

    def test_converges_to_minimum_power(self):
        prev = None
        for lam2 in (1e-2, 1e-3, 1e-4):
            ch = channel_from_quality(10.0, lam2, 0.5, 10.0)
            params = derive_params(ch, 2.0 * ch.lambda1)
            gap = case3_closed_form_p1(params, ch.P) - params.Gamma
            assert gap >= 0.0
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev <= 1e-4

    def test_degenerate_theta_signals_fallback(self):
        ch = channel_from_quality(10.0, 0.1, 0.0, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        with pytest.raises(ValueError):
            case3_closed_form_p1(params, ch.P)


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
        for G in (-0.5, math.nan):
            params = DerivedParams(params.lambda1, params.lambda2, params.theta, G)
            with pytest.raises(InfeasibleTargetError, match="Gamma="):
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
            a1 = _alpha1(params.theta, min(params.Gamma, 1.0), 1.0)
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
