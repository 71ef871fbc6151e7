import hashlib
import math

import numpy as np
import pytest

from misonoma.golden import golden_section_max, vector_golden_section_max
from misonoma.oracle import (
    _FEAS_TOL,
    _min_feasible_alpha1,
    _min_feasible_alpha1_scalar,
    brute_force_max,
    sample_instance,
)
from misonoma.two_user_core import (
    DerivedParams,
    InfeasibleTargetError,
    channel_from_quality,
    derive_params,
    fixed_power_design,
    gamma2_bounds,
    optimize_p1,
)


def fig2_instance():
    ch = channel_from_quality(20.0, 3.0, 0.5, 2.0)
    return ch, derive_params(ch, 0.5 * ch.lambda1)


def test_gamma_equals_p_gives_zero():
    ch = channel_from_quality(20.0, 3.0, 0.5, 2.0)
    params = derive_params(ch, ch.P * ch.lambda1)
    res = brute_force_max(ch, params, 64, 64)
    assert res.gamma2 == pytest.approx(0.0, abs=1e-20)


def test_agrees_with_design_on_fig2_instance():
    ch, params = fig2_instance()
    sol = optimize_p1(ch, params)
    res = brute_force_max(ch, params, 2048, 2048)
    assert res.gamma2 == pytest.approx(sol.gamma2_star, rel=1e-3)
    assert res.grid_sizes == (2048, 2048)


def test_fixed_power_restriction_matches_fixed_design():
    ch, params = fig2_instance()
    sol = fixed_power_design(ch, params)
    res = brute_force_max(ch, params, 64, 4096, p1_fixed=1.0)
    assert res.gamma2 == pytest.approx(sol.gamma2_star, rel=1e-4)


def test_refinement_never_decreases_maximum():
    rng = np.random.default_rng(17)
    for _ in range(5):
        ch, params = sample_instance(rng)
        values = [
            brute_force_max(ch, params, n, n).gamma2 for n in (64, 128, 256)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12 * max(lo, 1.0)


def test_gamma2_upper_bounds():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ch, params = sample_instance(rng)
        res = brute_force_max(ch, params, 64, 64)
        slack = 1.0 + 1e-9
        assert res.gamma2 <= params.lambda2 * ch.P * slack
        assert res.gamma2 <= params.lambda1 * ch.P * slack
        # the scheduler's closed-form prune bound, against the realized SINR
        _, upper = gamma2_bounds(
            params.lambda1, np.array([params.lambda2]), np.array([params.theta]),
            params.Gamma, ch.P,
        )
        assert res.gamma2 <= upper[0]


def test_grid_sizes_validated():
    ch, params = fig2_instance()
    with pytest.raises(ValueError):
        brute_force_max(ch, params, 32, 64)
    # and the target: the oracle checks it as derive_params does
    for G in (2.5, -0.5, math.nan):
        bad = DerivedParams(params.lambda1, params.lambda2, params.theta, G)
        with pytest.raises(InfeasibleTargetError, match="Gamma="):
            brute_force_max(ch, bad, 64, 64)


def test_scalar_alpha1_is_the_array_path_bitwise():
    # the p1 polish's float path against the array path, one t at a time,
    # at the angle edges and at t = 0, t = 1 and random t
    rng = np.random.default_rng(53)
    ts = [0.0, 1.0, *rng.uniform(0.0, 1.0, 20).tolist()]
    for theta in (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0, *rng.uniform(0.0, 1.0, 5).tolist()):
        want = _min_feasible_alpha1(np.array(ts), theta)
        for t, w in zip(ts, want.tolist()):
            got = _min_feasible_alpha1_scalar(t, theta)
            assert type(got) is float and got == w, (t, theta)


def test_min_feasible_alpha1_is_feasible_and_minimal():
    # whatever the search: the returned alpha1 lies on the constraint segment
    # inside the disk with beta1 >= 0, it is 0 exactly when alpha1 = 0 is
    # feasible, and MARGIN below it the disk violation exceeds the tolerance
    MARGIN = 1e-9
    rng = np.random.default_rng(61)
    ts = np.array([0.0, 1.0, *rng.uniform(0.0, 1.0, 20)])
    for theta in (0.0, 1e-12, 0.5, 1.0 - 1e-12, 1.0):
        got = _min_feasible_alpha1(ts, theta)
        if theta == 1.0:  # the segment is alpha1 = t
            assert np.array_equal(got, ts)
            continue
        s = math.sqrt(theta)

        def v(t, a):  # rounded as the oracle rounds it: v(0) can sit at the tolerance
            beta = t - s * a
            return a * a + beta * beta / (1.0 - theta) - 1.0

        for t, a in zip(ts.tolist(), got.tolist()):
            assert v(t, a) <= _FEAS_TOL and t - s * a >= 0.0, (t, theta, a)
            if v(t, 0.0) <= _FEAS_TOL:
                assert a == 0.0, (t, theta, a)
            else:
                assert a > 0.0 and v(t, max(a - MARGIN, 0.0)) > _FEAS_TOL, (t, theta, a)


# sha256 of repr((gamma2, p1, alpha2, alpha1, grid_sizes)) over the first
# eight instances of the acceptance battery (seed 20240809, 2048 x 2048),
# as the oracle computes them with alpha1 bisected on [0, sqrt(theta)*t]
BATTERY_HEAD_DIGEST = "47a1826fdb2e112203c52a252358b17cdca89a9a0e33776c756a836a9e1feb33"


def test_battery_head_digest_unchanged():
    rng = np.random.default_rng(20240809)
    h = hashlib.sha256()
    for _ in range(8):
        ch, params = sample_instance(rng)
        r = brute_force_max(ch, params, 2048, 2048)
        h.update(repr((r.gamma2, r.p1, r.alpha2, r.alpha1, r.grid_sizes)).encode())
    assert h.hexdigest() == BATTERY_HEAD_DIGEST


def test_result_point_is_feasible():
    rng = np.random.default_rng(31)
    for _ in range(10):
        ch, params = sample_instance(rng)
        res = brute_force_max(ch, params, 64, 64)
        assert params.Gamma - 1e-12 <= res.p1 <= ch.P + 1e-12
        assert 0.0 <= res.alpha2 <= 1.0
        assert 0.0 <= res.alpha1 <= 1.0


def test_vector_golden_matches_scalar_golden():
    # one bracket per row; maxima inside the brackets and at their edges.
    # Every row runs the widest row's step count: rows of equal width, and
    # rows that are all within xtol (the sixth has width 0, the seventh a
    # width below xtol; both return the midpoint), equal the scalar search
    # bitwise, and so do the widest rows of a call.  A narrower row of a
    # call with mixed widths (the third row) lies within xtol of the scalar
    # argmax and its value is not below the scalar value.
    xtol = 1e-12
    lo = np.array([0.0, 2.0, 0.2, 0.0, 0.0, 0.4, 0.7])
    hi = np.array([1.0, 3.0, 0.9, 1.0, 1.0, 0.4, 0.7 + 0.5 * xtol])
    peak = np.array([0.3, 2.5, 0.2, 0.0, 1.0, 0.1, 0.9])
    slope = np.array([0.5, 2.0, 10.0, 1e-3, 1e3, 1.0, 1.0])

    def unimodal(x, row=slice(None)):
        return -(x - peak[row]) * (x - peak[row])

    def kinked(x, row=slice(None)):
        # min of a rising line and a concave arc, as in the alpha2 polish
        return np.minimum(slope[row] * x, np.sqrt(np.clip(1.0 - x * x, 0.0, None)))

    for f in (unimodal, kinked):
        for rows, same_width in (
            (slice(None), False), ([0, 3, 4], True), ([2, 5], False), ([5, 6], True)
        ):
            x_vec, y_vec = vector_golden_section_max(
                lambda x: f(x, rows), lo[rows], hi[rows], xtol=xtol
            )
            h = hi[rows] - lo[rows]
            for k, i in enumerate(np.arange(lo.size)[rows]):
                x, y = golden_section_max(
                    lambda t: float(f(t, i)), float(lo[i]), float(hi[i]), xtol=xtol
                )
                if same_width or h[k] == h.max():
                    assert x_vec[k] == x and y_vec[k] == y
                else:
                    assert abs(x_vec[k] - x) <= xtol and y_vec[k] >= y