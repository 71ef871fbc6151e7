import numpy as np
import pytest

from misonoma.golden import golden_section_max, vector_golden_section_max
from misonoma.oracle import brute_force_max, sample_instance
from misonoma.two_user_core import (
    channel_from_quality,
    derive_params,
    fixed_power_design,
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


def test_grid_sizes_validated():
    ch, params = fig2_instance()
    with pytest.raises(ValueError):
        brute_force_max(ch, params, 32, 64)


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
    # Every row but the third has the widest bracket, so it runs exactly the
    # scalar recurrence; the third runs more shrinks than the scalar needs.
    lo = np.array([0.0, 2.0, 0.2, 0.0, 0.0])
    hi = np.array([1.0, 3.0, 0.9, 1.0, 1.0])
    peak = np.array([0.3, 2.5, 0.2, 0.0, 1.0])
    slope = np.array([0.5, 2.0, 10.0, 1e-3, 1e3])
    widest = hi - lo == (hi - lo).max()

    def unimodal(x, row=slice(None)):
        return -(x - peak[row]) * (x - peak[row])

    def kinked(x, row=slice(None)):
        # min of a rising line and a concave arc, as in the alpha2 polish
        return np.minimum(slope[row] * x, np.sqrt(np.clip(1.0 - x * x, 0.0, None)))

    for f in (unimodal, kinked):
        x_vec, y_vec = vector_golden_section_max(f, lo, hi, xtol=1e-12)
        for i in range(lo.size):
            x, y = golden_section_max(
                lambda t: float(f(t, i)), float(lo[i]), float(hi[i]), xtol=1e-12
            )
            if widest[i]:
                assert x_vec[i] == x and y_vec[i] == y
            else:
                assert x_vec[i] == pytest.approx(x, abs=1e-9)
                assert y_vec[i] == pytest.approx(y, rel=1e-9)
