import json
import math

import numpy as np
import pytest

from misonoma import simulation
from misonoma.scheduler import User
from misonoma.simulation import (
    SimConfig,
    aggregate_means,
    generate_channels,
    run_monte_carlo,
    run_trial,
    run_trial_sweep,
)
from misonoma.two_user_core import InfeasibleTargetError


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        SimConfig(k_users=5)
    with pytest.raises(ValueError):
        SimConfig(trials=0)
    with pytest.raises(ValueError):
        SimConfig(sigma_h2_sq=0.0)
    for field, value in (
        ("nt", True),
        ("nt", 2.0),
        ("k_users", "8"),
        ("trials", None),
        ("seed", 1.5),
        ("pt_db", "10"),
        ("gamma", False),
        ("pt_db", math.inf),
        ("gamma", math.nan),
        ("sigma_h2_sq", -math.inf),
        ("awgn_var", math.nan),
        ("delta", math.inf),
        ("pt_db", 4000.0),
        ("pt_db", np.float64(4000.0)),
    ):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})
    path = tmp_path / "cfg.json"
    for text in (
        json.dumps({"baseline_power_mode": "waterfilling"}),
        '["nt"]',
        "5",
        "null",
        '{"nt": "2"}',
        '{"delta": "0.3"}',
        '{"seed": 1.5}',
        '{"nt": true}',
        '{"gamma": NaN}',
        '{"pt_db": Infinity}',
        '{"pt_db": 4000}',
    ):
        path.write_text(text)
        with pytest.raises(ValueError):
            SimConfig.from_file(str(path), k_users=8, trials=1)
    assert SimConfig(nt=np.int64(4), gamma=np.float64(0.5), pt_db=20).pt_db == 20


def test_p_total_db_conversion():
    assert SimConfig(pt_db=10.0).p_total == pytest.approx(10.0)
    assert SimConfig(pt_db=20.0).p_total == pytest.approx(100.0)
    assert SimConfig(pt_db=0.0).p_total == pytest.approx(1.0)


def test_generate_channels_deterministic():
    cfg = SimConfig(k_users=8, trials=1, seed=7)
    a = generate_channels(cfg, np.random.default_rng(123))
    b = generate_channels(cfg, np.random.default_rng(123))
    for ua, ub in zip(a.strong + a.weak, b.strong + b.weak):
        assert ua.uid == ub.uid
        np.testing.assert_array_equal(ua.h, ub.h)


def test_generate_channels_matches_per_user_draw():
    # bit for bit what building one User per row gives: the real parts of
    # the strong rows, their imaginary parts, then the same for the weak rows
    for nt, k in ((1, 2), (2, 40), (4, 200)):
        cfg = SimConfig(nt=nt, k_users=k, sigma_h1_sq=1.3, sigma_h2_sq=0.02, awgn_var=0.7)
        pool = generate_channels(cfg, np.random.default_rng(nt * k))
        rng, half, want = np.random.default_rng(nt * k), k // 2, []
        for var, start in ((1.3, 0), (0.02, half)):
            scale = math.sqrt(var / 2.0)
            re = rng.normal(0.0, scale, size=(half, nt))
            im = rng.normal(0.0, scale, size=(half, nt))
            want += [User(start + i, re[i] + 1j * im[i], 0.7) for i in range(half)]
        for rows, users in ((pool.strong_rows, want[:half]), (pool.weak_rows, want[half:])):
            assert rows.uid.tolist() == [u.uid for u in users]
            assert rows.H.tobytes() == b"".join(u.h.tobytes() for u in users)
            assert rows.eps_sq.tolist() == [u.eps_sq for u in users]


def test_generate_channels_ids_and_sizes():
    cfg = SimConfig(k_users=10, nt=3)
    pool = generate_channels(cfg, np.random.default_rng(0))
    assert [u.uid for u in pool.strong] == [0, 1, 2, 3, 4]
    assert [u.uid for u in pool.weak] == [5, 6, 7, 8, 9]
    assert all(u.h.size == 3 for u in pool.strong + pool.weak)


def test_channel_power_scaling():
    # E||h||^2 = nt * sigma_h^2 within 5% over many draws; the strong/weak
    # variance ratio carries over to the average quality ratio
    cfg = SimConfig(k_users=2000, nt=2, sigma_h1_sq=1.0, sigma_h2_sq=0.01)
    pool = generate_channels(cfg, np.random.default_rng(5))
    es = np.mean([float(np.vdot(u.h, u.h).real) for u in pool.strong])
    ew = np.mean([float(np.vdot(u.h, u.h).real) for u in pool.weak])
    assert es == pytest.approx(2.0, rel=0.05)
    assert ew == pytest.approx(0.02, rel=0.05)
    assert es / ew == pytest.approx(100.0, rel=0.1)


def test_run_trial_reproducible():
    cfg = SimConfig(k_users=8, trials=1, seed=99, gamma=0.5)
    r1, _, _ = run_trial(cfg, 0)
    r2, _, _ = run_trial(cfg, 0)
    assert r1 == r2


def test_run_trial_sweep_matches_run_trial():
    # P_T/Nt = 5: the targets include both ends, a duplicate and are unsorted
    cfg = SimConfig(nt=2, k_users=12, pt_db=10.0, seed=3)
    gammas = [2.0, 0.0, 5.0, 1.0, 2.0]
    for t in range(3):
        want = [run_trial(cfg, t, gamma=g)[0] for g in gammas]
        assert run_trial_sweep(cfg, t, gammas) == want
        assert run_trial_sweep(cfg, t, gammas[:1]) == want[:1]


def test_run_trial_sweep_checks_targets_first(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("channels drawn before the targets were checked")

    monkeypatch.setattr(simulation, "generate_channels", no_work)
    cfg = SimConfig(nt=2, k_users=12, pt_db=10.0, seed=3)
    with pytest.raises(ValueError, match="at least one target"):
        run_trial_sweep(cfg, 0, [])
    # P_T = 10: the third target is infeasible on every draw and must be named
    with pytest.raises(InfeasibleTargetError, match="Gamma=12.5"):
        run_trial_sweep(cfg, 0, [1.0, 2.0, 12.5, 3.0])
    with pytest.raises(InfeasibleTargetError, match="Gamma=-0.5"):
        run_trial_sweep(cfg, 0, [1.0, -0.5])


def test_run_trial_sweep_follows_the_draws_bound():
    # Nt = 4, P_T = 10: SUS selects Kc = 1 strong user on trial 0 and Kc = 2
    # on trial 1, so the bound P_T/Kc is 10 and 5 there, above P_T/Nt = 2.5
    cfg = SimConfig(nt=4, k_users=8, pt_db=10.0, seed=3)
    gammas = [1.0, 4.0, 7.5]
    assert [run_trial(cfg, t, gamma=1.0)[1].Kc for t in (0, 1)] == [1, 2]
    assert run_trial_sweep(cfg, 0, gammas) == [run_trial(cfg, 0, gamma=g)[0] for g in gammas]
    with pytest.raises(InfeasibleTargetError, match="Gamma=7.5"):
        run_trial(cfg, 1, gamma=7.5)
    with pytest.raises(InfeasibleTargetError, match="Gamma=7.5"):
        run_trial_sweep(cfg, 1, gammas)


def test_run_monte_carlo_records_and_means():
    cfg = SimConfig(k_users=8, trials=4, seed=11, gamma=0.5)
    records, means, outputs = run_monte_carlo(cfg)
    assert len(records) == 4
    assert outputs == []
    assert [r.trial_id for r in records] == [0, 1, 2, 3]
    assert means["noma_sum_rate"] == pytest.approx(
        np.mean([r.noma_sum_rate for r in records])
    )
    for r in records:
        assert r.noma_sum_rate == pytest.approx(
            r.noma_strong_rate + r.noma_weak_rate
        )
        assert r.baseline_sum_rate == pytest.approx(
            r.baseline_strong_rate + r.baseline_weak_rate
        )


def test_more_users_do_not_hurt_sum_rate():
    # multi-user diversity: mean sum rate grows with the pool size
    means = []
    for k in (20, 40):
        cfg = SimConfig(nt=2, k_users=k, pt_db=10.0, gamma=1.0, trials=40, seed=2)
        recs = [run_trial(cfg, t)[0] for t in range(cfg.trials)]
        means.append(aggregate_means(recs)["noma_sum_rate"])
    assert means[1] >= means[0] - 1e-9
