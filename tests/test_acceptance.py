"""Acceptance suite: every numbered check prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Criteria 1-3 share one 200-instance oracle battery (computed once per
session).  Check 6a is known to fail: the exact optimum-versus-simple
gap at the weakest-channel setting provably exceeds the asserted 2%
tolerance (worst case ~2.48% in SINR terms); the check is kept as stated
rather than loosened.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import spearmanr

from misonoma.angle_analysis import gamma2_fixed_vs_theta, gamma2_simple_power
from misonoma.cli import main as cli_main
from misonoma.oracle import brute_force_max, sample_instance
from misonoma.scheduler import SUSConfig, schedule, zf_select
from misonoma.simulation import SimConfig, aggregate_means, generate_channels, run_trial
from misonoma.two_user_core import (
    CaseTag,
    OptRegion,
    _coeffs,
    case3_closed_form_p1,
    channel_from_quality,
    classify_case,
    derive_params,
    gamma2_of_p1,
    maximize_branch_gamma2,
    optimize_p1,
)

BATTERY_SEED = 20240809
N_INSTANCES = 200


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


@dataclass
class BatteryRow:
    ch: object
    params: object
    gamma2_design: float
    oracle: object
    region: OptRegion


@pytest.fixture(scope="session")
def battery():
    rng = np.random.default_rng(BATTERY_SEED)
    rows = []
    t0 = time.monotonic()
    for _ in range(N_INSTANCES):
        ch, params = sample_instance(rng)
        sol = optimize_p1(ch, params)
        res = brute_force_max(ch, params, 2048, 2048)
        rows.append(
            BatteryRow(ch, params, sol.gamma2_star, res, classify_case(params, ch.P))
        )
    return rows, time.monotonic() - t0


def test_criterion_01_oracle_equivalence(battery):
    rows, elapsed = battery
    worst = 0.0
    for row in rows:
        denom = max(row.oracle.gamma2, row.gamma2_design, 1e-30)
        worst = max(worst, abs(row.oracle.gamma2 - row.gamma2_design) / denom)
    _report(
        "criterion 1: oracle equivalence over 200 instances (rel 1e-3, <=120 s)",
        worst <= 1e-3 and elapsed <= 120.0,
        f"worst rel {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_02_region_prediction_matches_oracle(battery):
    rows, _ = battery
    agree = 0
    boundary_ok = True
    for row in rows:
        _, tag = gamma2_of_p1(row.oracle.p1, row.params, row.ch.P)
        expect = (
            CaseTag.CASE2 if row.region is OptRegion.OPT_IN_P2 else CaseTag.CASE3
        )
        if tag is expect:
            agree += 1
        else:
            prm, p1 = row.params, row.oracle.p1
            a, b, c = _coeffs(prm.lambda1, prm.lambda2, prm.theta, prm.Gamma, p1, row.ch.P - p1)
            d = b + c**2 / b if b > 0.0 else math.inf  # the case-2/3 boundary
            near = min(abs(a - b), abs(a - d)) <= 1e-6
            boundary_ok = boundary_ok and near
    frac = agree / len(rows)
    _report(
        "criterion 2: region prediction matches oracle branch (>=99%)",
        frac >= 0.99 and boundary_ok,
        f"agreement {frac:.1%}",
    )


def test_criterion_03_case3_closed_form(battery):
    rows, _ = battery
    worst = 0.0
    checked = 0
    for row in rows:
        if row.region is not OptRegion.OPT_IN_P3:
            continue
        if row.params.theta in (0.0, 1.0):
            continue
        p_cf = case3_closed_form_p1(row.params, row.ch.P)
        p_num, _ = maximize_branch_gamma2(row.params, row.ch.P)
        worst = max(worst, abs(p_cf - p_num))
        checked += 1
    _report(
        "criterion 3: closed-form case-3 maximizer (abs 1e-6 in p1)",
        worst <= 1e-6,
        f"{checked} instances, worst {worst:.2e}",
    )


def test_criterion_04_rate_region_reproduction(tmp_path):
    t0 = time.monotonic()
    out = tmp_path / "pareto.csv"
    rc = cli_main(
        [
            "pareto-boundary",
            "--lambda1", "20", "--lambda2", "3", "--theta", "0.5",
            "--p-cluster", "2", "--points", "101", "--out", str(out),
        ]
    )
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    r2_fixed = [float(r[1]) for r in rows]
    r2_power = [float(r[2]) for r in rows]
    finite = [i for i, v in enumerate(r2_fixed) if not math.isnan(v)]
    dominated = all(r2_power[i] >= r2_fixed[i] - 1e-9 for i in finite)
    strict = any(
        r2_power[i] > r2_fixed[i] + 1e-6 for i in finite[1:-1]
    )
    mono_f = all(
        r2_fixed[j] <= r2_fixed[i] + 1e-9
        for i, j in zip(finite, finite[1:])
    )
    mono_p = all(b <= a + 1e-9 for a, b in zip(r2_power, r2_power[1:]))
    elapsed = time.monotonic() - t0
    _report(
        "criterion 4: rate-region boundary dominance and monotonicity (<=5 s)",
        rc == 0 and dominated and strict and mono_f and mono_p and elapsed <= 5.0,
        f"{elapsed:.2f} s",
    )


THETA_GRID = np.linspace(0.0, 1.0, 1000)


def _curves(lam2: float):
    opt, simple = [], []
    for th in THETA_GRID:
        ch = channel_from_quality(10.0, lam2, float(th), 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        opt.append(optimize_p1(ch, params).gamma2_star)
        simple.append(
            gamma2_simple_power(
                ch.theta, params.lambda1, params.lambda2, params.Gamma, ch.P
            ).gamma2
        )
    return np.array(opt), np.array(simple)


def test_criterion_05_simple_power_identity():
    worst = 0.0
    for lam2 in (10.0, 1.0, 0.1):
        for th in THETA_GRID:
            ch = channel_from_quality(10.0, lam2, float(th), 10.0)
            params = derive_params(ch, 2.0 * ch.lambda1)
            val, _ = gamma2_of_p1(params.Gamma, params, ch.P)
            res = gamma2_simple_power(
                ch.theta, params.lambda1, params.lambda2, params.Gamma, ch.P
            )
            worst = max(worst, abs(val - res.gamma2) / max(val, res.gamma2))
    _report(
        "criterion 5: simple power equals minimum-power evaluation (rel 1e-9)",
        worst <= 1e-9,
        f"worst rel {worst:.2e}",
    )


def test_criterion_06a_simple_power_near_optimal_weak_channel():
    opt, simple = _curves(0.1)
    worst = float(np.max(np.abs(opt - simple) / opt))
    # Known failure: the exact gap peaks at ~2.48% (theta ~ 0.53), above
    # the asserted 2%.  Kept as stated; see the decisions log.
    _report(
        "criterion 6a: simple power within rel 2% of optimal at lambda2=0.1",
        worst <= 0.02,
        f"worst rel {worst:.4f}",
    )


def test_criterion_06b_interior_optimum_mid_asymmetry():
    opt, _ = _curves(1.0)
    i = int(np.argmax(opt))
    _report(
        "criterion 6b: optimal-curve argmax interior at lambda2=1",
        0 < i < len(opt) - 1,
        f"argmax theta {THETA_GRID[i]:.3f}",
    )


def test_criterion_07_matched_filter_asymptotics():
    gaps, angs1, angs2 = [], [], []
    for lam2 in (1e-2, 1e-3, 1e-4):
        ch = channel_from_quality(10.0, lam2, 0.5, 10.0)
        params = derive_params(ch, 2.0 * ch.lambda1)
        sol = optimize_p1(ch, params)
        gaps.append(abs(sol.p1 - params.Gamma))
        for w, h, into in (
            (sol.w1_scaled, ch.h1, angs1),
            (sol.w2_scaled, ch.h2, angs2),
        ):
            cosang = abs(np.vdot(w, h)) / (np.linalg.norm(w) * np.linalg.norm(h))
            into.append(math.acos(min(max(cosang, 0.0), 1.0)))
    ok = (
        gaps[0] > gaps[1] > gaps[2]
        and gaps[2] <= 1e-2 * 2.0
        and angs1[2] <= 1e-3
        and angs2[2] <= 1e-3
    )
    _report(
        "criterion 7: matched-filter convergence as lambda2 -> 0",
        ok,
        f"|p1-Gamma| {gaps[0]:.1e} > {gaps[1]:.1e} > {gaps[2]:.1e}; "
        f"angles {angs1[2]:.1e}/{angs2[2]:.1e} rad",
    )


def test_criterion_08_optimal_angle_plateau():
    lam1 = lam2 = 10.0
    G = 0.2
    theta0 = 1.0 / 3.0
    grid = np.linspace(0.0, 1.0, 10001)
    step = float(grid[1] - grid[0])
    vals = np.array([gamma2_fixed_vs_theta(float(t), lam1, lam2, G) for t in grid])
    vmax = float(vals.max())
    attained = vals >= vmax * (1.0 - 1e-13)
    inside = grid >= theta0 + step
    below = grid < theta0 - step
    ok = bool(np.all(attained[inside]) and not np.any(attained[below]))
    _report(
        "criterion 8: fixed-power optimum attained exactly on [theta0, 1]",
        ok,
        f"theta0 {theta0:.4f}, grid step {step:.1e}",
    )


def test_criterion_09_scheduler_zero_forcing():
    rng = np.random.default_rng(4242)
    gamma = 0.5
    worst_leak = 0.0
    worst_rate_err = 0.0
    for _ in range(50):
        cfg = SimConfig(nt=4, k_users=40, pt_db=10.0, gamma=gamma, trials=1, seed=1)
        pool = generate_channels(cfg, rng)
        out = schedule(pool, zf_select(pool.strong_rows, SUSConfig(4, 0.4)), cfg.p_total, gamma)
        for k, plan in enumerate(out.clusters):
            hs, _ = pool.row(plan.strong_id)
            s1 = abs(np.vdot(hs, plan.w1_tilde)) ** 2
            ici = sum(
                abs(np.vdot(hs, w)) ** 2
                for kk, p in enumerate(out.clusters)
                if kk != k
                for w in (p.w1_tilde, p.w2_tilde)
            )
            if s1 > 0:
                worst_leak = max(worst_leak, ici / s1)
            if plan.single_user:
                continue
            lam1 = float(np.vdot(plan.h1_eff, plan.h1_eff).real) / plan.sigma1_sq
            target = math.log2(1.0 + gamma * lam1)
            worst_rate_err = max(
                worst_rate_err,
                abs(out.realized_rates[k][0] - target) / target,
            )
    _report(
        "criterion 9: zero-forcing and exact strong-user rates over 50 pools",
        worst_leak <= 1e-9 and worst_rate_err <= 1e-6,
        f"worst ICI/signal {worst_leak:.1e}, worst rate err {worst_rate_err:.1e}",
    )


def test_criterion_10_desk_scale_sum_rate_dominance():
    t0 = time.monotonic()
    search_trials, full_trials = 60, 200

    def means_for(gamma, trials):
        cfg = SimConfig(
            nt=2, k_users=40, pt_db=10.0, gamma=gamma, trials=trials, seed=424242
        )
        return aggregate_means([run_trial(cfg, t)[0] for t in range(trials)])

    chosen = None
    for gamma in (2.0, 1.5, 1.25, 1.0, 0.75, 0.5):
        m = means_for(gamma, search_trials)
        if m["noma_weak_rate"] >= m["baseline_weak_rate"]:
            chosen = gamma
            break
    ok = chosen is not None
    detail = "no feasible Gamma"
    if ok:
        m = means_for(chosen, full_trials)
        ok = (
            m["noma_weak_rate"] >= m["baseline_weak_rate"]
            and m["noma_strong_rate"] >= m["baseline_strong_rate"]
            and m["noma_sum_rate"] > m["baseline_sum_rate"]
        )
        detail = (
            f"Gamma={chosen}, sum {m['noma_sum_rate']:.2f} vs "
            f"{m['baseline_sum_rate']:.2f}, strong {m['noma_strong_rate']:.2f} vs "
            f"{m['baseline_strong_rate']:.2f}, weak {m['noma_weak_rate']:.3f} vs "
            f"{m['baseline_weak_rate']:.3f}"
        )
    elapsed = time.monotonic() - t0
    _report(
        "criterion 10: desk-scale NOMA dominance over the ZF baseline (<=120 s)",
        ok and elapsed <= 120.0,
        f"{detail}; {elapsed:.1f} s",
    )


def test_criterion_11_target_sweep_monotonicity():
    gammas = np.linspace(0.5, 8.0, 8)
    trials = 12
    cfg = SimConfig(
        nt=4, k_users=200, pt_db=20.0, gamma=1.0, trials=trials, seed=777
    )
    strong = np.zeros(len(gammas))
    weak = np.zeros(len(gammas))
    for t in range(trials):
        for i, g in enumerate(gammas):
            rec, _, _ = run_trial(cfg, t, gamma=float(g))
            strong[i] += rec.noma_strong_rate
            weak[i] += rec.noma_weak_rate
    rho_s = spearmanr(gammas, strong).statistic
    rho_w = spearmanr(gammas, weak).statistic
    _report(
        "criterion 11: strong rate rises and weak rate falls with the target",
        rho_s == 1.0 and rho_w == -1.0,
        f"spearman strong {rho_s:+.2f}, weak {rho_w:+.2f}",
    )


def test_criterion_12_byte_identical_csv(tmp_path):
    args = [
        "schedule-sim",
        "--k", "12", "--trials", "5", "--seed", "31", "--gamma", "1.0",
    ]
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    _report(
        "criterion 12: schedule-sim output byte-identical across runs",
        out1.read_bytes() == out2.read_bytes(),
    )
