"""The benchmark's three workloads.

Each workload draws every op input from its seed before timing starts.
``op`` is the timed call into the program.  ``output`` turns what the op
returned into bytes, which the traced run must reproduce exactly.
``check`` tests one op's result with tolerances that do not depend on the
seed; ``finish`` runs the checks that are deferred until after the timed
loop, so that they add nothing to the peak resident set measured there.

Program functions are looked up through their modules at call time
(``simulation.run_trial``, ``cli.main``), so that the tracer's wrappers,
installed at the modules' binding sites, see every call.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from misonoma import cli, oracle, simulation, two_user_core

# Inputs drawn per run; a run stops early if it uses them all.
MAX_OPS = 10_000

# Output-check tolerances (criterion 9 for the scheduler; rate-domain
# rounding for the CSVs, which carry 13 significant digits).
RATE_REL_TOL = 1e-6
LEAK_TOL = 1e-9
POWER_REL_TOL = 1e-9
CSV_RATE_TOL = 1e-9
CSV_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-3
# At Gamma = P the weak user gets no power: the design returns exactly 0 and
# the oracle round-off (seen: 1.7e-19), so values this small count as equal.
ORACLE_ABS_TOL = 1e-12
ORACLE_GRID = 512


def _base_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**32))


class Workload:
    def warm_up(self) -> None:
        """One untimed op on input 0, which no timed op uses."""
        inp = self.input(0)
        self.output(inp, self.op(inp))

    def finish(self) -> dict[int, list[str]]:
        return {}


class ScheduleLarge(Workload):
    """One op is one ``run_trial`` at the paper's large-pool point."""

    name = "schedule-large"
    expected = (
        "simulation.run_trial",
        "simulation.generate_channels",
        "scheduler.schedule",
        "scheduler.sus_select",
        "scheduler.estimate_ici",
        "scheduler.baseline_sus_zf",
        "scheduler.realized_rates",
        "complex_linalg.gram_schmidt",
        "complex_linalg.project_complement",
        "two_user_core.derive_params",
        "two_user_core.optimize_p1",
        "two_user_core.maximize_gamma2_over_p1",
        "two_user_core.gamma2_of_p1",
        "golden.golden_section_max",
    )

    def __init__(self, seed: int, out_dir: Path):
        self.gamma = 1.5
        self.cfg = simulation.SimConfig(
            nt=4,
            k_users=200,
            pt_db=20.0,
            gamma=self.gamma,
            trials=1,
            seed=_base_seed(np.random.default_rng(seed)),
        )

    def input(self, i: int) -> int:
        return i  # a distinct trial id per op

    def op(self, t: int):
        return simulation.run_trial(self.cfg, t)

    def output(self, t: int, raw) -> bytes:
        rec, out, _ = raw
        h = hashlib.sha256()
        h.update(repr(vars(rec)).encode())
        h.update(repr((out.Kc, out.P, out.realized_rates)).encode())
        for plan in out.clusters:
            h.update(repr((plan.strong_id, plan.weak_id, plan.sigma_hat_u_sq)).encode())
            h.update(plan.w1_tilde.tobytes())
            h.update(plan.w2_tilde.tobytes())
        return h.digest()

    def check(self, t: int, raw, out: bytes) -> list[str]:
        rec, sched, pool = raw
        fails = []
        users = {u.uid: u for u in pool.strong + pool.weak}
        for k, plan in enumerate(sched.clusters):
            hs = users[plan.strong_id].h
            s1 = abs(np.vdot(hs, plan.w1_tilde)) ** 2
            leak = sum(
                abs(np.vdot(hs, w)) ** 2
                for kk, p in enumerate(sched.clusters)
                if kk != k
                for w in (p.w1_tilde, p.w2_tilde)
            )
            if leak > LEAK_TOL * s1:
                fails.append(f"cluster {k}: leakage/signal {leak / s1:.3e}")
            power = float(np.vdot(plan.w1_tilde, plan.w1_tilde).real) + float(
                np.vdot(plan.w2_tilde, plan.w2_tilde).real
            )
            if power > sched.P * (1.0 + POWER_REL_TOL):
                fails.append(f"cluster {k}: power {power!r} > P {sched.P!r}")
            if not plan.single_user:
                lam1 = float(np.vdot(plan.h1_eff, plan.h1_eff).real) / plan.sigma1_sq
                target = math.log2(1.0 + self.gamma * lam1)
                r1 = sched.realized_rates[k][0]
                if abs(r1 - target) > RATE_REL_TOL * target:
                    fails.append(f"cluster {k}: strong rate {r1!r} != target {target!r}")
        rates = [r for pair in sched.realized_rates for r in pair] + list(vars(rec).values())[1:]
        if not all(math.isfinite(r) and r >= 0.0 for r in rates):
            fails.append("a rate is negative or not finite")
        return fails


class GammaSweepSmall(Workload):
    """One op is one in-process ``gamma-sweep`` over 8 Gamma points, 1 trial."""

    name = "gamma-sweep-small"
    expected = ScheduleLarge.expected + ("cli.main",)
    gammas = np.linspace(0.25, 2.0, 8)
    header = b"Gamma,strong_rate_noma,weak_rate_noma,strong_rate_baseline,weak_rate_baseline"

    def __init__(self, seed: int, out_dir: Path):
        self.base = _base_seed(np.random.default_rng(seed))
        self.path = out_dir / "gamma-sweep.csv"

    def input(self, i: int) -> list[str]:
        return [
            "gamma-sweep",
            "--nt", "2", "--k", "40", "--pt-db", "10", "--trials", "1",
            "--gamma-min", "0.25", "--gamma-max", "2", "--gamma-points", "8",
            "--seed", str(self.base + i),
            "--out", str(self.path),
        ]

    def op(self, argv: list[str]) -> int:
        return cli.main(argv)

    def output(self, argv: list[str], rc: int) -> bytes:
        return self.path.read_bytes() if rc == 0 else b""

    def check(self, argv: list[str], rc: int, out: bytes) -> list[str]:
        """Each row must equal the reference path: ``run_trial(cfg, 0, gamma=G)``."""
        if rc != 0:
            return [f"exit code {rc}"]
        cfg = simulation.SimConfig(
            nt=2, k_users=40, pt_db=10.0, trials=1, seed=int(argv[argv.index("--seed") + 1])
        )
        lines = [self.header]
        for g in self.gammas:
            rec, _, _ = simulation.run_trial(cfg, 0, gamma=float(g))
            row = (
                float(g),
                rec.noma_strong_rate,
                rec.noma_weak_rate,
                rec.baseline_strong_rate,
                rec.baseline_weak_rate,
            )
            lines.append(",".join(format(v, ".12e") for v in row).encode())
        got = out.split(b"\n")
        if got != lines + [b""]:
            return [f"CSV differs from the run_trial reference:\n{out!r}"]
        return []


class CoreSweep(Workload):
    """One op is a ``pareto-boundary`` call then an ``angle-sweep`` call on
    one parameter draw: lambda1 log-uniform on [1, 100], lambda2/lambda1
    log-uniform on [1e-6, 1], theta uniform on [0, 1], P uniform on
    [0.5, 20] and Gamma uniform on [0, P].

    The two calls form one op because their times (about 1:2) would give
    a two-mode distribution whose median falls in the gap between modes.
    """

    name = "core-sweep"
    expected = (
        "cli.main",
        "two_user_core.channel_from_quality",
        "two_user_core.derive_params",
        "two_user_core.optimize_p1",
        "two_user_core.maximize_gamma2_over_p1",
        "two_user_core.gamma2_of_p1",
        "two_user_core.fixed_power_design",
        "golden.golden_section_max",
        "angle_analysis.gamma2_simple_power",
    )
    boundary_points = 101
    angle_points = 201

    def __init__(self, seed: int, out_dir: Path):
        rng = np.random.default_rng(seed)
        n = MAX_OPS
        self.lam1 = np.exp(rng.uniform(0.0, math.log(100.0), n))
        self.lam2 = self.lam1 * np.exp(rng.uniform(math.log(1e-6), 0.0, n))
        self.theta = rng.uniform(0.0, 1.0, n)
        self.P = rng.uniform(0.5, 20.0, n)
        self.Gamma = rng.uniform(0.0, self.P)
        # the boundary point and the angle point checked against the oracle
        self.j_boundary = rng.integers(0, self.boundary_points, n)
        self.j_angle = rng.integers(0, self.angle_points, n)
        self.boundary_path = out_dir / "pareto-boundary.csv"
        self.angle_path = out_dir / "angle-sweep.csv"
        self.pending: list[tuple] = []
        self.oracle_ms: list[float] = []

    def input(self, i: int):
        lam1, lam2, P = repr(self.lam1[i].item()), repr(self.lam2[i].item()), repr(self.P[i].item())
        boundary = [
            "pareto-boundary",
            "--lambda1", lam1, "--lambda2", lam2,
            "--theta", repr(self.theta[i].item()), "--p-cluster", P,
            "--points", str(self.boundary_points), "--out", str(self.boundary_path),
        ]
        angle = [
            "angle-sweep",
            "--lambda1", lam1, "--lambda2", lam2,
            "--gamma", repr(self.Gamma[i].item()), "--p-cluster", P,
            "--points", str(self.angle_points), "--out", str(self.angle_path),
        ]
        return i, boundary, angle

    def op(self, inp) -> tuple[int, int]:
        _, boundary, angle = inp
        return cli.main(boundary), cli.main(angle)

    def output(self, inp, rcs: tuple[int, int]) -> bytes:
        if rcs != (0, 0):
            return b""
        return self.boundary_path.read_bytes() + b"\0" + self.angle_path.read_bytes()

    def check(self, inp, rcs: tuple[int, int], out: bytes) -> list[str]:
        if rcs != (0, 0):
            return [f"exit codes {rcs}"]
        i = inp[0]
        boundary, angle = (
            [[float(x) for x in line.split(b",")] for line in part.split(b"\n")[1:-1]]
            for part in out.split(b"\0")
        )
        fails = []
        r2_power = [row[2] for row in boundary]
        if any(b > a + CSV_RATE_TOL for a, b in zip(r2_power, r2_power[1:])):
            fails.append("R2_power increases along the boundary")
        # the fixed design spends p1 = p2 = 1, so it may win when P < 2
        if self.P[i] >= 2.0 and any(
            row[2] < row[1] - CSV_RATE_TOL for row in boundary if not math.isnan(row[1])
        ):
            fails.append("R2_power below R2_fixed with P >= 2")
        if any(row[1] < row[2] * (1.0 - CSV_REL_TOL) for row in angle):
            fails.append("gamma2_optimal below gamma2_simple")
        jb, ja = int(self.j_boundary[i]), int(self.j_angle[i])
        self.pending.append((i, "boundary", jb, math.expm1(r2_power[jb] * math.log(2.0))))
        self.pending.append((i, "angle", ja, angle[ja][1]))
        return fails

    def finish(self) -> dict[int, list[str]]:
        """Check one boundary point and one angle point per op against the
        brute-force oracle; also times each oracle call."""
        fails: dict[int, list[str]] = {}
        for i, kind, j, got in self.pending:
            lam1, lam2, P = self.lam1[i].item(), self.lam2[i].item(), self.P[i].item()
            if kind == "boundary":
                G = float(np.linspace(0.0, P, self.boundary_points)[j])
                ch = two_user_core.channel_from_quality(lam1, lam2, self.theta[i].item(), P)
                params = two_user_core.derive_params(ch, G * ch.lambda1)
            else:
                th = float(np.linspace(0.0, 1.0, self.angle_points)[j])
                ch = two_user_core.channel_from_quality(lam1, lam2, th, P)
                params = two_user_core.derive_params(ch, self.Gamma[i].item() * ch.lambda1)
            t0 = time.perf_counter()
            try:
                ref = oracle.brute_force_max(ch, params, ORACLE_GRID, ORACLE_GRID).gamma2
            except Exception as exc:  # a failed check fails its op, not the run
                fails.setdefault(i, []).append(f"{kind} point {j}: oracle raised {exc!r}")
                continue
            self.oracle_ms.append((time.perf_counter() - t0) * 1e3)
            if abs(ref - got) > ORACLE_REL_TOL * max(ref, got) + ORACLE_ABS_TOL:
                fails.setdefault(i, []).append(
                    f"{kind} point {j}: gamma2 {got!r} vs oracle {ref!r}"
                )
        self.pending.clear()
        return fails


WORKLOADS = {w.name: w for w in (ScheduleLarge, GammaSweepSmall, CoreSweep)}
