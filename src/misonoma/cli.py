"""Command-line harness emitting CSV data for the standard experiments.

Subcommands: pareto-boundary, angle-sweep, gamma-sweep, schedule-sim,
oracle-check; angle-sweep is computed by value, without beams
(angle_analysis.angle_sweep).  All floats are printed with 13 significant
digits and LF line endings, so outputs are byte-identical across runs for
a fixed configuration and seed.  Exit codes: 0 success, 2 invalid arguments,
3 infeasible configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import astuple, fields

import numpy as np

from .angle_analysis import angle_sweep
from .oracle import brute_force_max, sample_instance
from .simulation import (
    RATE_FIELDS,
    SimConfig,
    aggregate_means,
    run_monte_carlo,
    run_trial_sweep,
)
from .two_user_core import (
    InfeasibleTargetError,
    channel_from_quality,
    check_target,
    optimize_p1,
    pareto_boundary,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12e")
    return str(x)


def write_csv(path: str, header: list[str], rows: list[list]) -> None:
    """Header plus rows, LF line endings, floats with 13 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _count(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def count(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return count


def _finite(text: str) -> float:
    """argparse type: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _sim_config(args) -> SimConfig:
    """The config file (if any) under the flags that were given; each sim
    flag's dest is the SimConfig field it sets."""
    flags = {f.name: getattr(args, f.name, None) for f in fields(SimConfig)}
    flags = {k: v for k, v in flags.items() if v is not None}
    if args.config:
        return SimConfig.from_file(args.config, **flags)
    return SimConfig(**flags)


def cmd_pareto_boundary(args) -> int:
    """Rate-region boundary: fixed unit powers versus power allocation
    (two_user_core.pareto_boundary's rows)."""
    ch = channel_from_quality(args.lambda1, args.lambda2, args.theta, args.p_cluster)
    write_csv(args.out, ["R1", "R2_fixed", "R2_power"], pareto_boundary(ch, args.points))
    return EXIT_OK


def cmd_angle_sweep(args) -> int:
    """Weak-user SINR versus channel angle: optimal versus simple power
    (angle_analysis.angle_sweep's rows)."""
    rows = angle_sweep(args.lambda1, args.lambda2, args.gamma, args.p_cluster, args.points)
    write_csv(args.out, ["theta", "gamma2_optimal", "gamma2_simple"], rows)
    return EXIT_OK


# gamma-sweep CSV column -> the TrialRecord field whose mean it holds
_SWEEP_COLUMNS = {
    "strong_rate_noma": "noma_strong_rate",
    "weak_rate_noma": "noma_weak_rate",
    "strong_rate_baseline": "baseline_strong_rate",
    "weak_rate_baseline": "baseline_weak_rate",
}


def cmd_gamma_sweep(args) -> int:
    """Mean group rates versus the strong-user target level Gamma.

    The same channel realizations (same per-trial seeds) are reused for
    every Gamma, so the sweep isolates the effect of the target.
    """
    cfg = _sim_config(args)
    gammas = np.linspace(args.gamma_min, args.gamma_max, args.gamma_points)
    check_target(args.gamma_max, cfg.p_total / cfg.nt)  # P_T/Kc is at least P_T/Nt
    grid = [float(g) for g in gammas]
    per_trial = [run_trial_sweep(cfg, t, grid) for t in range(cfg.trials)]
    rows = []
    for g, records in zip(grid, zip(*per_trial)):
        means = aggregate_means(list(records))
        rows.append([g] + [means[k] for k in _SWEEP_COLUMNS.values()])
    write_csv(args.out, ["Gamma", *_SWEEP_COLUMNS], rows)
    return EXIT_OK


def cmd_schedule_sim(args) -> int:
    """Monte Carlo scheduling run: per-trial records plus a mean summary."""
    cfg = _sim_config(args)
    records, means, outputs = run_monte_carlo(cfg, keep_outputs=args.dump_beams)
    rows = [list(astuple(r)) for r in records]
    rows.append(["mean"] + [means[k] for k in RATE_FIELDS])
    write_csv(args.out, ["trial_id", *RATE_FIELDS], rows)
    if args.dump_beams:
        _dump_beams(args.out + ".beams.jsonl", outputs)
    return EXIT_OK


def _dump_beams(path: str, outputs) -> None:
    """Beam log from which the realized rates can be recomputed."""

    def vec(v: np.ndarray) -> list[list[float]]:
        return [[float(z.real), float(z.imag)] for z in v]

    with open(path, "w", newline="") as fh:
        for t, (out, pool) in enumerate(outputs):
            clusters = []
            for plan in out.clusters:
                strong_h, strong_eps_sq = pool.row(plan.strong_id)
                entry = {
                    "strong_id": plan.strong_id,
                    "weak_id": plan.weak_id,
                    "strong_h": vec(strong_h),
                    "strong_eps_sq": strong_eps_sq,
                    "w1": vec(plan.w1_tilde),
                    "w2": vec(plan.w2_tilde),
                }
                if plan.weak_id is not None:
                    weak_h, weak_eps_sq = pool.row(plan.weak_id)
                    entry["weak_h"] = vec(weak_h)
                    entry["weak_eps_sq"] = weak_eps_sq
                clusters.append(entry)
            fh.write(json.dumps({"trial_id": t, "clusters": clusters}) + "\n")


def cmd_oracle_check(args) -> int:
    """Random-instance comparison of the design against the grid oracle."""
    rng = np.random.default_rng(args.seed if args.seed is not None else 2024)
    rows = []
    worst = 0.0
    for i in range(args.instances):
        ch, params = sample_instance(rng)
        sol = optimize_p1(ch, params)
        res = brute_force_max(ch, params, args.n_p1, args.n_alpha2)
        denom = max(res.gamma2, sol.gamma2_star, 1e-30)
        rel = abs(res.gamma2 - sol.gamma2_star) / denom
        worst = max(worst, rel)
        rows.append(
            [
                i,
                params.lambda1,
                params.lambda2,
                params.theta,
                ch.P,
                params.Gamma,
                sol.gamma2_star,
                res.gamma2,
                rel,
            ]
        )
    if args.out:
        write_csv(
            args.out,
            [
                "instance",
                "lambda1",
                "lambda2",
                "theta",
                "P",
                "Gamma",
                "gamma2_design",
                "gamma2_oracle",
                "rel_err",
            ],
            rows,
        )
    print(f"checked {args.instances} instances, worst relative error {worst:.3e}")
    return EXIT_OK


def _add_sim_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat JSON config file (flags override it)")
    p.add_argument("--nt", type=int, default=None, help="transmit antennas")
    p.add_argument("--k", dest="k_users", metavar="K", type=int, help="total user count (even)")
    p.add_argument("--pt-db", type=_finite, default=None, help="total power in dB")
    p.add_argument("--gamma", type=_finite, default=None, help="normalized strong-user target")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--delta", type=_finite, default=None, help="semi-orthogonality parameter")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="misonoma",
        description="Two-user NOMA beam design and MU-MISO scheduling experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pareto-boundary", help="rate-region boundary sweep")
    p.add_argument("--lambda1", type=_finite, default=20.0)
    p.add_argument("--lambda2", type=_finite, default=3.0)
    p.add_argument("--theta", type=_finite, default=0.5)
    p.add_argument("--p-cluster", type=_finite, default=2.0, help="cluster power P (linear)")
    p.add_argument("--points", type=_count(2), default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pareto_boundary)

    p = sub.add_parser("angle-sweep", help="SINR versus channel angle")
    p.add_argument("--lambda1", type=_finite, default=10.0)
    p.add_argument("--lambda2", type=_finite, default=1.0)
    p.add_argument("--gamma", type=_finite, default=2.0)
    p.add_argument("--p-cluster", type=_finite, default=10.0)
    p.add_argument("--points", type=_count(1), default=201)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_angle_sweep)

    p = sub.add_parser("gamma-sweep", help="group rates versus the target level")
    _add_sim_flags(p)
    p.add_argument("--gamma-min", type=_finite, default=0.25)
    p.add_argument("--gamma-max", type=_finite, default=2.0)
    p.add_argument("--gamma-points", type=_count(1), default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gamma_sweep)

    p = sub.add_parser("schedule-sim", help="Monte Carlo scheduling run")
    _add_sim_flags(p)
    p.add_argument("--dump-beams", action="store_true", help="write a beam log next to the CSV")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_schedule_sim)

    p = sub.add_parser("oracle-check", help="compare the design with the grid oracle")
    p.add_argument("--instances", type=_count(1), default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--n-p1", type=int, default=512)
    p.add_argument("--n-alpha2", type=int, default=512)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on the first call and reused: parse_args keeps
    no state between calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleTargetError as exc:
        print(f"error: infeasible configuration: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
