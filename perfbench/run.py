"""misonoma benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
there and nowhere else.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` it replays the same ops under the tracer and
reports the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See WORKLOADS.md for what each workload loads.
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported; children inherit it.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy

import reference
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# p90 needs at least ten ops beyond it; the timed loop runs on until then.
MIN_OPS = 100
SETUP_REPS = 5
CHILD_TIMEOUT_S = 120


def _load_program():
    """Import misonoma from this checkout's src/, or exit without a result."""
    if not (SRC / "misonoma" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC}/misonoma")
    sys.path.insert(0, str(SRC))
    import misonoma

    if Path(misonoma.__file__).resolve().parent != SRC / "misonoma":
        sys.exit(f"error: imported misonoma from {misonoma.__file__}, not from {SRC}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds to import misonoma plus one warm-up op, each in a fresh
    interpreter, normalized by the reference work timed in that interpreter."""
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        elapsed, ref = map(float, proc.stdout.split()[-2:])
        times.append(elapsed * reference.NOMINAL_S / ref)
    return times


class Pass:
    """Outcome of one pass over the ops: op times, failures and output digests."""

    def __init__(self):
        self.times: list[float] = []
        self.ref_times: list[float] = []
        self.digests: list[bytes] = []
        self.failures: dict[int, list[str]] = {}

    def normalized(self) -> list[float]:
        """Op times scaled by the reference work timed right after each op."""
        return [t * reference.NOMINAL_S / r for t, r in zip(self.times, self.ref_times)]

    def fail(self, i: int, reason: str) -> None:
        if not self.failures:
            print(f"op {i} failed: {reason}", file=sys.stderr)
        self.failures.setdefault(i, []).append(reason)


def run_ops(w, indices, seconds: float, min_ops: int, check: bool, tracer=None) -> Pass:
    """Closed loop over op inputs: each op starts when the previous op and its
    untimed output handling have finished.  Stops once the summed op time
    reaches ``seconds`` and at least ``min_ops`` ops ran, or the inputs end."""
    res = Pass()
    gc.collect()
    total = 0.0
    for i in indices:
        if total >= seconds and len(res.times) >= min_ops:
            break
        inp = w.input(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            raw, reasons = w.op(inp), []
        except Exception:  # an op that raises is a failed op; keep measuring
            raw, reasons = None, [traceback.format_exc()]
        dt = time.perf_counter() - t0
        total += dt
        res.times.append(dt)
        res.ref_times.append(reference.seconds())
        out = b""
        if not reasons:
            try:
                out = w.output(inp, raw)
                if check:
                    reasons = w.check(inp, raw, out)
            except Exception:  # malformed output fails the op, not the run
                reasons = [traceback.format_exc()]
        res.digests.append(hashlib.sha256(out).digest())
        for reason in reasons:
            res.fail(i, reason)
    return res


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _finish(w, res: Pass) -> None:
    for i, reasons in w.finish().items():
        for reason in reasons:
            res.fail(i, reason)


def end_to_end(w, ops: range, seed: int, seconds: float) -> tuple[Pass, dict]:
    setup = measure_setup(w.name, seed)
    res = run_ops(w, ops, seconds, MIN_OPS, check=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _finish(w, res)
    ms = [t * 1e3 for t in res.normalized()]
    raw_ms = [t * 1e3 for t in res.times]
    n = len(ms)
    metrics = {
        "ops_per_s": (n * 1e3 / sum(ms), "ops/s"),
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (quantile(ms, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    p90 = metrics["op_ms_p90"][0]
    print(f"n {n} ops, {sum(1 for t in ms if t > p90)} above op_ms_p90")
    print(
        f"unnormalized: ops_per_s {n * 1e3 / sum(raw_ms):.4f}, op_ms_p50 "
        f"{statistics.median(raw_ms):.3f}, op_ms_p90 {quantile(raw_ms, 90):.3f}, "
        f"reference median {statistics.median(res.ref_times) * 1e3:.4f} ms"
    )
    print(f"setup_s samples {[round(s, 4) for s in setup]}")
    print(f"error_rate {len(res.failures) / n} fraction ({len(res.failures)} of {n} ops failed)")
    return res, metrics


def traced(w, ops: range, seed: int, seconds: float) -> tuple[Pass, dict, list[str]]:
    """Untraced pass for half the time, then the same ops under the tracer."""
    from misonoma import two_user_core

    plain = run_ops(w, ops, seconds / 2.0, 1, check=True)
    _finish(w, plain)
    n = len(plain.times)
    tr = tracer.Tracer()
    with tr.installed():
        replay = run_ops(w, ops[:n], 0.0, n, check=False, tracer=tr)
    problems = [
        f"op {i}: traced output differs"
        for i, a, b in zip(ops, plain.digests, replay.digests)
        if a != b
    ]
    counts = tr.call_counts()
    problems += [f"wrapper {name} recorded no calls" for name in w.expected if counts[name] == 0]
    metrics = tracer.layer_metrics(tr, n, two_user_core.P1_GRID)
    oracle_ms = getattr(w, "oracle_ms", [])
    metrics["oracle.brute_force_max.ms_per_check"] = (
        statistics.fmean(oracle_ms) if oracle_ms else 0.0,
        "ms/check",
    )
    metrics["trace.overhead_frac"] = (
        sum(replay.normalized()) / sum(plain.normalized()) - 1.0,
        "fraction",
    )
    path = OUT_DIR / f"trace-{w.name}.csv"
    tr.write(path, json.dumps({"workload": w.name, "seed": seed, **environment()}))
    print(f"ops {n}, {len(tr.spans)} spans written to {path.relative_to(ROOT)}")
    for p in problems:
        print(p, file=sys.stderr)
    return plain, metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment()))
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    w.warm_up()
    ops = range(1, workloads.MAX_OPS)  # input 0 is the warm-up op
    if args.trace:
        res, metrics, problems = traced(w, ops, args.seed, args.seconds)
    else:
        res, metrics = end_to_end(w, ops, args.seed, args.seconds)
        problems = []
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": not res.failures and not problems,
        "attempted": len(res.times),
        "failed": len(res.failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
