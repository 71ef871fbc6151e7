"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces each traced function at every binding site
in the ``misonoma`` package (the defining module, modules that imported it
by name, and the package namespace) and restores the originals on exit.
Spanned functions record (name, start, end, parent span, op id) in memory;
counted functions, which run tens of thousands of times per op, only bump a
counter so that the trace stays cheap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter

import numpy as np

SPANNED = (
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
    "two_user_core.fixed_power_design",
    # spanned without a metric of its own, so that cli.main's self time is
    # argument parsing and CSV output rather than channel construction
    "two_user_core.channel_from_quality",
    "golden.golden_section_max",
    "angle_analysis.gamma2_simple_power",
    "cli.main",
)
COUNTED = ("two_user_core.gamma2_of_p1",)

# per-layer metrics reported for each of these functions
CALLS_PER_OP = (
    "simulation.run_trial",
    "scheduler.estimate_ici",
    "scheduler.sus_select",
    "scheduler.baseline_sus_zf",
    "complex_linalg.gram_schmidt",
    "complex_linalg.project_complement",
    "two_user_core.optimize_p1",
    "two_user_core.gamma2_of_p1",
    "golden.golden_section_max",
)
MS_PER_OP = (
    "simulation.generate_channels",
    "scheduler.estimate_ici",
    "scheduler.sus_select",
    "scheduler.baseline_sus_zf",
    "scheduler.realized_rates",
    "complex_linalg.gram_schmidt",
    "complex_linalg.project_complement",
    "two_user_core.optimize_p1",
    "two_user_core.maximize_gamma2_over_p1",
    "two_user_core.derive_params",
    "two_user_core.fixed_power_design",
    "angle_analysis.gamma2_simple_power",
)
SELF_MS_PER_OP = ("scheduler.schedule", "two_user_core.optimize_p1", "cli.main")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.golden_evals = 0
        self.case_tags: Counter = Counter()
        self.schedules: list = []  # (SchedulerOutput, UserPool), read after the run
        self.op = -1
        self._stack: list[int] = []

    def call_counts(self) -> Counter:
        return self.counts + Counter(s[0] for s in self.spans)

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = {
            "two_user_core.optimize_p1": self._after_optimize,
            "scheduler.schedule": self._after_schedule,
        }.get(name)
        wraps_f = name == "golden.golden_section_max"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wraps_f:
                args = (self._count_evals(args[0]),) + args[1:]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_evals(self, f):
        def counted_f(x):
            self.golden_evals += 1
            return f(x)

        return counted_f

    def _after_optimize(self, args, sol) -> None:
        self.case_tags[sol.case_tag.value] += 1

    def _after_schedule(self, args, out) -> None:
        self.schedules.append((out, args[0]))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function at all its binding sites; restore them
        on exit and raise if any binding was not restored."""
        package = [
            m for n, m in list(sys.modules.items()) if n == "misonoma" or n.startswith("misonoma.")
        ]
        patched = []
        try:
            for name in SPANNED + COUNTED:
                module, attr = name.split(".")
                original = getattr(sys.modules["misonoma." + module], attr)
                make = self._counted if name in COUNTED else self._spanned
                wrapper = make(name, original)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)
        leftover = [f"{m.__name__}.{k}" for m, k, o in patched if getattr(m, k) is not o]
        if leftover:
            raise RuntimeError(f"tracer wrappers not restored: {leftover}")

    def write(self, path, header: str) -> None:
        """Spans as CSV, times in microseconds from the first span."""
        t_ref = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            fh.write(f"# {header}\n")
            fh.write("span,parent,op,name,start_us,end_us\n")
            for i, (name, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(
                    f"{i},{parent},{op},{name},{(t0 - t_ref) * 1e6:.3f},{(t1 - t_ref) * 1e6:.3f}\n"
                )


def layer_metrics(tr: Tracer, n_ops: int, p1_grid: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run, normalised per op.

    ``ms`` is inclusive time; ``self_ms`` is inclusive time minus the time
    of wrapped child calls.
    """
    spans = tr.spans
    incl: Counter = Counter()
    self_t: Counter = Counter()
    calls = tr.call_counts()
    child = [0.0] * len(spans)
    scored = considered = 0
    for i in range(len(spans) - 1, -1, -1):  # children follow their parent
        name, t0, t1, parent, _ = spans[i]
        d = t1 - t0
        incl[name] += d
        self_t[name] += d - child[i]
        if parent >= 0:
            child[parent] += d
            if spans[parent][0] == "scheduler.schedule":
                scored += name == "two_user_core.optimize_p1"
                considered += name == "scheduler.estimate_ici"

    paired = fallbacks = 0
    ici_err = 0.0
    for out, pool in tr.schedules:
        users = {u.uid: u for u in pool.strong + pool.weak}
        for k, plan in enumerate(out.clusters):
            if plan.single_user:
                fallbacks += 1
                continue
            paired += 1
            weak = users[plan.weak_id]
            realized = weak.eps_sq + sum(
                abs(np.vdot(weak.h, w)) ** 2
                for kk, p in enumerate(out.clusters)
                if kk != k
                for w in (p.w1_tilde, p.w2_tilde)
            )
            ici_err = max(ici_err, float(abs(plan.sigma_hat_u_sq - realized) / realized))

    def per_op(x: float) -> float:
        return x / n_ops

    metrics = {}
    for name in CALLS_PER_OP:
        metrics[f"{name}.calls_per_op"] = (per_op(calls[name]), "calls/op")
    for name in MS_PER_OP:
        metrics[f"{name}.ms_per_op"] = (per_op(incl[name] * 1e3), "ms/op")
    for name in SELF_MS_PER_OP:
        metrics[f"{name}.self_ms_per_op"] = (per_op(self_t[name] * 1e3), "ms/op")
    golden_calls = calls["golden.golden_section_max"]
    metrics.update(
        {
            "scheduler.candidates_scored_per_op": (per_op(scored), "candidates/op"),
            "scheduler.candidates_skipped_per_op": (per_op(considered - scored), "candidates/op"),
            "scheduler.scoring_useful_ratio": (paired / scored if scored else 0.0, "ratio"),
            "scheduler.single_user_fallbacks_per_op": (per_op(fallbacks), "clusters/op"),
            "scheduler.ici_estimate_rel_err_max": (ici_err, "fraction"),
            # computed, not counted: maximize calls times the grid size
            "two_user_core.grid_points_per_op": (
                per_op(calls["two_user_core.maximize_gamma2_over_p1"] * p1_grid),
                "points/op",
            ),
            "golden.evals_per_call": (
                tr.golden_evals / golden_calls if golden_calls else 0.0,
                "evals/call",
            ),
        }
    )
    for tag in (1, 2, 3):
        metrics[f"two_user_core.case_tag_{tag}_per_op"] = (per_op(tr.case_tags[tag]), "solutions/op")
    return metrics
