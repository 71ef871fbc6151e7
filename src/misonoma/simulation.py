"""Monte Carlo link simulation: channel generation and trial loops.

Randomness comes from numpy's PCG64 generator; trial t of a run seeded
with s uses default_rng(s + t), so trials are independent, reproducible,
and order-insensitive.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .scheduler import (
    SchedulerOutput,
    SUSConfig,
    UserGroup,
    UserPool,
    baseline_sus_zf,
    schedule,
    schedule_targets,
    zf_select,
)
from .two_user_core import check_target


@dataclass
class SimConfig:
    """Scenario description for the scheduling experiments.

    k_users is split evenly into strong (variance sigma_h1_sq) and weak
    (variance sigma_h2_sq) sets; pt_db is the total transmit power in dB.
    """

    nt: int = 2
    k_users: int = 40
    pt_db: float = 10.0
    gamma: float = 1.0
    sigma_h1_sq: float = 1.0
    sigma_h2_sq: float = 0.01
    awgn_var: float = 1.0
    trials: int = 200
    seed: int = 12345
    delta: float = 0.3

    def __post_init__(self):
        for f in fields(self):  # int fields take integers, float fields any real
            value = getattr(self, f.name)
            kind = numbers.Integral if f.type == "int" else numbers.Real
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{f.name} must be {kind.__name__.lower()}, got {value!r}")
            if not isinstance(value, numbers.Integral) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.k_users < 2 or self.k_users % 2 != 0:
            raise ValueError("k_users must be even and at least 2")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if min(self.sigma_h1_sq, self.sigma_h2_sq, self.awgn_var) <= 0:
            raise ValueError("variances must be positive")
        if self.nt < 1:
            raise ValueError("nt must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        try:
            self.p_total
        except OverflowError:
            raise ValueError(f"pt_db too large for a float power, got {self.pt_db!r}") from None

    @property
    def p_total(self) -> float:
        return 10.0 ** (float(self.pt_db) / 10.0)

    @classmethod
    def from_file(cls, path: str, **overrides) -> "SimConfig":
        """Flat key-value JSON object mirroring the field names; overrides win."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass
class TrialRecord:
    """Per-trial sum rates (bits/s/Hz).

    The field order is the CSV column order of schedule-sim's rows and of
    the means tables; RATE_FIELDS lists the rate fields in that order.

    Baseline group rates are the per-interval sums halved: the conventional
    scheme serves each group in its own interval, so the halves are the
    per-group throughput shares and add up to baseline_sum_rate.
    """

    trial_id: int
    noma_sum_rate: float
    noma_strong_rate: float
    noma_weak_rate: float
    baseline_sum_rate: float
    baseline_strong_rate: float
    baseline_weak_rate: float

    def __post_init__(self):
        rates = [getattr(self, k) for k in RATE_FIELDS]
        if not all(math.isfinite(v) and v >= 0 for v in rates):
            raise ValueError("rates must be finite and nonnegative")


RATE_FIELDS = tuple(f.name for f in fields(TrialRecord)[1:])


def generate_channels(cfg: SimConfig, rng: np.random.Generator) -> UserPool:
    """i.i.d. complex Gaussian channels: two real normals per entry, each
    with variance sigma_h^2/2, drawn as (K/2, Nt) matrices: the real parts
    of the strong rows, their imaginary parts, then the same for the weak
    rows.  Strong users get ids 0..K/2-1, weak users K/2..K-1."""
    half = cfg.k_users // 2

    def draw(var: float, start: int) -> UserGroup:
        scale = math.sqrt(var / 2.0)
        re = rng.normal(0.0, scale, size=(half, cfg.nt))
        im = rng.normal(0.0, scale, size=(half, cfg.nt))
        return UserGroup(np.arange(start, start + half), re + 1j * im, np.full(half, cfg.awgn_var))

    strong = draw(cfg.sigma_h1_sq, 0)
    return UserPool(strong, draw(cfg.sigma_h2_sq, half))


def _noma_rates(out: SchedulerOutput) -> tuple[float, float, float]:
    """The NOMA fields of a TrialRecord, in field order: summed realized rates."""
    strong_rate = sum(r1 for r1, _ in out.realized_rates)
    weak_rate = sum(r2 for _, r2 in out.realized_rates)
    return strong_rate + weak_rate, strong_rate, weak_rate


def run_trial(
    cfg: SimConfig, trial_id: int, gamma: float | None = None
) -> tuple[TrialRecord, SchedulerOutput, UserPool]:
    """One channel realization: NOMA schedule plus the ZF baseline, sharing
    one SUS+ZF selection of the strong users."""
    rng = np.random.default_rng(cfg.seed + trial_id)
    pool = generate_channels(cfg, rng)
    sus = SUSConfig(target_count=cfg.nt, delta=cfg.delta)
    strong = zf_select(pool.strong_rows, sus)
    out = schedule(pool, strong, cfg.p_total, cfg.gamma if gamma is None else gamma)
    s_strong, s_weak, combined = baseline_sus_zf(pool, strong, cfg.p_total, sus)
    rec = TrialRecord(trial_id, *_noma_rates(out), combined, 0.5 * s_strong, 0.5 * s_weak)
    return rec, out, pool


def run_trial_sweep(cfg: SimConfig, trial_id: int, gammas: list[float]) -> list[TrialRecord]:
    """run_trial(cfg, trial_id, gamma=g)[0] for each g in gammas.

    The channels are drawn and the ZF baseline computed once, by run_trial
    at the first target; every further target is scheduled on that pool by
    one schedule_targets call, with one shared SUS+ZF selection of its
    strong users.  An empty list raises ValueError, and a target outside
    [0, P_T], which no draw can meet, raises InfeasibleTargetError before
    any channel is drawn.  A target above the draw's own bound P_T/Kc
    raises InfeasibleTargetError, as run_trial does, once the draw fixes Kc.
    """
    if not gammas:
        raise ValueError("gammas must hold at least one target")
    for g in gammas:
        check_target(g, cfg.p_total)
    rec, _, pool = run_trial(cfg, trial_id, gamma=gammas[0])
    strong = zf_select(pool.strong_rows, SUSConfig(target_count=cfg.nt, delta=cfg.delta))
    baseline = (rec.baseline_sum_rate, rec.baseline_strong_rate, rec.baseline_weak_rate)
    outs = schedule_targets(pool, strong, cfg.p_total, gammas[1:])
    return [rec] + [TrialRecord(trial_id, *_noma_rates(o), *baseline) for o in outs]


def run_monte_carlo(
    cfg: SimConfig, keep_outputs: bool = False
) -> tuple[list[TrialRecord], dict[str, float], list[tuple[SchedulerOutput, UserPool]]]:
    """All trials of a scenario plus the aggregate means."""
    records: list[TrialRecord] = []
    outputs: list[tuple[SchedulerOutput, UserPool]] = []
    for t in range(cfg.trials):
        rec, out, pool = run_trial(cfg, t)
        records.append(rec)
        if keep_outputs:
            outputs.append((out, pool))
    means = aggregate_means(records)
    return records, means, outputs


def aggregate_means(records: list[TrialRecord]) -> dict[str, float]:
    """Mean of each rate field over the records, keyed in RATE_FIELDS order."""
    n = len(records)
    return {k: sum(getattr(r, k) for r in records) / n for k in RATE_FIELDS}
