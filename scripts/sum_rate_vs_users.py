#!/usr/bin/env python3
"""Scheduled sum rate versus pool size, NOMA against the two-interval ZF
baseline, at desk scale (trials and K are far below survey scale; raise
--trials/--k via the CLI for full-scale runs since each trial is cheap).

Writes results/sum_rate_vs_users_nt<nt>.csv with mean rates per K.
"""

import pathlib

from misonoma.cli import write_csv
from misonoma.simulation import RATE_FIELDS, SimConfig, run_monte_carlo

OUT = pathlib.Path(__file__).resolve().parent.parent / "results"

TRIALS = 200
K_GRID = (20, 40, 80)
GAMMA = {2: 2.0, 4: 1.5}


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    for nt in (2, 4):
        rows = []
        for k in K_GRID:
            cfg = SimConfig(
                nt=nt, k_users=k, pt_db=10.0, gamma=GAMMA[nt],
                trials=TRIALS, seed=1000 + k,
            )
            _, means, _ = run_monte_carlo(cfg)
            rows.append([k] + [means[key] for key in RATE_FIELDS])
        path = OUT / f"sum_rate_vs_users_nt{nt}.csv"
        write_csv(str(path), ["k_users", *RATE_FIELDS], rows)
        print(f"wrote {path}")
