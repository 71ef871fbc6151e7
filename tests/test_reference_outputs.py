"""Committed reference outputs of the scheduler, regenerated through cli.main.

Each case below is one CLI run.  Its CSV (and, for schedule-sim, its
--dump-beams log) must match the file of the same name under
tests/reference/: pairings (strong_id, weak_id) and single-user flags
exactly, every rate and beam to REL_TOL relative.  The case tags of the
schedule-sim runs are recorded while cli.main runs and must equal
case_tags.json exactly.

A reference file is rewritten only on purpose, with the largest move per
column reported next to the change:

    PYTHONPATH=src python3 tests/test_reference_outputs.py
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from misonoma import cli

REF_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9

# name -> CLI arguments (without --out); {ref} is the reference directory.
# nt=2 and nt=4 draws include clusters with Kc < Nt; the K=4 runs with weak
# users as strong as the strong ones (the config file) fall back to
# single-user; the sweep's targets are 0 and P_T/Nt.
CASES = {
    "schedule_nt2_k40": [
        "schedule-sim", "--nt", "2", "--k", "40", "--pt-db", "10", "--gamma", "1",
        "--trials", "4", "--seed", "22", "--dump-beams",
    ],
    "schedule_nt4_k200": [
        "schedule-sim", "--nt", "4", "--k", "200", "--pt-db", "20", "--gamma", "1.5",
        "--trials", "3", "--seed", "25", "--dump-beams",
    ],
    "schedule_nt2_k4_fallback": [
        "schedule-sim", "--config", "{ref}/fallback_config.json", "--trials", "12",
        "--seed", "20", "--dump-beams",
    ],
    "gamma_sweep_nt2_k40": [
        "gamma-sweep", "--nt", "2", "--k", "40", "--pt-db", "10", "--trials", "3",
        "--seed", "22", "--gamma-min", "0", "--gamma-max", "5", "--gamma-points", "3",
    ],
}


def run_case(name: str, out_dir: Path) -> dict[int, list[int | None]]:
    """Run one case through cli.main, writing name.csv (and its beam log)
    to out_dir; returns the case tags per trial (None for single-user)."""
    argv = [a.format(ref=REF_DIR) for a in CASES[name]]
    tags: dict[int, list[int | None]] = {}
    original = cli.run_monte_carlo

    def recording(cfg, keep_outputs=False):
        records, means, outputs = original(cfg, keep_outputs)
        for t, (out, _) in enumerate(outputs):
            tags[t] = [p.solution.case_tag.value if p.solution else None for p in out.clusters]
        return records, means, outputs

    cli.run_monte_carlo = recording
    try:
        rc = cli.main(argv + ["--out", str(out_dir / f"{name}.csv")])
    finally:
        cli.run_monte_carlo = original
    assert rc == 0
    return tags


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_csv(got: Path, want: Path) -> None:
    with open(got) as fg, open(want) as fw:
        g_rows, w_rows = list(csv.reader(fg)), list(csv.reader(fw))
    assert g_rows[0] == w_rows[0] and len(g_rows) == len(w_rows)
    for g_row, w_row in zip(g_rows[1:], w_rows[1:]):
        assert g_row[0] == w_row[0]  # trial id, "mean" or Gamma
        for a, b in zip(g_row[1:], w_row[1:]):
            assert _close(float(a), float(b)), (g_row, w_row)


def _beam_close(got: list, want: list) -> bool:
    """Complex vectors as [re, im] pairs, within REL_TOL of the larger norm."""
    g, w = np.array(got), np.array(want)
    scale = max(np.linalg.norm(g), np.linalg.norm(w))
    return g.shape == w.shape and float(np.abs(g - w).max(initial=0.0)) <= REL_TOL * scale


def _compare_beams(got: Path, want: Path) -> None:
    g_lines, w_lines = got.read_text().splitlines(), want.read_text().splitlines()
    assert len(g_lines) == len(w_lines)
    for g_line, w_line in zip(g_lines, w_lines):
        g, w = json.loads(g_line), json.loads(w_line)
        assert g["trial_id"] == w["trial_id"]
        pairs = [[(c["strong_id"], c["weak_id"]) for c in d["clusters"]] for d in (g, w)]
        assert pairs[0] == pairs[1]
        for gc, wc in zip(g["clusters"], w["clusters"]):
            assert gc.keys() == wc.keys()
            for key in gc:
                if key.endswith("_id"):
                    continue
                if key.endswith("eps_sq"):
                    assert _close(gc[key], wc[key]), key
                else:
                    assert _beam_close(gc[key], wc[key]), (w["trial_id"], key)


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("reference")
    tags = {name: run_case(name, out_dir) for name in CASES}
    return out_dir, tags


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(regenerated, name):
    out_dir, tags = regenerated
    _compare_csv(out_dir / f"{name}.csv", REF_DIR / f"{name}.csv")
    if "--dump-beams" in CASES[name]:
        _compare_beams(out_dir / f"{name}.csv.beams.jsonl", REF_DIR / f"{name}.csv.beams.jsonl")
        want = json.loads((REF_DIR / "case_tags.json").read_text())[name]
        assert {str(t): v for t, v in tags[name].items()} == want


def test_references_cover_the_edge_cases():
    # Kc < Nt at nt = 2 and 4, single-user fallbacks, and case tags 2 and 3
    seen = set()
    for name in ("schedule_nt2_k40", "schedule_nt4_k200", "schedule_nt2_k4_fallback"):
        nt = 2 if "nt2" in name else 4
        for line in (REF_DIR / f"{name}.csv.beams.jsonl").read_text().splitlines():
            clusters = json.loads(line)["clusters"]
            seen |= {f"underloaded_nt{nt}"} if len(clusters) < nt else set()
            seen |= {"single_user"} if any(c["weak_id"] is None for c in clusters) else set()
        tags = json.loads((REF_DIR / "case_tags.json").read_text())[name]
        seen |= {f"case_{t}" for trial in tags.values() for t in trial if t is not None}
    assert {"underloaded_nt2", "underloaded_nt4", "single_user", "case_2", "case_3"} <= seen


if __name__ == "__main__":
    REF_DIR.mkdir(exist_ok=True)
    all_tags = {}
    for case in CASES:
        case_tags = run_case(case, REF_DIR)
        if "--dump-beams" in CASES[case]:
            all_tags[case] = {str(t): v for t, v in case_tags.items()}
    (REF_DIR / "case_tags.json").write_text(json.dumps(all_tags, indent=1) + "\n")
    sys.exit(0)
