"""Every committed output, regenerated through one registry.

Each entry of CASES names a file under tests/reference/ (reference runs of
the scheduler and the oracle) or results/ (the experiments) and its
writer: cli.main arguments, or, for the K sweep behind
results/sum_rate_vs_users_nt*.csv, which no CLI command writes, a function
of the output path.  Every output (and, for schedule-sim, its --dump-beams
log) must match the committed file of the same name: pairings (strong_id,
weak_id), single-user flags, each CSV's first column and oracle-check's
instance parameters exactly, every rate, SINR and beam to REL_TOL
relative, and oracle-check's rel_err, itself a relative difference, to
REL_TOL absolute.  The case tags of the schedule-sim runs are recorded
while cli.main runs and must equal case_tags.json exactly.  Every CSV and
beam log under either directory must have an entry.

A committed output is rewritten only on purpose, with the largest move per
column reported next to the change:

    PYTHONPATH=src python3 tests/test_reference_outputs.py

runs every entry into a temporary directory, prints the largest move of
each file's columns (beam keys, for a beam log) against the file it would
replace, measured as the checks below measure them, and replaces the
committed files of both directories only if no pairing, single-user flag
or case tag changes (it writes nothing and exits 1 otherwise) and some
file would fail its check (it writes nothing and exits 0 when every file
passes).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from misonoma import cli
from misonoma.simulation import RATE_FIELDS, SimConfig, run_monte_carlo

REF_DIR = Path(__file__).resolve().parent / "reference"
RESULTS_DIR = REF_DIR.parent.parent / "results"
# files under REF_DIR that no entry writes: an input, and regenerate's tags
UNWRITTEN = {"fallback_config.json", "case_tags.json"}
REL_TOL = 1e-9
# CSV columns compared as text: the instances oracle-check draws
EXACT_COLUMNS = {"lambda1", "lambda2", "theta", "P", "Gamma"}


def sum_rate_vs_users(nt: int, gamma: float, path: Path) -> None:
    """Mean rates of the scheduler and the ZF baseline per pool size K in
    {20, 40, 80}: 200 trials at 10 dB, seed 1000 + K."""
    rows = []
    for k in (20, 40, 80):
        cfg = SimConfig(nt=nt, k_users=k, pt_db=10.0, gamma=gamma, trials=200, seed=1000 + k)
        means = run_monte_carlo(cfg)[1]
        rows.append([k] + [means[key] for key in RATE_FIELDS])
    cli.write_csv(str(path), ["k_users", *RATE_FIELDS], rows)


# name -> (directory, writer): CLI arguments without --out ({ref} is
# REF_DIR), or a function of the output path.  Under REF_DIR, nt=2 and nt=4
# draws include clusters with Kc < Nt; the K=4 runs with weak users as
# strong as the strong ones (the config file) fall back to single-user; the
# sweep's targets are 0 and P_T/Nt; oracle-check runs on grids small enough
# to keep the case near 0.2 s.  Under RESULTS_DIR: the two-user rate region
# (fixed unit powers against power allocation), the weak user's SINR
# against the channel angle at three asymmetry levels, the group rates
# against the strong users' target and the sum rate against the pool size.
CASES = {
    "schedule_nt2_k40": (REF_DIR, [
        "schedule-sim", "--nt", "2", "--k", "40", "--pt-db", "10", "--gamma", "1",
        "--trials", "4", "--seed", "22", "--dump-beams",
    ]),
    "schedule_nt4_k200": (REF_DIR, [
        "schedule-sim", "--nt", "4", "--k", "200", "--pt-db", "20", "--gamma", "1.5",
        "--trials", "3", "--seed", "25", "--dump-beams",
    ]),
    "schedule_nt2_k4_fallback": (REF_DIR, [
        "schedule-sim", "--config", "{ref}/fallback_config.json", "--trials", "12",
        "--seed", "20", "--dump-beams",
    ]),
    "gamma_sweep_nt2_k40": (REF_DIR, [
        "gamma-sweep", "--nt", "2", "--k", "40", "--pt-db", "10", "--trials", "3",
        "--seed", "22", "--gamma-min", "0", "--gamma-max", "5", "--gamma-points", "3",
    ]),
    "oracle_check": (REF_DIR, [
        "oracle-check", "--instances", "6", "--seed", "7", "--n-p1", "96", "--n-alpha2", "96",
    ]),
    "rate_region": (RESULTS_DIR, [
        "pareto-boundary", "--lambda1", "20", "--lambda2", "3", "--theta", "0.5",
        "--p-cluster", "2", "--points", "101",
    ]),
    **{
        f"angle_sweep_lam2_{lam2}": (RESULTS_DIR, [
            "angle-sweep", "--lambda1", "10", "--lambda2", lam2, "--gamma", "2",
            "--p-cluster", "10", "--points", "401",
        ])
        for lam2 in ("10", "1", "0.1")
    },
    "rate_balance_vs_target": (RESULTS_DIR, [
        "gamma-sweep", "--nt", "4", "--k", "200", "--pt-db", "20", "--trials", "50",
        "--seed", "2024", "--gamma-min", "0.5", "--gamma-max", "8", "--gamma-points", "8",
    ]),
    "sum_rate_vs_users_nt2": (RESULTS_DIR, partial(sum_rate_vs_users, 2, 2.0)),
    "sum_rate_vs_users_nt4": (RESULTS_DIR, partial(sum_rate_vs_users, 4, 1.5)),
}


def _dumps_beams(writer) -> bool:
    return not callable(writer) and "--dump-beams" in writer


def write_output(writer, path: Path) -> dict[int, list[int | None]]:
    """Write one output to path, by writer(path) or by cli.main with
    writer's arguments and --out path; returns the case tags per trial
    (None for single-user) of a run with --dump-beams."""
    if callable(writer):
        writer(path)
        return {}
    argv = [a.format(ref=REF_DIR) for a in writer]
    tags: dict[int, list[int | None]] = {}
    original = cli.run_monte_carlo

    def recording(cfg, keep_outputs=False):
        records, means, outputs = original(cfg, keep_outputs)
        for t, (out, _) in enumerate(outputs):
            tags[t] = [p.solution.case_tag.value if p.solution else None for p in out.clusters]
        return records, means, outputs

    cli.run_monte_carlo = recording
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # oracle-check's summary
            rc = cli.main(argv + ["--out", str(path)])
    finally:
        cli.run_monte_carlo = original
    assert rc == 0, argv
    return tags


def run_all(out_root: Path) -> dict[str, dict[str, list[int | None]]]:
    """Write every entry under out_root, in a folder named as its
    directory; returns the case tags of the runs with --dump-beams, keyed
    as in case_tags.json."""
    tags = {}
    for name, (directory, writer) in CASES.items():
        out_dir = out_root / directory.name
        out_dir.mkdir(exist_ok=True)
        case_tags = write_output(writer, out_dir / f"{name}.csv")
        if _dumps_beams(writer):
            tags[name] = {str(t): v for t, v in case_tags.items()}
    return tags


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _compare_csv(got: Path, want: Path) -> None:
    with open(got) as fg, open(want) as fw:
        g_rows, w_rows = list(csv.reader(fg)), list(csv.reader(fw))
    header = g_rows[0]
    assert header == w_rows[0] and len(g_rows) == len(w_rows)
    for g_row, w_row in zip(g_rows[1:], w_rows[1:]):
        assert g_row[0] == w_row[0]  # trial id, "mean", Gamma, instance, R1, theta or K
        for col, a, b in zip(header[1:], g_row[1:], w_row[1:]):
            if col in EXACT_COLUMNS:
                assert a == b, (col, g_row, w_row)
            elif col == "rel_err":
                assert abs(float(a) - float(b)) <= REL_TOL, (g_row, w_row)
            else:
                assert _close(float(a), float(b)), (col, g_row, w_row)


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
    out_root = tmp_path_factory.mktemp("outputs")
    return out_root, run_all(out_root)


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_reference(regenerated, name):
    out_root, tags = regenerated
    directory, writer = CASES[name]
    got, want = out_root / directory.name / f"{name}.csv", directory / f"{name}.csv"
    _compare_csv(got, want)
    if _dumps_beams(writer):
        _compare_beams(Path(f"{got}.beams.jsonl"), Path(f"{want}.beams.jsonl"))
        assert tags[name] == json.loads((REF_DIR / "case_tags.json").read_text())[name]


def test_every_committed_output_has_an_entry(regenerated):
    out_root, _ = regenerated
    for directory in (REF_DIR, RESULTS_DIR):
        committed = {p.name for p in directory.iterdir()} - UNWRITTEN
        assert committed == {p.name for p in (out_root / directory.name).iterdir()}


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


def _move(a: float, b: float, absolute: bool = False) -> float:
    """The move that _close bounds by REL_TOL (or, if absolute, the rel_err
    check by REL_TOL absolute): 0 for equal values or two NaNs, inf for a
    NaN against a number."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    if a == b:
        return 0.0
    return abs(a - b) if absolute else abs(a - b) / max(abs(a), abs(b))


def _beam_move(got: list, want: list) -> float:
    """The move that _beam_close bounds by REL_TOL: the largest entry
    difference over the larger norm (0 for two zero vectors)."""
    g, w = np.array(got), np.array(want)
    scale = max(np.linalg.norm(g), np.linalg.norm(w))
    diff = float(np.abs(g - w).max(initial=0.0))
    return diff / scale if diff else 0.0


def _csv_moves(got: Path, want: Path, problems: list[str]) -> dict[str, float]:
    with open(got) as fg, open(want) as fw:
        g_rows, w_rows = list(csv.reader(fg)), list(csv.reader(fw))
    if [r[:1] for r in g_rows] != [r[:1] for r in w_rows] or g_rows[0] != w_rows[0]:
        problems.append(f"{got.name}: header or rows change")
        return {}
    moves = dict.fromkeys(g_rows[0][1:], 0.0)
    for g_row, w_row in zip(g_rows[1:], w_rows[1:]):
        for col, a, b in zip(g_rows[0][1:], g_row[1:], w_row[1:]):
            moves[col] = max(moves[col], _move(float(a), float(b), col == "rel_err"))
    return moves


def _beam_moves(got: Path, want: Path, problems: list[str]) -> dict[str, float]:
    moves: dict[str, float] = {}
    g_lines, w_lines = got.read_text().splitlines(), want.read_text().splitlines()
    for g_line, w_line in zip(g_lines, w_lines):
        g, w = json.loads(g_line), json.loads(w_line)
        pairs = [[(c["strong_id"], c["weak_id"]) for c in d["clusters"]] for d in (g, w)]
        if g["trial_id"] != w["trial_id"] or pairs[0] != pairs[1]:
            problems.append(f"{got.name}: trial {w['trial_id']} changes its pairing")
            continue
        for gc, wc in zip(g["clusters"], w["clusters"]):
            for key in (k for k in gc if k in wc and not k.endswith("_id")):
                scalar = key.endswith("eps_sq")
                move = _move(gc[key], wc[key]) if scalar else _beam_move(gc[key], wc[key])
                moves[key] = max(moves.get(key, 0.0), move)
    if len(g_lines) != len(w_lines):
        problems.append(f"{got.name}: trials change")
    return moves


def _passes(got: Path, want: Path) -> bool:
    """Whether got passes test_matches_reference's check against want."""
    try:
        (_compare_beams if got.suffix == ".jsonl" else _compare_csv)(got, want)
    except AssertionError:
        return False
    return True


def regenerate() -> int:
    """Rewrite tests/reference/ and results/ from this checkout, reporting
    every move; returns 1, writing nothing, if a pairing, a single-user flag
    or a case tag would change, and 0, writing nothing, if every file and
    case tag already passes its check."""
    problems: list[str] = []
    stale = False
    tag_file = REF_DIR / "case_tags.json"
    old_tags = json.loads(tag_file.read_text()) if tag_file.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        out_root = Path(tmp)
        tags = run_all(out_root)
        for name in tags:
            if name in old_tags and old_tags[name] != tags[name]:
                problems.append(f"{name}: case tags change")
        written = [
            (path, directory / path.name)
            for directory in (REF_DIR, RESULTS_DIR)
            for path in sorted((out_root / directory.name).iterdir())
        ]
        for path, ref in written:
            label = f"{ref.parent.name}/{ref.name}"
            if not ref.exists():
                print(f"{label}: new file")
                stale = True
                continue
            moves = (_beam_moves if path.suffix == ".jsonl" else _csv_moves)(path, ref, problems)
            for key, move in moves.items():
                print(f"{label:52} {key:24} {move:.2g}")
            stale = stale or not _passes(path, ref)
        if problems:
            print("\n".join(problems + ["nothing written"]), file=sys.stderr)
            return 1
        if not stale and tags == old_tags:
            print("every committed output passes its check; nothing written")
            return 0
        for path, ref in written:
            ref.parent.mkdir(exist_ok=True)
            shutil.copyfile(path, ref)
    tag_file.write_text(json.dumps(tags, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate())
