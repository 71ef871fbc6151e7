import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from misonoma.cli import main
from misonoma.simulation import SimConfig, aggregate_means, run_trial


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    return header, rows[1:]


def test_pareto_boundary_csv(tmp_path):
    out = tmp_path / "pb.csv"
    rc = main(
        [
            "pareto-boundary",
            "--lambda1", "20", "--lambda2", "3", "--theta", "0.5",
            "--p-cluster", "2", "--points", "21", "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(str(out))
    assert header == ["R1", "R2_fixed", "R2_power"]
    assert len(rows) == 21
    r2p = [float(r[2]) for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(r2p, r2p[1:]))
    fixed = [(float(r[0]), float(r[1]), float(r[2])) for r in rows]
    finite = [(f, p) for _, f, p in fixed if not math.isnan(f)]
    assert finite and all(p >= f - 1e-9 for f, p in finite)


def test_angle_sweep_csv(tmp_path):
    out = tmp_path / "as.csv"
    rc = main(
        [
            "angle-sweep",
            "--lambda1", "10", "--lambda2", "1", "--gamma", "2",
            "--p-cluster", "10", "--points", "11", "--out", str(out),
        ]
    )
    assert rc == 0
    header, rows = _read_csv(str(out))
    assert header == ["theta", "gamma2_optimal", "gamma2_simple"]
    for r in rows:
        assert float(r[1]) >= float(r[2]) - 1e-9  # simple never beats optimal


def test_gamma_sweep_csv(tmp_path):
    out = tmp_path / "gs.csv"
    rc = main(
        [
            "gamma-sweep",
            "--k", "8", "--trials", "3", "--seed", "5",
            "--gamma-min", "0.5", "--gamma-max", "2",
            "--gamma-points", "4", "--out", str(out),
        ]
    )
    assert rc == 0
    # each row is the mean of the per-trial records at its Gamma
    cfg = SimConfig(k_users=8, trials=3, seed=5)
    keys = ("noma_strong_rate", "noma_weak_rate", "baseline_strong_rate", "baseline_weak_rate")
    lines = out.read_bytes().split(b"\n")
    assert len(lines) == 6 and lines[-1] == b""
    for G, line in zip(np.linspace(0.5, 2.0, 4), lines[1:-1]):
        means = aggregate_means([run_trial(cfg, t, gamma=float(G))[0] for t in range(3)])
        row = [float(G)] + [means[k] for k in keys]
        assert line == ",".join(format(v, ".12e") for v in row).encode()
    header, rows = _read_csv(str(out))
    assert header == [
        "Gamma",
        "strong_rate_noma",
        "weak_rate_noma",
        "strong_rate_baseline",
        "weak_rate_baseline",
    ]
    assert len(rows) == 4
    base = [float(r[3]) for r in rows]
    assert max(base) - min(base) < 1e-15  # baseline independent of the target


def test_schedule_sim_deterministic_bytes(tmp_path):
    args = [
        "schedule-sim",
        "--k", "8", "--trials", "3", "--seed", "5", "--gamma", "1.0",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"\r" not in out1.read_bytes()


def test_schedule_sim_summary_row(tmp_path):
    out = tmp_path / "ss.csv"
    assert (
        main(
            [
                "schedule-sim",
                "--k", "8", "--trials", "3", "--seed", "5",
                "--gamma", "1.0", "--out", str(out),
            ]
        )
        == 0
    )
    header, rows = _read_csv(str(out))
    assert header == [
        "trial_id",
        "noma_sum_rate",
        "noma_strong_rate",
        "noma_weak_rate",
        "baseline_sum_rate",
        "baseline_strong_rate",
        "baseline_weak_rate",
    ]
    assert rows[-1][0] == "mean"
    means = np.mean([[float(v) for v in r[1:]] for r in rows[:-1]], axis=0)
    np.testing.assert_allclose([float(v) for v in rows[-1][1:]], means, rtol=1e-9)


def test_dump_beams_rates_recomputable(tmp_path):
    out = tmp_path / "ss.csv"
    assert (
        main(
            [
                "schedule-sim",
                "--k", "8", "--trials", "2", "--seed", "5",
                "--gamma", "1.0", "--dump-beams", "--out", str(out),
            ]
        )
        == 0
    )
    header, rows = _read_csv(str(out))
    beams_path = str(out) + ".beams.jsonl"
    with open(beams_path) as fh:
        logs = [json.loads(line) for line in fh]
    assert len(logs) == 2

    def vec(entry):
        return np.array([re + 1j * im for re, im in entry])

    for t, log in enumerate(logs):
        clusters = log["clusters"]
        strong_rate = 0.0
        weak_rate = 0.0
        for k, cl in enumerate(clusters):
            others = [
                vec(c[w])
                for kk, c in enumerate(clusters)
                if kk != k
                for w in ("w1", "w2")
            ]
            hs = vec(cl["strong_h"])
            w1 = vec(cl["w1"])
            w2 = vec(cl["w2"])
            ici1 = sum(abs(np.vdot(hs, w)) ** 2 for w in others)
            s1 = abs(np.vdot(hs, w1)) ** 2
            sig1 = ici1 + cl["strong_eps_sq"]
            strong_rate += math.log2(1.0 + s1 / sig1)
            if cl["weak_id"] is None:
                continue
            g = vec(cl["weak_h"])
            ici2 = sum(abs(np.vdot(g, w)) ** 2 for w in others)
            r1 = abs(np.vdot(hs, w2)) ** 2
            s2 = abs(np.vdot(g, w2)) ** 2
            r2 = abs(np.vdot(g, w1)) ** 2
            sinr2 = min(r1 / (s1 + sig1), s2 / (r2 + ici2 + cl["weak_eps_sq"]))
            weak_rate += math.log2(1.0 + sinr2)
        assert strong_rate == pytest.approx(float(rows[t][2]), rel=1e-9)
        assert weak_rate == pytest.approx(float(rows[t][3]), rel=1e-9)


def test_config_file_and_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"k_users": 8, "trials": 2, "seed": 5, "gamma": 1.0})
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert (
        main(["schedule-sim", "--config", str(cfg_path), "--out", str(out1)]) == 0
    )
    assert (
        main(
            [
                "schedule-sim", "--config", str(cfg_path),
                "--seed", "6", "--out", str(out2),
            ]
        )
        == 0
    )
    assert out1.read_bytes() != out2.read_bytes()  # flag overrode the file seed


def test_unknown_config_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "x.csv"
    for text in (json.dumps({"bogus": 1}), '{"nt": true}'):
        cfg_path.write_text(text)
        argv = ["schedule-sim", "--config", str(cfg_path), "--k", "8", "--trials", "1"]
        assert main(argv + ["--out", str(out)]) == 2, text
    assert not out.exists()


def test_infeasible_gamma_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for argv in (
        ["schedule-sim", "--k", "8", "--trials", "1", "--gamma", "99"],
        # P_T/Nt = 5 at the default 10 dB and Nt = 2
        ["gamma-sweep", "--k", "8", "--trials", "1", "--gamma-max", "5.5"],
        ["gamma-sweep", "--k", "8", "--trials", "1", "--gamma-min", "-1"],
    ):
        assert main(argv + ["--out", str(out)]) == 3, argv
        assert argv[-1] in capsys.readouterr().err  # names the infeasible target
    assert not out.exists()


def test_bad_flag_exit_code(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for argv in (
        ["schedule-sim", "--nope", "1"],
        ["pareto-boundary", "--points", "1"],
        ["angle-sweep", "--points", "0"],
        ["gamma-sweep", "--gamma-points", "0"],
        ["oracle-check", "--instances", "0"],
        ["schedule-sim", "--gamma", "nan"],
        ["schedule-sim", "--pt-db", "nan"],
        ["schedule-sim", "--pt-db", "inf"],
        ["schedule-sim", "--delta", "inf"],
        ["pareto-boundary", "--p-cluster", "nan"],
        ["angle-sweep", "--gamma", "nan"],
        ["gamma-sweep", "--gamma-max", "nan"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2, argv
        assert argv[-1] in capsys.readouterr().err
    for argv in (
        ["schedule-sim", "--k", "8", "--trials", "1", "--pt-db", "4000"],
        ["gamma-sweep", "--k", "8", "--trials", "1", "--pt-db", "4000"],
    ):
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert argv[-1] in capsys.readouterr().err
    # channel qualities must be positive; the error names the first bad one
    for name, argv in (
        ("lambda1", ["pareto-boundary", "--lambda1", "0", "--lambda2", "0"]),
        ("lambda1", ["angle-sweep", "--lambda1", "0", "--lambda2", "0"]),
        ("lambda1", ["pareto-boundary", "--lambda1", "-1", "--lambda2", "-2"]),
        ("lambda1", ["angle-sweep", "--lambda1", "-1", "--lambda2", "-2"]),
        ("lambda2", ["angle-sweep", "--lambda2", "0"]),
    ):
        assert main(argv + ["--out", str(out)]) == 2, argv
        assert f"{name} must be positive" in capsys.readouterr().err, argv
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["pareto-boundary", "--lambda1", "1e-300", "--lambda2", "1e-300", "--points", "3"],
        ["angle-sweep", "--lambda1", "1e200", "--lambda2", "1e200"],
    ],
)
def test_extreme_channel_qualities(tmp_path, argv):
    # squared channel norms near the ends of the float range: the channel
    # angle neither under- nor overflows, so every value is a number (nan
    # only in R2_fixed, where Gamma > 1) and no warning is raised
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == 0
    header, rows = _read_csv(str(out))
    for row in rows:
        for name, cell in zip(header, row):
            assert math.isfinite(float(cell)) or name == "R2_fixed", (name, row)
            assert float(cell) >= 0.0 or math.isnan(float(cell))


def test_angle_sweep_at_zero_gamma(tmp_path):
    # Gamma = 0: the simple rule's SINR is its Gamma -> 0 limit, P*lambda2
    # above theta1 = lambda2/lambda1, and never above the optimal design
    out = tmp_path / "as.csv"
    argv = ["angle-sweep", "--lambda1", "10", "--lambda2", "1", "--gamma", "0",
            "--p-cluster", "10", "--points", "11", "--out", str(out)]
    assert main(argv) == 0
    header, rows = _read_csv(str(out))
    assert header == ["theta", "gamma2_optimal", "gamma2_simple"]
    for theta, optimal, simple in (map(float, r) for r in rows):
        assert math.isfinite(simple) and 0.0 < simple <= optimal * (1.0 + 1e-12)
        if theta > 0.1 + 1e-9:
            assert simple == 10.0 * 1.0


def test_parser_reused_across_subcommands(tmp_path, capsys):
    # main builds its parser once; interleaved subcommands, defaults left
    # out after being given, and bad input in between must write what a
    # freshly built parser writes, and bad input must still exit 2
    from misonoma import cli

    calls = [
        ["angle-sweep", "--gamma", "3", "--points", "5"],
        ["schedule-sim", "--k", "8", "--trials", "2", "--seed", "4", "--gamma", "0.5"],
        ["pareto-boundary", "--points", "4"],
        ["angle-sweep", "--points", "5"],
        ["gamma-sweep", "--k", "8", "--trials", "2", "--gamma-points", "3"],
        ["schedule-sim", "--k", "8", "--trials", "2"],
    ]
    for i, argv in enumerate(calls):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--points", "0", "--out", str(tmp_path / "bad.csv")])
        assert exc.value.code == 2
        assert main(argv + ["--out", str(tmp_path / f"{i}.csv")]) == 0
        args = cli.build_parser().parse_args(argv + ["--out", str(tmp_path / f"{i}.ref.csv")])
        assert args.func(args) == 0
        assert (tmp_path / f"{i}.csv").read_bytes() == (tmp_path / f"{i}.ref.csv").read_bytes()
    assert not (tmp_path / "bad.csv").exists()
    capsys.readouterr()


def test_oracle_check_runs(tmp_path, capsys):
    out = tmp_path / "oc.csv"
    rc = main(
        [
            "oracle-check", "--instances", "3", "--seed", "1",
            "--n-p1", "128", "--n-alpha2", "128", "--out", str(out),
        ]
    )
    assert rc == 0
    assert "worst relative error" in capsys.readouterr().out
    header, rows = _read_csv(str(out))
    assert len(rows) == 3
    assert all(float(r[-1]) < 1e-3 for r in rows)


def test_floats_carry_full_precision(tmp_path):
    out = tmp_path / "pb.csv"
    main(
        [
            "pareto-boundary",
            "--lambda1", "20", "--lambda2", "3", "--theta", "0.5",
            "--p-cluster", "2", "--points", "5", "--out", str(out),
        ]
    )
    _, rows = _read_csv(str(out))
    for row in rows:
        for cell in row:
            if not math.isnan(float(cell)):
                mantissa = cell.split("e")[0]
                assert len(mantissa.replace("-", "").replace(".", "")) >= 12


RESULTS = Path(__file__).resolve().parent.parent / "results"


@pytest.mark.parametrize(
    "name, argv",
    [
        # the commands of scripts/rate_region.py and scripts/angle_study.py
        (
            "rate_region.csv",
            ["pareto-boundary", "--lambda1", "20", "--lambda2", "3",
             "--theta", "0.5", "--p-cluster", "2", "--points", "101"],
        ),
    ]
    + [
        (
            f"angle_sweep_lam2_{lam2}.csv",
            ["angle-sweep", "--lambda1", "10", "--lambda2", lam2,
             "--gamma", "2", "--p-cluster", "10", "--points", "401"],
        )
        for lam2 in ("10", "1", "0.1")
    ],
)
def test_committed_two_user_results_reproduced(tmp_path, name, argv):
    """The committed two-user CSVs in results/ come out again, value by
    value within 1e-9 relative (values, not bytes: the last digits move
    when the numerical method does)."""
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    header, rows = _read_csv(str(out))
    ref_header, ref_rows = _read_csv(str(RESULTS / name))
    assert header == ref_header
    np.testing.assert_allclose(
        np.array(rows, dtype=float), np.array(ref_rows, dtype=float), rtol=1e-9, atol=0.0
    )
