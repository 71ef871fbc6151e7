#!/usr/bin/env python3
"""sha256 of the standard output set, for byte-identity checks between two
checkouts.

Runs every case of tests/test_reference_outputs.py (CASES) plus a fixed
pareto-boundary, angle-sweep and oracle-check, and two longer runs on the
fallback configuration, through cli.main into a temporary directory, then
prints one line per file written: its sha256 and its name.  Run it on both
checkouts and compare the listings; the package imported is the one on
PYTHONPATH, the cases are this checkout's:

    PYTHONPATH=src python3 scripts/digest_outputs.py
    PYTHONPATH=../other/src python3 scripts/digest_outputs.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for tests/

from misonoma import cli  # noqa: E402
from tests.test_reference_outputs import CASES, REF_DIR  # noqa: E402

# name -> CLI arguments (without --out), beside the reference cases
EXTRA = {
    "pareto_boundary": [
        "pareto-boundary", "--lambda1", "20", "--lambda2", "3", "--theta", "0.5",
        "--p-cluster", "2", "--points", "101",
    ],
    "angle_sweep": [
        "angle-sweep", "--lambda1", "10", "--lambda2", "0.1", "--gamma", "2",
        "--p-cluster", "10", "--points", "401",
    ],
    "oracle_check_50": ["oracle-check", "--instances", "50", "--seed", "2024"],
    # weak users as strong as the strong ones: these two runs reach the
    # scoring's case-2 p1 search about 750 times, the cases above only 9
    "schedule_fallback_200": [
        "schedule-sim", "--config", "{ref}/fallback_config.json", "--trials", "200",
        "--seed", "20", "--dump-beams",
    ],
    "gamma_sweep_fallback_100": [
        "gamma-sweep", "--config", "{ref}/fallback_config.json", "--trials", "100",
        "--seed", "20", "--gamma-min", "0", "--gamma-max", "5", "--gamma-points", "8",
    ],
}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        for name, argv in {**CASES, **EXTRA}.items():
            argv = [a.format(ref=REF_DIR) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):  # oracle-check's summary
                rc = cli.main(argv + ["--out", str(out_dir / f"{name}.csv")])
            if rc != 0:
                print(f"{name}: exit {rc}", file=sys.stderr)
                return rc
        for path in sorted(out_dir.iterdir()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
