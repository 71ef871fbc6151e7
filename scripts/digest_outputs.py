#!/usr/bin/env python3
"""sha256 of the standard output set, for byte-identity checks between two
checkouts.

Writes every entry of the registry in tests/test_reference_outputs.py
(CASES: the files of tests/reference/ and results/) plus a larger
oracle-check and two longer runs on the fallback configuration into a
temporary directory, then prints one line per file written: its sha256
and its name.  Run it on both checkouts and compare the listings; the
package imported is the one on PYTHONPATH, the entries are this
checkout's:

    PYTHONPATH=src python3 scripts/digest_outputs.py
    PYTHONPATH=../other/src python3 scripts/digest_outputs.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))  # for tests/

from tests.test_reference_outputs import CASES, write_output  # noqa: E402

# name -> CLI arguments (without --out), beside the registry's entries
EXTRA = {
    "oracle_check_50": ["oracle-check", "--instances", "50", "--seed", "2024"],
    # weak users as strong as the strong ones: these two runs reach the
    # scoring's case-2 p1 search about 750 times, the tests/reference/ runs 9
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
        writers = {name: writer for name, (_, writer) in CASES.items()}
        for name, writer in {**writers, **EXTRA}.items():
            write_output(writer, out_dir / f"{name}.csv")
        for path in sorted(out_dir.iterdir()):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
