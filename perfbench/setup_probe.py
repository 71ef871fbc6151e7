"""Set-up time of one workload in a fresh interpreter: importing misonoma
plus one untimed warm-up op.  Prints the seconds taken, then the median
time of the reference work in this interpreter.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this several times per run and reports the median.
"""

import time

_T0 = time.perf_counter()

import statistics
import sys
from pathlib import Path

import reference
import workloads  # imports numpy and misonoma

REF_REPS = 15


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.WORKLOADS[name](seed, Path(__file__).resolve().parent / "out").warm_up()
    elapsed = time.perf_counter() - _T0
    ref = statistics.median(reference.seconds() for _ in range(REF_REPS))
    print(repr(elapsed), repr(ref))


if __name__ == "__main__":
    main()
