"""Fixed reference work, timed next to every op to track the machine's speed.

Identical runs on a shared 2-core machine differed by 20-30% in op wall
time, and CPU time moved with wall time.  The ratio of an op's time to the
reference's time, taken right after the op, varied by about 3%.  The
reference mixes interpreted Python with small numpy calls, as the program
does, and shares no code with it.
"""

import math
from time import perf_counter

import numpy as np

# The reference's time on the machine the bounds were set on (2 cores,
# Python 3.11, numpy 2.4), so normalized times read as that machine's.
NOMINAL_S = 1.4e-3

_X = np.linspace(0.0, 1.0, 512)


def _work() -> float:
    s = 0.0
    for i in range(6000):
        s += math.sqrt(i + 0.5)
    for _ in range(120):
        s += float(np.sqrt(_X * 1.5 + 1.0).max())
    return s


def seconds() -> float:
    """Wall time of one pass of the reference work."""
    t0 = perf_counter()
    _work()
    return perf_counter() - t0
