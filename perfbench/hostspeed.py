"""Host-speed probes: end-to-end timings scaled to a reference host speed.

On a guest that shares a host's cores with other jobs, their load moves
the speed of this process by a third or more from one minute to the next
(on a 2-core Intel Xeon guest one pure-Python loop read 18 to 26 ms within
a minute and 25 to 40 ms across minutes).  No statistic over one run
removes a shift that lasts longer than the run, so every pass times a
fixed pure-Python kernel between ops, and each op's wall time is scaled by
REFERENCE_S over the kernel's time around the op.  A scaled latency reads
as the op's wall time on a host where the kernel takes REFERENCE_S.

The kernel is the benchmark's own code (integer matrix powers and a
Fraction determinant from ref.py): it calls nothing in periodforms, so a
change to the library moves the scaled figures exactly as it moves the
wall times.  Garbage collection is off while it runs, so the library's
heap does not leak into the probe.
"""

import bisect
import gc
import random
from time import perf_counter

import ref

# About the kernel's median time on a 2-core Intel Xeon guest (Python
# 3.11.7); a fixed constant, so scaled figures compare across runs.
REFERENCE_S = 0.0045
# A probe is one kernel pass, taken between ops once PROBE_EVERY_S has
# passed since the last; an op is scaled by the median of the probes
# taken from WINDOW_S before it starts to WINDOW_S after it ends.
PROBE_EVERY_S = 0.1
WINDOW_S = 1.0

_rng = random.Random(0)
_POWER = [[_rng.randint(-3, 3) for _ in range(12)] for _ in range(12)]
_DET = [[_rng.randint(-9, 9) for _ in range(9)] for _ in range(9)]


def kernel():
    """Seconds one pass of the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        p = _POWER
        for _ in range(6):
            p = ref.mat_mul(p, _POWER)
        ref.det(_DET)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Probes:
    """(time, kernel seconds) pairs taken during one pass."""

    def __init__(self):
        self.samples = []

    def take(self, force=False):
        now = perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= PROBE_EVERY_S:
            self.samples.append((now, kernel()))


def _median(values):
    ordered = sorted(values)
    n = len(ordered)
    return (ordered[(n - 1) // 2] + ordered[n // 2]) / 2


def scale(records, probes):
    """Records with each latency scaled to the reference host speed.

    A record is (kind, latency, round, ok, start).  Its factor is
    REFERENCE_S over the median probe in the window around the op, or over
    the nearest probes when the window holds none.
    """
    times = [t for t, _ in probes]
    out = []
    for kind, latency, index, ok, start in records:
        lo = bisect.bisect_left(times, start - WINDOW_S)
        hi = bisect.bisect_right(times, start + latency + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(probes), hi + 1)
        k = _median(probes[j][1] for j in range(lo, hi))
        out.append((kind, latency * REFERENCE_S / k, index, ok, start))
    return out


def factor(probes):
    """Median reference-over-probe factor of a pass, for the report."""
    return REFERENCE_S / _median(k for _, k in probes)


def settle(setup_s, samples=9):
    """Scales a set-up time taken in this process by kernels run after it."""
    return setup_s * REFERENCE_S / _median(kernel() for _ in range(samples))
