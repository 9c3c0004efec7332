"""A fixed loop of numpy/Python work that does not use rkstab.

Other tenants of a shared machine slow every process on it, in phases that
last from seconds to minutes, and CPU time alone does not hide that: a
process that shares a core or a cache with a busy neighbour needs more CPU
time for the same work.  So the benchmark runs this loop next to the work it
times, in the same process, and scales that work's CPU time by
``speed(loop_us_per_step)``: the result is the CPU time the work would take on
a machine where one loop step takes ``REFERENCE_US_PER_STEP``.  A change to
rkstab moves the scaled time; a slow or fast phase of the machine moves the
loop as much as the workload, and cancels.

The loop's mix mirrors an rkstab time step on the benchmark's grids: a few
small numpy operations on 600- and 50-element arrays, and Python floats
taken from them, once per iteration.
"""

from __future__ import annotations

import math
import time

# One loop step on the 2-vCPU Intel Xeon VM the benchmark was tuned on
# (Python 3.11, numpy 2.4): scaled times read close to raw CPU times there.
REFERENCE_US_PER_STEP = 44.0
PASS_STEPS = 6000  # ~0.27 s, run after every pass
PROBE_STEPS = 2000  # ~0.09 s, run once by each set-up probe


def loop_us_per_step(steps: int) -> float:
    """CPU microseconds per step of ``steps`` steps of the loop."""
    import numpy as np

    u = np.linspace(0.0, 1.0, 600)
    v = np.linspace(0.0, 1.0, 50)
    acc = 0.0
    c0 = time.process_time()
    for _ in range(steps):
        du = np.roll(u, 1) - u
        u = u + 1e-3 * du
        dv = np.roll(v, -1) - v
        v = v + 1e-3 * dv
        acc += float(np.sum(du * du)) + float(np.max(np.abs(dv)))
    cpu = time.process_time() - c0
    if not math.isfinite(acc):
        raise ArithmeticError("calibration loop diverged")
    return cpu / steps * 1e6


def speed(us_per_step: float) -> float:
    """Factor that turns CPU time measured at this loop speed into reference CPU time."""
    return REFERENCE_US_PER_STEP / us_per_step
