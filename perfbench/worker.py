"""The workload process: repeats passes of one workload and checks every outcome.

Started by ``run.py``; not meant to be run by hand.  Two modes:

* ``--probe``: import rkstab, make the first candidate ready, then print
  the process's CPU seconds at that moment and the calibration loop's speed
  (one set-up sample), and exit;
* otherwise: run passes until ``--seconds`` would be exceeded, check each
  pass against ``reference/<workload>.json`` and write a JSON summary to
  ``--result``.  With ``--trace 1`` untraced and traced passes alternate.
  The calibration loop runs before the first pass and after each one; a
  pass's CPU time is scaled by the mean speed of the loop runs around it.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # untraced passes per run; a traced run needs 2 of each kind
MAX_NOTES = 20


def _probe(workload, seed: int) -> int:
    order = workload.order(random.Random(seed))
    workloads.first_candidate(workload, order)
    # CPU time since the interpreter started: start-up, imports and set-up.
    ready = time.process_time()
    print(json.dumps([ready, calibrate.loop_us_per_step(calibrate.PROBE_STEPS)]))
    return 0


def _enough(walls: dict, trace: bool, deadline: float) -> bool:
    untraced, traced = walls[False], walls[True]
    if trace:
        if len(untraced) < 2 or len(traced) < 2:
            return False
        nxt = traced if len(traced) < len(untraced) else untraced
    else:
        if len(untraced) < MIN_PASSES:
            return False
        nxt = untraced
    return time.monotonic() + statistics.median(nxt) > deadline


def _run_pass(workload, order, out_dir):
    """One pass; a pass that raises is reported and all its outcomes count as failed."""
    try:
        return workload.run_pass(order, out_dir)
    except Exception:
        traceback.print_exc()
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.probe:
        return _probe(workload, args.seed)

    start = time.monotonic()
    deadline = start + args.seconds
    reference = json.loads((HERE / "reference" / f"{args.workload}.json").read_text())
    rng = random.Random(args.seed)
    trace = bool(args.trace)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()

    walls = {False: [], True: []}
    cpus = {False: [], True: []}
    scaled = {False: [], True: []}
    loop_us = [calibrate.loop_us_per_step(calibrate.PASS_STEPS)]
    per_pass = []
    tally = workloads.Tally()
    k = 0
    while not _enough(walls, trace, deadline):
        order = workload.order(rng)
        traced = trace and k % 2 == 1
        workloads.clear_dir(args.out)
        if traced:
            # Spans of earlier passes are dropped; the last traced pass is written out.
            tracer.reset()
            tracer.install()
        try:
            if traced:
                workloads.first_candidate(workload, order)
            t0, c0 = time.perf_counter(), time.process_time()
            result = _run_pass(workload, order, args.out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            per_pass.append(tracer.pass_metrics(wall))
        walls[traced].append(wall)
        cpus[traced].append(cpu)
        # Parsed outputs are not kept across passes, so they stay out of the next pass's peak RSS.
        workload.check({} if result is None else workload.outcomes(result, args.out), reference, tally)
        del result
        loop_us.append(calibrate.loop_us_per_step(calibrate.PASS_STEPS))
        scaled[traced].append(cpu * calibrate.speed((loop_us[-2] + loop_us[-1]) / 2))
        k += 1

    import numpy

    summary = {
        "passes": len(walls[False]),
        "norm_cpu_s": statistics.median(scaled[False]),
        "pass_norm_cpus_s": scaled[False],
        "pass_cpus_s": cpus[False],
        "loop_us_per_step": loop_us,
        "pass_walls_s": walls[False],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes[:MAX_NOTES],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if trace:
        metrics, drift = tracing.combine(per_pass)
        metrics["trace.overhead_ratio"] = statistics.median(scaled[True]) / statistics.median(scaled[False])
        summary.update(
            traced_passes=len(walls[True]),
            per_layer=metrics,
            drift=drift,
            missing=sorted(tracer.missing),
        )
        tracer.write_spans(args.out.parent / "spans.csv")
    args.result.write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
