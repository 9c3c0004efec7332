"""Regenerate ``reference/`` from the code in ``src/``.

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Writes ``reference/<workload>.json`` (the outcomes every pass is checked
against) and ``reference/counts.json`` (the exact per-layer counts of one
traced pass).  Only regenerate when the reference behaviour is meant to
change; the benchmark's correctness check is only as good as these files.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def main(names) -> int:
    out = HERE.parent / ".bench_out" / "reference"
    counts_path = HERE / "reference" / "counts.json"
    counts = json.loads(counts_path.read_text()) if counts_path.exists() else {}
    for name in names or sorted(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        order = workload.order(random.Random(0))
        workloads.clear_dir(out)
        ref = workload.reference(workload.outcomes(workload.run_pass(order, out), out))
        (HERE / "reference" / f"{name}.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")

        workloads.clear_dir(out)
        tracer = tracing.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        result = workload.run_pass(order, out)
        wall = time.perf_counter() - t0
        tracer.uninstall()
        metrics = tracer.pass_metrics(wall)
        tally = workloads.Tally()
        workload.check(workload.outcomes(result, out), ref, tally)
        if tally.failed:
            raise SystemExit(f"{name}: traced pass differs from the untraced one: {tally.notes}")
        counts[name] = {k: metrics[k] for k in tracing.EXACT_COUNTS if k in metrics}
        print(f"{name}: {wall:.2f} s traced, {counts[name]}")
    counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
