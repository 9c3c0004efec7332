"""rkstab benchmark: entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (``src/rkstab`` must exist).  Prints
an environment line, then as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(env, *args: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    return subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, check=True, text=True)


def _setup_seconds(env, workload: str, seed: int) -> tuple[float, list]:
    """Median scaled CPU time of a fresh interpreter up to the first ready candidate."""
    args = ("--probe", "--workload", workload, "--seed", str(seed))
    _worker(env, *args, timeout=60)  # fills bytecode caches; not counted
    samples = []
    for _ in range(SETUP_SAMPLES):
        cpu, us_per_step = json.loads(_worker(env, *args, timeout=60).stdout.strip().splitlines()[-1])
        samples.append([cpu, us_per_step])
    return statistics.median(cpu * calibrate.speed(us) for cpu, us in samples), samples


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _environment(env) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "rkstab" / "__init__.py").is_file():
        return _fail(f"no rkstab sources under {SRC}; run from a source checkout")
    if not (HERE / "reference" / f"{args.workload}.json").is_file():
        return _fail(f"missing reference/{args.workload}.json")

    env = _env()
    out = OUT / args.workload
    workloads.clear_dir(out)
    result_path = out / "result.json"
    try:
        environment = _environment(env)
        if not args.trace:
            setup_s, setup_samples = _setup_seconds(env, args.workload, args.seed)
        _worker(
            env,
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace), "--out", str(out / "runs"), "--result", str(result_path),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.CalledProcessError as exc:
        return _fail(f"worker exited with {exc.returncode}")
    except subprocess.TimeoutExpired:
        return _fail("worker timed out")
    summary = json.loads(result_path.read_text())

    for note in summary["notes"]:
        print(f"perfbench: mismatch: {note}", file=sys.stderr)
    if summary.get("drift"):
        return _fail(f"exact counts drifted between traced passes: {', '.join(summary['drift'])}")

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.UNITS[name]} for name, value in summary["per_layer"].items()}
        counts_path = HERE / "reference" / "counts.json"
        seed_counts = json.loads(counts_path.read_text()).get(args.workload, {})
        environment["counts_match_reference"] = all(
            summary["per_layer"].get(k) == v for k, v in seed_counts.items()
        )
        environment["missing_wrap_points"] = summary["missing"]
        environment["traced_passes"] = summary["traced_passes"]
    else:
        metrics = {
            "norm_cpu_s": {"value": summary["norm_cpu_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
        environment["setup_samples_cpu_s_loop_us"] = setup_samples
    environment["python"] = summary["python"]
    environment["numpy"] = summary["numpy"]
    environment["passes"] = summary["passes"]
    environment["pass_norm_cpus_s"] = summary["pass_norm_cpus_s"]
    environment["pass_cpus_s"] = summary["pass_cpus_s"]
    environment["loop_us_per_step"] = summary["loop_us_per_step"]
    environment["pass_walls_s"] = summary["pass_walls_s"]
    environment["failed_frac"] = summary["failed"] / summary["attempted"]
    print(json.dumps({"environment": environment}))
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
