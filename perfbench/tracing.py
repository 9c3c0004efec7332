"""Spans around rkstab's layer entry points, installed from outside the package.

Module-level functions are replaced in place, in every ``rkstab`` module that
bound them, and restored by ``uninstall``.  ``rhs_array``/``dt_fe_array`` are
timed through a proxy scheme that the wrapped ``preset_config`` puts into each
config it returns.  A wrap point that no longer exists is recorded in
``missing`` and the metrics that need it are left out.

Spans are kept in memory (name, start, end, parent, info) and analysed or
written out only after the timed passes.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import statistics
import sys
import time

# (module, attribute, span name) of every module-level function wrapped in place.
FUNCTIONS = (
    ("rkstab.integrator", "rk_step_instrumented", "integrator.rk_step"),
    ("rkstab.integrator", "simulate", "integrator.simulate"),
    ("rkstab.monitors", "evaluate_functional", "monitors.eval"),
    ("rkstab.monitors", "euler_state_floor", "monitors.eval"),
    ("rkstab.limits", "find_limits", "limits.find_limits"),
    ("rkstab.tableau", "ssp_coefficient", "tableau.ssp"),
    ("rkstab.fields", "field_to_csv", "fields.csv"),
    ("rkstab.cli", "main", "cli.main"),
)
# (module, class, method, span name) wrapped on the class.
METHODS = (("rkstab.integrator", "SimulationRecord", "write_csv", "fields.csv"),)

# Counts that must repeat exactly from pass to pass.
EXACT_COUNTS = (
    "spatial.rhs_calls",
    "spatial.nonphysical_raises",
    "integrator.runs",
    "integrator.steps",
    "integrator.aborted_runs",
    "monitors.evals",
    "limits.candidates",
    "limits.steps_per_candidate",
    "fields.csv_bytes",
)

# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "spatial.rhs_calls": "count",
    "spatial.rhs_us": "us",
    "spatial.rhs_share": "ratio",
    "spatial.dt_fe_us": "us",
    "spatial.nonphysical_raises": "count",
    "integrator.runs": "count",
    "integrator.steps": "count",
    "integrator.us_per_step": "us",
    "integrator.step_self_us": "us",
    "integrator.loop_self_us": "us",
    "integrator.aborted_runs": "count",
    "monitors.evals": "count",
    "monitors.eval_us": "us",
    "monitors.evals_per_step": "count/step",
    "monitors.share": "ratio",
    "limits.candidates": "count",
    "limits.steps_per_candidate": "steps",
    "limits.self_us_per_candidate": "us",
    "limits.decisive_step_share": "ratio",
    "tableau.ssp_ms": "ms",
    "presets.config_us": "us",
    "fields.csv_ms": "ms",
    "fields.csv_bytes": "bytes",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

_perf = time.perf_counter


def _simulate_info(result, args, kwargs):
    config = args[0] if args else kwargs.get("config")
    verdict = getattr(result, "verdict", None)
    return {
        "c": getattr(config, "dt_factor", None),
        "steps": getattr(result, "n_steps", 0),
        "aborted": getattr(verdict, "aborted_step", None) is not None,
    }


def _limits_info(result, args, kwargs):
    return {"decisive": {getattr(result, "c_p", None), getattr(result, "c_s", None)} - {None}}


def _csv_info(result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


_INFO = {
    "integrator.simulate": _simulate_info,
    "limits.find_limits": _limits_info,
    "fields.csv": _csv_info,
}


class SchemeProxy:
    """Stands in for a scheme descriptor and times its two kernels."""

    def __init__(self, inner, tracer: "Tracer"):
        self._inner = inner
        self.rhs_array = tracer.wrap("spatial.rhs", inner.rhs_array)
        self.dt_fe_array = tracer.wrap("spatial.dt_fe", inner.dt_fe_array)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Tracer:
    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.info: dict = {}
        self.missing: set = set()  # wrap points not found
        self.missing_layers: set = set()  # layers whose metrics are left out
        self._stack = [-1]
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack
        info_of = _INFO.get(name)
        info = self.info

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(_perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = _perf()
                stack.pop()
                info[idx] = {"raised": type(exc).__name__}
                raise
            ends[idx] = _perf()
            stack.pop()
            if info_of is not None:
                info[idx] = info_of(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        # Import every module first, so that names they bind are replaced too.
        modules = {m: _import(m) for m, *_ in FUNCTIONS + METHODS + (("rkstab.presets",),)}
        for module_name, attr, name in FUNCTIONS:
            module = modules[module_name]
            original = getattr(module, attr, None) if module else None
            if original is None:
                self._lost(f"{module_name}.{attr}", name)
                continue
            self._replace_everywhere(original, self.wrap(name, original))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[module_name], cls_name, None)
            original = cls.__dict__.get(attr) if cls is not None else None
            if original is None:
                self._lost(f"{module_name}.{cls_name}.{attr}", name)
                continue
            setattr(cls, attr, self.wrap(name, original))
            self._restore.append((cls, attr, original))
        original = getattr(modules["rkstab.presets"], "preset_config", None)
        if original is None:
            self._lost("rkstab.presets.preset_config", "presets.config", "spatial.rhs")
        else:
            self._replace_everywhere(original, self._proxying(self.wrap("presets.config", original)))

    def _lost(self, wrap_point: str, *span_names: str) -> None:
        self.missing.add(wrap_point)
        self.missing_layers.update(name.split(".")[0] for name in span_names)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "rkstab" and not module_name.startswith("rkstab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _proxying(self, config_fn):
        def traced_config(*args, **kwargs):
            config = config_fn(*args, **kwargs)
            scheme = getattr(config, "scheme", None)
            if scheme is None or not hasattr(scheme, "rhs_array") or not hasattr(scheme, "dt_fe_array"):
                self._lost("scheme.rhs_array/dt_fe_array", "spatial.rhs")
                return config
            return dataclasses.replace(config, scheme=SchemeProxy(scheme, self))

        return traced_config

    # -- analysis ----------------------------------------------------------

    def reset(self) -> None:
        """Drop recorded spans; wrap points stay as they are."""
        for spans in (self.names, self.starts, self.ends, self.parents):
            spans.clear()
        self.info.clear()

    def pass_metrics(self, wall: float) -> dict:
        """Per-layer metrics of the recorded spans, one traced pass of ``wall`` seconds."""
        names, starts, ends, parents, info = self.names, self.starts, self.ends, self.parents, self.info
        n_spans = len(names)
        dur = [ends[i] - starts[i] for i in range(n_spans)]
        child = [0.0] * n_spans
        for i in range(n_spans):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        count: dict = {}
        total: dict = {}
        self_t: dict = {}
        for i, n in enumerate(names):
            count[n] = count.get(n, 0) + 1
            total[n] = total.get(n, 0.0) + dur[i]
            self_t[n] = self_t.get(n, 0.0) + dur[i] - child[i]

        def ancestor(i: int, name: str) -> int:
            p = parents[i]
            while p >= 0 and names[p] != name:
                p = parents[p]
            return p

        steps = runs = aborted = raises = csv_bytes = 0
        cand = cand_steps = decisive_steps = 0
        for i, n in enumerate(names):
            data = info.get(i)
            if n == "spatial.rhs":
                if data is not None and data.get("raised") == "NonPhysicalStateError":
                    raises += 1
            elif n == "integrator.simulate" and data is not None and "steps" in data:
                runs += 1
                steps += data["steps"]
                aborted += bool(data["aborted"])
                parent = ancestor(i, "limits.find_limits")
                if parent >= 0:
                    cand += 1
                    cand_steps += data["steps"]
                    if data["c"] in info.get(parent, {}).get("decisive", ()):
                        decisive_steps += data["steps"]
            elif n == "fields.csv" and data is not None and "bytes" in data:
                csv_bytes += data["bytes"]

        def per(a, b):
            return a / b if b else 0.0

        c = count.get
        t = total.get
        s = self_t.get
        evals = c("monitors.eval", 0)
        m = {
            "spatial.rhs_calls": c("spatial.rhs", 0),
            "spatial.rhs_us": 1e6 * per(t("spatial.rhs", 0.0), c("spatial.rhs", 0)),
            "spatial.rhs_share": per(t("spatial.rhs", 0.0), wall),
            "spatial.dt_fe_us": 1e6 * per(t("spatial.dt_fe", 0.0), c("spatial.dt_fe", 0)),
            "spatial.nonphysical_raises": raises,
            "integrator.runs": runs,
            "integrator.steps": steps,
            "integrator.us_per_step": 1e6 * per(t("integrator.simulate", 0.0), steps),
            "integrator.step_self_us": 1e6 * per(s("integrator.rk_step", 0.0), steps),
            "integrator.loop_self_us": 1e6 * per(s("integrator.simulate", 0.0), steps),
            "integrator.aborted_runs": aborted,
            "monitors.evals": evals,
            "monitors.eval_us": 1e6 * per(t("monitors.eval", 0.0), evals),
            "monitors.evals_per_step": per(evals, steps),
            "monitors.share": per(t("monitors.eval", 0.0), wall),
            "limits.candidates": cand,
            "limits.steps_per_candidate": per(cand_steps, cand),
            "limits.self_us_per_candidate": 1e6 * per(s("limits.find_limits", 0.0), cand),
            "limits.decisive_step_share": per(decisive_steps, cand_steps),
            "tableau.ssp_ms": 1e3 * per(t("tableau.ssp", 0.0), c("tableau.ssp", 0)),
            "presets.config_us": 1e6 * per(t("presets.config", 0.0), c("presets.config", 0)),
            "fields.csv_ms": 1e3 * t("fields.csv", 0.0),
            "fields.csv_bytes": csv_bytes,
            "cli.self_ms": 1e3 * s("cli.main", 0.0),
        }
        return {k: v for k, v in m.items() if k.split(".")[0] not in self.missing_layers}

    def write_spans(self, path) -> None:
        """Write the recorded spans as CSV: name, start_us, end_us, parent (row index)."""
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{name},{1e6 * self.starts[i]:.3f},{1e6 * self.ends[i]:.3f},{self.parents[i]}\n")


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def combine(per_pass: list) -> tuple[dict, list]:
    """Median of each metric over traced passes, and any exact count that drifted."""
    names = per_pass[0].keys()
    drift = [n for n in EXACT_COUNTS if n in names and len({m[n] for m in per_pass}) > 1]
    combined = {n: per_pass[0][n] if n in EXACT_COUNTS else statistics.median(m[n] for m in per_pass) for n in names}
    return combined, drift
