"""Workload definitions: one pass of each workload through rkstab's public API.

Each workload makes its pass order from the seed, runs a pass, collects the
pass's outcomes, turns them into what ``reference/<workload>.json`` stores,
and checks a pass against that reference.  The seed only permutes the order
of schemes (sweeps) or runs (``run_history``); every outcome is keyed by
(preset, scheme, c), so references hold for every seed.
"""

from __future__ import annotations

import csv
import json
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

SCHEMES = ("forward_euler", "midpoint", "ssprk33", "rk31", "rk44")

# History and final-field values may differ from the reference by this much;
# verdict fields, step counts and per-candidate outcomes must match exactly.
HISTORY_RTOL = 1e-9
HISTORY_ATOL = 1e-12
# Reference history/final-field rows kept per run (evenly spaced, plus the last).
SAMPLED_ROWS = 64


@dataclass
class Tally:
    """Checked outcomes of one pass."""

    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


@dataclass(frozen=True)
class Sweep:
    """``limits_table(preset, <all schemes>)`` at a shortened final time."""

    preset: str
    t_final: float
    refine: bool

    def order(self, rng: random.Random) -> list:
        schemes = list(SCHEMES)
        rng.shuffle(schemes)
        return schemes

    def first(self, order) -> tuple:
        """(preset, scheme, overrides) of the pass's first candidate."""
        return self.preset, order[0], {"t_final": self.t_final}

    def run_pass(self, order, out_dir: Path):
        from rkstab import limits_table

        return limits_table(self.preset, order, refine=self.refine, workers=1, t_final=self.t_final)

    def outcomes(self, table, out_dir: Path) -> dict:
        return {
            r.scheme: {
                "c_s": r.c_s,
                "c_p": r.c_p,
                "per_candidate": [[o.c, bool(o.step_pass), bool(o.shifted_pass)] for o in r.per_candidate],
            }
            for r in table.rows
        }

    def reference(self, outcomes: dict) -> dict:
        return outcomes

    def check(self, outcomes: dict, ref: dict, tally: Tally) -> None:
        for scheme, expected in ref.items():
            got = outcomes.get(scheme)
            if got is None:
                for _ in range(1 + len(expected["per_candidate"])):
                    tally.count(False, f"{scheme}: missing row")
                continue
            tally.count(
                got["c_s"] == expected["c_s"] and got["c_p"] == expected["c_p"],
                f"{scheme}: c_s/c_p {got['c_s']}/{got['c_p']} != {expected['c_s']}/{expected['c_p']}",
            )
            got_c = {c: (sp, sh) for c, sp, sh in got["per_candidate"]}
            ref_c = {c: (sp, sh) for c, sp, sh in expected["per_candidate"]}
            for c, pair in ref_c.items():
                tally.count(got_c.get(c) == pair, f"{scheme}: c={c} {got_c.get(c)} != {pair}")
            for c in sorted(set(got_c) - set(ref_c)):
                tally.count(False, f"{scheme}: unexpected candidate c={c}")
        for scheme in sorted(set(outcomes) - set(ref)):
            tally.count(False, f"{scheme}: unexpected row")


@dataclass(frozen=True)
class Run:
    preset: str
    scheme: str
    dt_factor: float

    @property
    def key(self) -> str:
        return f"{self.preset}/{self.scheme}/{self.dt_factor!r}"


@dataclass(frozen=True)
class RunHistory:
    """``rkstab run`` (``cli.main``) for each run, writing history, field and verdict."""

    runs: tuple

    def order(self, rng: random.Random) -> list:
        runs = list(self.runs)
        rng.shuffle(runs)
        return runs

    def first(self, order) -> tuple:
        return order[0].preset, order[0].scheme, {}

    def run_pass(self, order, out_dir: Path):
        from rkstab import cli

        codes = {}
        for run in order:
            out = out_dir / run.key.replace("/", "_")
            argv = ["run", run.preset, "--scheme", run.scheme, "--dt-factor", repr(run.dt_factor), "--out", str(out)]
            codes[run.key] = cli.main(argv)
        return codes

    def outcomes(self, codes, out_dir: Path) -> dict:
        result = {}
        for key, code in codes.items():
            out = out_dir / key.replace("/", "_")
            try:
                result[key] = {
                    "exit_code": code,
                    "verdict": json.loads((out / "verdict.json").read_text()),
                    "history": _read_csv(out / "history.csv"),
                    "final_field": _read_csv(out / "final_field.csv"),
                }
            except (OSError, ValueError, IndexError):
                pass  # a run that wrote no readable output counts as missing
        return result

    def reference(self, outcomes: dict) -> dict:
        return {
            key: {
                "exit_code": o["exit_code"],
                "verdict": o["verdict"],
                "history": _sample_csv(o["history"]),
                "final_field": _sample_csv(o["final_field"]),
            }
            for key, o in outcomes.items()
        }

    def check(self, outcomes: dict, ref: dict, tally: Tally) -> None:
        for key, expected in ref.items():
            got = outcomes.get(key)
            if got is None:
                tally.count(False, f"{key}: no verdict")
                tally.count(False, f"{key}: no history")
                continue
            tally.count(
                got["exit_code"] == expected["exit_code"] and _verdict_matches(got["verdict"], expected["verdict"]),
                f"{key}: verdict differs",
            )
            tally.count(
                _csv_matches(got["history"], expected["history"])
                and _csv_matches(got["final_field"], expected["final_field"]),
                f"{key}: history or final field differs",
            )


WORKLOADS = {
    # n=50 periodic energy problem: tiny arrays, ~100 steps per unit c^-1, so
    # integrator and monitor call overhead dominate.  At t_final = 0.025 every
    # scheme's c_s/c_p equals its value at the preset's T = 1.
    "dissipative_energy": Sweep("dissipative", t_final=0.025, refine=False),
    # 3x600 LLF Euler kernel with the positivity monitor; 144 of 250 candidates
    # abort inside a step.  t_final = 0.0667 (a tenth of 2/3) gives the same
    # c_s/c_p as the full run.
    "leblanc_positivity": Sweep("leblanc_n2", t_final=0.0667, refine=False),
    # Dirichlet MUSCL with TV and refinement: the coarse scan stops early and
    # the bisection runs candidates near the limit.  t_final = 40 (a fifth of
    # 200) gives the same c_s/c_p as the full run.
    "muscl_tv_refine": Sweep("muscl2", t_final=40.0, refine=True),
    # Single full-length runs through the CLI: the B=1 path plus CSV/JSON output.
    "run_history": RunHistory(
        runs=(
            Run("dissipative", "rk44", 1.0),
            Run("upwind", "rk44", 1.0),
            Run("muscl2", "rk44", 1.0),
            Run("leblanc_n2", "rk44", 1.0),
            Run("leblanc_n2", "rk44", 0.7),
        )
    ),
}


def first_candidate(workload, order):
    """Set-up as a user pays it: the first candidate's config and tableau checks."""
    from rkstab import preset_config, ssp_coefficient, validate_consistency

    preset, scheme, overrides = workload.first(order)
    config = preset_config(preset, scheme, 1.0, **overrides)
    if not validate_consistency(config.tableau).ok:
        raise ValueError(f"inconsistent tableau {scheme}")
    ssp_coefficient(config.tableau)
    return config


def clear_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True, exist_ok=True)


def _read_csv(path: Path) -> dict:
    # Every row must parse, but rows are kept as text until a sampled one is
    # compared, so that checking adds little to the worker's peak RSS next to
    # the program's own.
    with open(path, newline="") as fh:
        header = next(csv.reader([fh.readline()]))
        rows = fh.read().splitlines()
    for row in csv.reader(rows):
        [float(v) for v in row]
    return {"header": header, "rows": rows}


def _row(table: dict, i: int) -> list:
    return [float(v) for v in next(csv.reader([table["rows"][i]]))]


def _sample_csv(table: dict) -> dict:
    """Reduce a full CSV table to its row count plus evenly spaced rows."""
    n = len(table["rows"])
    step = max(1, n // SAMPLED_ROWS)
    idx = sorted(set(range(0, n, step)) | ({n - 1} if n else set()))
    return {"header": table["header"], "n_rows": n, "sampled": {str(i): _row(table, i) for i in idx}}


def _close(a: float, b: float) -> bool:
    if a == b or (a != a and b != b):  # equal, or both NaN
        return True
    return abs(a - b) <= HISTORY_ATOL + HISTORY_RTOL * abs(b)


def _csv_matches(table: dict, ref: dict) -> bool:
    if len(table["rows"]) != ref["n_rows"]:
        return False
    # Columns are compared by name, so added columns do not count as a mismatch.
    try:
        cols = [table["header"].index(name) for name in ref["header"]]
    except ValueError:
        return False
    for i, expected in ref["sampled"].items():
        row = _row(table, int(i))
        if not all(_close(row[c], e) for c, e in zip(cols, expected)):
            return False
    return True


def _verdict_matches(verdict: dict, ref: dict) -> bool:
    # Keys are compared by name, so added keys do not count.  abort_reason is
    # free text: only whether the run aborted must match.
    for key, expected in ref.items():
        if key not in verdict:
            return False
        if key == "abort_reason":
            if (verdict[key] is None) != (expected is None):
                return False
        elif verdict[key] != expected:
            return False
    return True
