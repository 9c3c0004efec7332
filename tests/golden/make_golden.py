"""Write the golden tables and verdicts that ``tests/test_golden.py`` pins.

For every preset, the JSON (``to_json_dict``) and the CSV of a short
``limits_table`` with and without ``refine``; and the ``verdict.json``,
``history.csv`` and ``final_field.csv`` of five ``rkstab run`` calls, one
on each scalar preset and two on Leblanc, of which one aborts.  The test
rewrites them into a temporary directory and compares them byte for byte.

Regenerate (only when a change of results is intended):
    PYTHONPATH=src python tests/golden/make_golden.py tests/golden
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from rkstab.cli import main
from rkstab.limits import limits_table

#: Final time per preset: short, but long enough that every table has
#: failing candidates below c_max.
TABLE_T_FINAL = {
    "dissipative": 0.05,
    "upwind": 0.1,
    "muscl2": 5.0,
    "leblanc_n2": 0.02,
}

#: ``rkstab run`` arguments per run, whose files are kept as
#: ``<run>_<file>`` (see :data:`RUN_FILES`).
RUNS = {
    "run_upwind": ["upwind", "--scheme", "ssprk33", "--dt-factor", "1.5", "--t-final", "0.5"],
    "run_muscl2": ["muscl2", "--scheme", "rk31", "--dt-factor", "2.5", "--t-final", "20"],
    "run_leblanc_abort": ["leblanc_n2", "--scheme", "rk44", "--dt-factor", "4.5"],
    "run_dissipative": ["dissipative", "--scheme", "rk44", "--dt-factor", "1.0", "--t-final", "0.05"],
    "run_leblanc": ["leblanc_n2", "--scheme", "ssprk33", "--dt-factor", "0.9", "--t-final", "0.05"],
}

#: The files every ``rkstab run`` writes.
RUN_FILES = ("verdict.json", "history.csv", "final_field.csv")


def golden_names() -> list[str]:
    names = []
    for preset in TABLE_T_FINAL:
        for refine in (False, True):
            stem = f"table_{preset}{'_refine' if refine else ''}"
            names += [f"{stem}.json", f"{stem}.csv"]
    return names + [f"{name}_{file}" for name in RUNS for file in RUN_FILES]


def write_golden(out_dir: Path) -> None:
    out_dir = Path(out_dir)
    for preset, t_final in TABLE_T_FINAL.items():
        for refine in (False, True):
            table = limits_table(preset, c_max=3.0, refine=refine, t_final=t_final)
            stem = out_dir / f"table_{preset}{'_refine' if refine else ''}"
            stem.with_suffix(".json").write_text(json.dumps(table.to_json_dict(), indent=2) + "\n")
            table.write_csv(stem.with_suffix(".csv"))
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS.items():
            run_dir = Path(tmp) / name
            if main(["run", *argv, "--out", str(run_dir)]) not in (0, 2):
                raise RuntimeError(f"rkstab run {' '.join(argv)} failed")
            for file in RUN_FILES:
                (out_dir / f"{name}_{file}").write_bytes((run_dir / file).read_bytes())


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]))
