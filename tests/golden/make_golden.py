"""Write the golden tables and verdicts that ``tests/test_golden.py`` pins.

For every preset, the JSON (``to_json_dict``) and the CSV of a short
``limits_table`` with and without ``refine``; and the ``verdict.json`` of
three ``rkstab run`` calls, one of them a Leblanc run that aborts.  The test
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
    "leblanc_n5": 0.02,
}

#: ``rkstab run`` arguments per verdict file.
RUNS = {
    "run_upwind": ["upwind", "--scheme", "ssprk33", "--dt-factor", "1.5", "--t-final", "0.5"],
    "run_muscl2": ["muscl2", "--scheme", "rk31", "--dt-factor", "2.5", "--t-final", "20"],
    "run_leblanc_abort": ["leblanc_n2", "--scheme", "rk44", "--dt-factor", "4.5"],
}


def golden_names() -> list[str]:
    names = []
    for preset in TABLE_T_FINAL:
        for refine in (False, True):
            stem = f"table_{preset}{'_refine' if refine else ''}"
            names += [f"{stem}.json", f"{stem}.csv"]
    return names + [f"{name}_verdict.json" for name in RUNS]


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
            (out_dir / f"{name}_verdict.json").write_bytes((run_dir / "verdict.json").read_bytes())


if __name__ == "__main__":
    write_golden(Path(sys.argv[1]))
