"""Command-line front end.

Subcommands: ``run`` (one simulation, writes history/final-field/verdict),
``limits`` (sweep the stability coefficients over RK schemes), ``coef``
(print the SSP coefficient of a built-in or file-defined tableau).

Exit codes: 0 success/pass, 1 usage or config error, 2 a stability
violation was recorded by ``run``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .fields import field_to_csv
from .integrator import check_record_every, simulate
from .limits import limits_table
from .presets import PRESET_IDS, preset_config
from .tableau import (
    BUILTIN_SCHEME_IDS,
    TableauFormatError,
    builtin_scheme,
    check_assumption1,
    ssp_coefficient,
    tableau_from_text,
)

__all__ = ["main"]

#: Keys a run config file may hold, with the JSON type each value must have.
_CONFIG_TYPES = {
    "experiment": (str, "a string"),
    "scheme": (str, "a string"),
    "dt_factor": ((int, float), "a number"),
    "t_final": ((int, float), "a number"),
    "n_cells": (int, "an integer"),
    "monitor": (str, "a string"),
    "tolerance": ((int, float), "a number"),
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must map to exit code 1, not 2
        raise _CliError(message)


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-cells", type=int, default=None, help="override grid resolution")
    p.add_argument("--t-final", type=float, default=None, help="override final time")
    p.add_argument("--tolerance", type=float, default=None, help="monitor tolerance")
    p.add_argument(
        "--tv-wrap",
        choices=("on", "off"),
        default=None,
        help="force the periodic wrap term of the total variation on or off",
    )
    p.add_argument(
        "--lf",
        choices=("local", "global"),
        default="local",
        help="Lax-Friedrichs dissipation: per-interface or global wavespeed",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="rkstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one simulation and write its history")
    run.add_argument("target", help="experiment preset id or JSON config file")
    run.add_argument("--scheme", default=None, help=f"RK scheme ({', '.join(BUILTIN_SCHEME_IDS)})")
    run.add_argument("--dt-factor", type=float, default=None, help="step multiplier c (dt = c * dt_FE)")
    run.add_argument("--out", default="rkstab_out", help="output directory")
    run.add_argument("--record-every", type=int, default=1, help="history CSV row stride")
    _add_common_run_flags(run)
    run.set_defaults(func=cmd_run)

    lim = sub.add_parser("limits", help="measure c^p and c^s over a sweep of step multipliers")
    lim.add_argument("preset", help="experiment preset id")
    lim.add_argument(
        "--schemes",
        default="all",
        help="comma-separated scheme ids, or 'all'",
    )
    lim.add_argument("--c-min", type=float, default=0.1)
    lim.add_argument("--c-max", type=float, default=5.0)
    lim.add_argument("--granularity", type=float, default=0.1)
    lim.add_argument(
        "--refine",
        action="store_true",
        help="stop the scan once both criteria fail and bisect each limit inside its coarse bracket; a refined limit "
        "is the low end of a final bracket at most 0.01 wide, a multiple of granularity / 2^k (e.g. 1.33125), and "
        "assumes that passes are monotone inside the coarse bracket; each round runs a chunk's share of ticks and "
        "midpoints per scheme ahead of need, of which at least one is used",
    )
    lim.add_argument("--workers", type=int, default=1, help="processes per round; results do not depend on it")
    lim.add_argument("--out", default=None, help="JSON output path (CSV written alongside)")
    _add_common_run_flags(lim)
    lim.set_defaults(func=cmd_limits)

    coef = sub.add_parser("coef", help="print the SSP coefficient of a tableau")
    coef.add_argument("target", help="built-in scheme id or plain-text tableau file")
    coef.set_defaults(func=cmd_coef)

    return parser


def _tv_wrap_flag(value: str | None) -> bool | None:
    if value is None:
        return None
    return value == "on"


def _load_run_settings(args) -> dict:
    """Merge preset id / config file with CLI overrides."""
    settings: dict = {}
    if args.target in PRESET_IDS:
        settings["experiment"] = args.target
    else:
        path = Path(args.target)
        if not path.is_file():
            raise _CliError(
                f"{args.target!r} is neither a preset ({', '.join(PRESET_IDS)}) "
                "nor an existing config file"
            )
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise _CliError(f"malformed JSON config {args.target}: {exc}") from None
        if not isinstance(loaded, dict):
            raise _CliError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_TYPES)
        if unknown:
            raise _CliError(f"unknown config keys: {', '.join(sorted(unknown))}")
        for key, value in loaded.items():
            types, what = _CONFIG_TYPES[key]
            if isinstance(value, bool) or not isinstance(value, types):
                raise _CliError(f"{key} must be {what}, got {value!r}")
        if "experiment" not in loaded:
            raise _CliError("config file must name an 'experiment'")
        settings.update(loaded)
    for key in ("scheme", "dt_factor", "t_final", "n_cells", "tolerance"):
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    settings.setdefault("scheme", "rk44")
    settings.setdefault("dt_factor", 1.0)
    return settings


def cmd_run(args) -> int:
    settings = _load_run_settings(args)
    scheme_id = settings["scheme"]
    config = preset_config(
        settings["experiment"],
        scheme_id=scheme_id,
        dt_factor=float(settings["dt_factor"]),
        n_cells=settings.get("n_cells"),
        t_final=settings.get("t_final"),
        tolerance=settings.get("tolerance"),
        monitor_kind=settings.get("monitor"),
        tv_wrap=_tv_wrap_flag(args.tv_wrap),
        lf=args.lf,
    )
    check_record_every(args.record_every)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)  # before the run: a bad path fails at once
    record = simulate(config)
    record.write_csv(out / "history.csv", args.record_every)
    field_to_csv(record.final_field, out / "final_field.csv")
    v = record.verdict
    verdict = {
        "experiment": settings["experiment"],
        "scheme": scheme_id,
        "dt_factor": float(settings["dt_factor"]),
        "monitor": config.monitor.kind,
        "passed": v.passed,
        # c is dt_factor; the failures come before n_steps
        **{key: x for key, x in dataclasses.asdict(v).items() if key not in ("c", "n_steps")},
        "n_steps": v.n_steps,
        "t_final": config.t_final,
    }
    (out / "verdict.json").write_text(json.dumps(verdict, indent=2) + "\n")
    print(
        f"{settings['experiment']} / {scheme_id} @ dt_factor={settings['dt_factor']}: "
        + ("pass" if v.passed else "stability violation recorded")
    )
    return 0 if v.passed else 2


def cmd_limits(args) -> int:
    out = Path(args.out) if args.out else Path(f"limits_{args.preset}.json")
    if out.suffix == ".csv":
        raise _CliError(f"--out {out} would be overwritten by the CSV table; give the JSON path")
    if not out.parent.is_dir():
        raise _CliError(f"--out {out}: {out.parent} is not a directory")
    for path in (out, out.with_suffix(".csv")):
        if path.is_dir():
            raise _CliError(f"--out {out}: {path} is a directory")
    schemes = None if args.schemes == "all" else [s.strip() for s in args.schemes.split(",") if s.strip()]
    table = limits_table(
        args.preset,
        schemes,
        c_min=args.c_min,
        c_max=args.c_max,
        granularity=args.granularity,
        refine=args.refine,
        workers=args.workers,
        n_cells=args.n_cells,
        t_final=args.t_final,
        tolerance=args.tolerance,
        tv_wrap=_tv_wrap_flag(args.tv_wrap),
        lf=args.lf,
    )
    out.write_text(json.dumps(table.to_json_dict(), indent=2) + "\n")
    table.write_csv(out.with_suffix(".csv"))
    print(table.format_summary())
    print(f"written: {out} and {out.with_suffix('.csv')}")
    return 0


def cmd_coef(args) -> int:
    if args.target in BUILTIN_SCHEME_IDS:
        t = builtin_scheme(args.target)
    else:
        path = Path(args.target)
        if not path.is_file():
            raise _CliError(
                f"{args.target!r} is neither a built-in scheme "
                f"({', '.join(BUILTIN_SCHEME_IDS)}) nor a tableau file"
            )
        try:
            t = tableau_from_text(path.read_text())
        except TableauFormatError as exc:
            raise _CliError(f"{args.target}: {exc}") from None
    c_ssp = ssp_coefficient(t)
    flag = "true" if check_assumption1(t) else "false"
    print(f"c_ssp = {c_ssp:.6f}, assumption1 = {flag}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
