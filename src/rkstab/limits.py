"""Measurement of practical stability step-size coefficients c^p and c^s.

For one (problem, RK scheme, monitor) triple, the sweep runs a full
simulation at each candidate multiplier c of the forward-Euler step bound
and reports the largest c for which every step passed the step criterion
(c^p) and the shifted criterion (c^s).  Candidates are independent runs, so
they may execute in parallel; results are keyed by c and deterministic.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, replace

from .integrator import SimulationConfig, simulate
from .tableau import ssp_coefficient

__all__ = [
    "LimitSearchConfig",
    "CandidateOutcome",
    "LimitResult",
    "TableRow",
    "ExperimentTable",
    "find_limits",
    "limits_table",
]

#: Gap below which the optional refinement bisection stops.
REFINE_RESOLUTION = 0.01


@dataclass(frozen=True)
class LimitSearchConfig:
    """Sweep parameters; ``base.dt_factor`` is ignored and replaced per candidate."""

    base: SimulationConfig
    c_min: float = 0.1
    c_max: float = 5.0
    granularity: float = 0.1
    refine: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.c_min > 0:
            raise ValueError("c_min must be positive")
        if not self.granularity > 0:
            raise ValueError("granularity must be positive")
        if not self.c_max > self.c_min:
            raise ValueError("c_max must exceed c_min")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class CandidateOutcome:
    c: float
    step_pass: bool
    shifted_pass: bool


@dataclass(frozen=True)
class LimitResult:
    """Measured limits for one scheme; None means every candidate failed (< c_min)."""

    scheme: str
    monitor: str
    c_p: float | None
    c_s: float | None
    per_candidate: tuple[CandidateOutcome, ...]


def _run_candidate(args) -> CandidateOutcome:
    base, c = args
    record = simulate(replace(base, dt_factor=c), early_stop=True)
    v = record.verdict
    return CandidateOutcome(c=c, step_pass=v.step_pass, shifted_pass=v.shifted_pass)


def _candidate_values(c_min: float, c_max: float, granularity: float) -> list[float]:
    values = []
    k = 0
    while True:
        c = round(c_min + k * granularity, 12)
        if c > c_max + 1e-9 * granularity:
            break
        values.append(c)
        k += 1
    return values


def find_limits(cfg: LimitSearchConfig) -> LimitResult:
    """Sweep c and report, per criterion, the top of the contiguous pass run.

    The reported limit is the largest c such that every candidate from
    c_min up to c passed; that is the step-size region the scheme can
    actually be trusted in.  Isolated passes beyond the first failure do
    occur (degenerate data can hit exact-arithmetic resonances at special
    multipliers) and remain visible in ``per_candidate``, which records the
    full scan.  With ``refine`` the coarse scan stops once both criteria
    have failed and a bisection sharpens each limit to 0.01 inside its
    bracketing granularity tick.
    """
    base = cfg.base
    candidates = _candidate_values(cfg.c_min, cfg.c_max, cfg.granularity)
    outcomes: dict[float, CandidateOutcome] = {}

    # Outcomes arrive in candidate order, serial or pooled.
    jobs = [(base, c) for c in candidates]
    pool = concurrent.futures.ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else None
    step_failed = shifted_failed = False
    try:
        for out in (pool.map if pool else map)(_run_candidate, jobs):
            outcomes[out.c] = out
            step_failed = step_failed or not out.step_pass
            shifted_failed = shifted_failed or not out.shifted_pass
            if cfg.refine and step_failed and shifted_failed:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # drop candidates not yet started

    def prefix_largest(flag) -> float | None:
        best = None
        for c in candidates:
            if c not in outcomes or not flag(outcomes[c]):
                break
            best = c
        return best

    c_p = prefix_largest(lambda o: o.step_pass)
    c_s = prefix_largest(lambda o: o.shifted_pass)

    if cfg.refine:
        c_p = _refine(base, c_p, cfg, outcomes, lambda o: o.step_pass)
        c_s = _refine(base, c_s, cfg, outcomes, lambda o: o.shifted_pass)

    ordered = tuple(outcomes[c] for c in sorted(outcomes))
    return LimitResult(
        scheme=base.tableau.name,
        monitor=base.monitor.kind,
        c_p=c_p,
        c_s=c_s,
        per_candidate=ordered,
    )


def _refine(base, coarse, cfg, outcomes, flag):
    """Bisect between the coarse limit and the next (failing) tick."""
    if coarse is None:
        return None
    hi = round(coarse + cfg.granularity, 12)
    if hi > cfg.c_max + 1e-9 * cfg.granularity:
        return coarse  # passed through the top of the scan; nothing bracketed
    lo = coarse
    while hi - lo > REFINE_RESOLUTION + 1e-12:
        mid = round(0.5 * (lo + hi), 12)
        if mid not in outcomes:
            outcomes[mid] = _run_candidate((base, mid))
        if flag(outcomes[mid]):
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class TableRow:
    scheme: str
    c_ssp: float
    c_s: float | None
    c_p: float | None
    per_candidate: tuple[CandidateOutcome, ...]


@dataclass(frozen=True)
class ExperimentTable:
    """One measured table: a row per RK scheme for a single experiment."""

    experiment: str
    monitor: str
    c_min: float
    c_max: float
    granularity: float
    rows: tuple[TableRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "monitor": self.monitor,
            "c_min": self.c_min,
            "c_max": self.c_max,
            "granularity": self.granularity,
            "rows": [
                {
                    "scheme": r.scheme,
                    "c_ssp": r.c_ssp,
                    "c_s": r.c_s,
                    "c_p": r.c_p,
                    "per_candidate": [
                        {"c": o.c, "step_pass": o.step_pass, "shifted_pass": o.shifted_pass}
                        for o in r.per_candidate
                    ],
                }
                for r in self.rows
            ],
        }

    def _cell(self, value: float | None) -> str:
        return f"<{self.c_min:g}" if value is None else repr(float(value))

    def write_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scheme", "c_ssp", "c_s", "c_p"])
            for r in self.rows:
                writer.writerow(
                    [r.scheme, repr(float(r.c_ssp)), self._cell(r.c_s), self._cell(r.c_p)]
                )

    def format_summary(self) -> str:
        """Human-readable table rounded to one decimal."""

        def short(value):
            return f"<{self.c_min:g}" if value is None else f"{value:.1f}"

        lines = [f"experiment: {self.experiment} (monitor: {self.monitor})"]
        lines.append(f"{'scheme':<15}{'c_ssp':>8}{'c_s':>8}{'c_p':>8}")
        for r in self.rows:
            lines.append(
                f"{r.scheme:<15}{r.c_ssp:>8.1f}{short(r.c_s):>8}{short(r.c_p):>8}"
            )
        return "\n".join(lines)


def limits_table(
    experiment: str,
    schemes=None,
    *,
    c_min: float = 0.1,
    c_max: float = 5.0,
    granularity: float = 0.1,
    refine: bool = False,
    workers: int = 1,
    ssp_tol: float = 1e-9,
    **preset_overrides,
) -> ExperimentTable:
    """Sweep every scheme on one experiment and join the formal SSP coefficients.

    ``schemes`` is a list of built-in scheme ids (default: all five);
    ``preset_overrides`` (n_cells, t_final, tolerance, tv_wrap, lf, ...) are
    forwarded to the experiment preset.
    """
    from .presets import preset_config
    from .tableau import BUILTIN_SCHEME_IDS

    if schemes is None:
        schemes = BUILTIN_SCHEME_IDS
    rows = []
    monitor = ""
    for name in schemes:
        base = preset_config(experiment, scheme_id=name, dt_factor=1.0, **preset_overrides)
        cfg = LimitSearchConfig(
            base=base,
            c_min=c_min,
            c_max=c_max,
            granularity=granularity,
            refine=refine,
            workers=workers,
        )
        result = find_limits(cfg)
        analysis = ssp_coefficient(base.tableau, tol=ssp_tol)
        monitor = result.monitor
        rows.append(
            TableRow(
                scheme=name,
                c_ssp=analysis.ssp_coefficient,
                c_s=result.c_s,
                c_p=result.c_p,
                per_candidate=result.per_candidate,
            )
        )
    return ExperimentTable(
        experiment=experiment,
        monitor=monitor,
        c_min=c_min,
        c_max=c_max,
        granularity=granularity,
        rows=tuple(rows),
    )
