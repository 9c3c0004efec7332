"""Measurement of practical stability step-size coefficients c^p and c^s.

For one (problem, RK scheme, monitor) triple, the sweep runs a full
simulation at each candidate multiplier c of the forward-Euler step bound
and reports the largest c for which every step passed the step criterion
(c^p) and the shifted criterion (c^s).  Candidates are independent runs:
contiguous chunks of them advance together through ``integrator.run_batch``,
and chunks may execute in parallel; results are keyed by c and do not
depend on the chunking or the worker count.
"""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import itertools
import math
import os
from dataclasses import dataclass

from .integrator import SimulationConfig, run_batch
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

#: Bytes of candidate states one chunk may stack; a chunk holds
#: max(1, CHUNK_BYTES // bytes of one state) candidates.  A step keeps about
#: 35 states' worth of stages, shifted states, monitor stacks and kernel
#: temporaries per row alive, so this bounds a sweep's extra memory to about
#: 1 MB: 81 rows of the 50-cell dissipative problem, 51 of the 80-cell MUSCL
#: one, 2 of the 3x600 Euler shock tube.
CHUNK_BYTES = 32 * 1024


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
    """The verdict of one candidate run, with the steps that explain it.

    The first-failure steps are 0-based; ``aborted_step`` is the step at
    which the run aborted (None when it did not).  The run stops early once
    both criteria have failed, so ``n_steps`` counts the steps it took.
    """

    c: float
    step_pass: bool
    shifted_pass: bool
    n_steps: int
    first_step_failure: int | None
    first_shifted_failure: int | None
    aborted_step: int | None


@dataclass(frozen=True)
class LimitResult:
    """Measured limits for one scheme; None means every candidate failed (< c_min)."""

    scheme: str
    monitor: str
    c_p: float | None
    c_s: float | None
    per_candidate: tuple[CandidateOutcome, ...]


def _run_chunk(args) -> list[CandidateOutcome]:
    base, cs = args
    return [
        CandidateOutcome(
            c,
            row.verdict.step_pass,
            row.verdict.shifted_pass,
            row.n_steps,
            row.first_step_failure,
            row.first_shifted_failure,
            row.aborted_step,
        )
        for c, row in zip(cs, run_batch(base, cs, early_stop=True))
    ]


def _chunk_rows(base: SimulationConfig) -> int:
    """Candidates per chunk: as many states as fit in :data:`CHUNK_BYTES`."""
    components = 3 if getattr(base.scheme, "is_euler", False) else 1
    return max(1, CHUNK_BYTES // (8 * components * base.grid.n_cells))


def _in_order(pool, fn, jobs, depth: int):
    """``fn`` over ``jobs`` in order on ``pool``, with at most ``depth`` jobs
    submitted and not yet consumed, so that a consumer that stops early
    leaves little work behind."""
    jobs = iter(jobs)
    pending = collections.deque(pool.submit(fn, job) for job in itertools.islice(jobs, depth))
    while pending:
        result = pending.popleft().result()
        pending.extend(pool.submit(fn, job) for job in itertools.islice(jobs, 1))
        yield result


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

    Candidates run in contiguous chunks in ascending c (see
    :data:`CHUNK_BYTES`; one candidate per chunk under ``refine``, so that
    nothing past the stop is started), and with ``workers > 1`` at most that
    many chunks are in flight at once.
    """
    base = cfg.base
    candidates = _candidate_values(cfg.c_min, cfg.c_max, cfg.granularity)
    outcomes: dict[float, CandidateOutcome] = {}

    rows = 1 if cfg.refine else min(_chunk_rows(base), math.ceil(len(candidates) / cfg.workers))
    jobs = [(base, candidates[i : i + rows]) for i in range(0, len(candidates), rows)]
    workers = min(cfg.workers, len(jobs), os.cpu_count() or 1)
    pool = concurrent.futures.ProcessPoolExecutor(workers) if workers > 1 else None
    step_failed = shifted_failed = False
    try:
        # Outcomes arrive in candidate order, serial or pooled.
        chunks = _in_order(pool, _run_chunk, jobs, workers) if pool else map(_run_chunk, jobs)
        for out in itertools.chain.from_iterable(chunks):
            outcomes[out.c] = out
            step_failed = step_failed or not out.step_pass
            shifted_failed = shifted_failed or not out.shifted_pass
            if cfg.refine and step_failed and shifted_failed:
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)  # drop chunks not yet started

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
            (outcomes[mid],) = _run_chunk((base, [mid]))
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
                    "per_candidate": [dataclasses.asdict(o) for o in r.per_candidate],
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
