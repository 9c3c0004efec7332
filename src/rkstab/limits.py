"""Measurement of practical stability step-size coefficients c^p and c^s.

For one (problem, RK scheme, monitor) triple, the sweep runs a full
simulation at each candidate multiplier c of the forward-Euler step bound
and reports the largest c for which every step passed the step criterion
(c^p) and the shifted criterion (c^s), next to its formal SSP coefficient:
one :class:`LimitResult`, the scheme's row of a table.  Candidates are
independent runs: chunks of them advance together through
``integrator.run_batch``, one tableau per row, and chunks may execute in
parallel.  A table's scans, one per scheme, advance in lockstep through
shared chunks; results do not depend on the chunking, the scheme order or
the worker count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import numbers
import os
from dataclasses import dataclass

from .fields import require_number, write_csv_columns
from .integrator import RunVerdict, SimulationConfig, run_batch
from .tableau import BUILTIN_SCHEME_IDS, builtin_scheme, ssp_coefficient

__all__ = [
    "LimitSearchConfig",
    "LimitResult",
    "ExperimentTable",
    "find_limits",
    "limits_table",
]

#: Gap below which the optional refinement bisection stops.
REFINE_RESOLUTION = 0.01

#: Decimals a candidate c is rounded to, so that c_min + k * granularity
#: lands on the decimal tick it stands for.
TICK_DECIMALS = 12

#: Most coarse ticks one scan may have; each is a full simulation.
MAX_TICKS = 10**6

#: Bytes of candidate states one chunk may stack; a chunk holds
#: max(2 * scans, CHUNK_BYTES // bytes of one state) candidates: at least two
#: per scan of the table, so that every scheme's long low-c rows share a chunk
#: and a step's fixed cost (its kernel calls, step plan and monitor) is shared
#: by two ticks of each scan where few states fit.  A chunk's step then peaks at
#: about 0.3-0.5 MB on the 50-cell dissipative problem (81 rows), 0.5-0.8 MB on
#: the 80-cell MUSCL one (51 rows) and 1.6 MB on the 3x600 Euler shock tube (two
#: ticks of the five schemes, 10.9 states a row; four ticks took 2 MB more of a
#: process's peak RSS for no less CPU, and the LLF kernel's per-row cost rises
#: past 10 rows).
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
        # A non-finite bound or step would make the candidate list endless.
        for name in ("c_min", "c_max", "granularity"):
            require_number(name, getattr(self, name), finite=True)
        # The first tick is c_min rounded as every tick is.
        if not round(self.c_min, TICK_DECIMALS) > 0:
            raise ValueError(f"c_min must be positive when rounded to {TICK_DECIMALS} decimals, got {self.c_min!r}")
        if not self.granularity > 0:
            raise ValueError("granularity must be positive")
        if not self.c_max > self.c_min:
            raise ValueError("c_max must exceed c_min")
        # Rounding moves a tick by up to half a decimal unit, so ticks two
        # units apart (and many float spacings of c_max) stay in order.
        finest = 2.0 * 10.0**-TICK_DECIMALS * max(1.0, self.c_max)
        if not self.granularity >= finest:
            raise ValueError(
                f"granularity must be at least {finest!r} (ticks are rounded to "
                f"{TICK_DECIMALS} decimals), got {self.granularity!r}"
            )
        if (self.c_max - self.c_min) / self.granularity >= MAX_TICKS:
            raise ValueError(f"granularity {self.granularity!r} makes {MAX_TICKS} or more ticks")
        require_number("workers", self.workers, numbers.Integral)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class LimitResult:
    """One scheme's row of a table, in its JSON key order; a limit of None
    means every candidate failed (< c_min)."""

    scheme: str
    c_ssp: float
    c_s: float | None
    c_p: float | None
    per_candidate: tuple[RunVerdict, ...]


def _run_chunk(args) -> list[RunVerdict]:
    base, tableaux, cs = args
    return [row.verdict for row in run_batch(base, cs, tableaux=tableaux, early_stop=True)]


def _chunk_rows(base: SimulationConfig, scans: int = 1) -> int:
    """Candidates per chunk: as many states as fit in :data:`CHUNK_BYTES`,
    and at least two per scan (two consecutive ticks of every scheme)."""
    components = 3 if getattr(base.scheme, "is_euler", False) else 1
    return max(2 * scans, CHUNK_BYTES // (8 * components * base.grid.n_cells))


def _candidate_values(c_min: float, c_max: float, granularity: float) -> list[float]:
    values = []
    k = 0
    while True:
        c = round(c_min + k * granularity, TICK_DECIMALS)
        if c > c_max + 1e-9 * granularity:
            break
        values.append(c)
        k += 1
    return values


def _scan(cfg: LimitSearchConfig, band: int):
    """One scheme's search, as a generator: it yields the candidates it wants
    run next, in ascending c, is sent their outcomes in that order, and
    returns its :class:`LimitResult`; ``c_ssp`` is taken before the first
    offer, so no candidate of an inconsistent tableau runs.  Without
    ``refine`` it offers the whole scan at once.  With ``refine`` it offers
    ``band`` coarse ticks at a time and stops once both criteria have
    failed, dropping the outcomes past that tick; then it bisects ``c_p``
    and ``c_s`` together (see :func:`_bisect`).
    A coarse offer holds at most ``band`` ticks and a bisection offer at most
    ``max(band, open brackets)`` midpoints, and the result is the one of the
    serial search (a tick, then a midpoint, at a time) for any band.
    """
    c_ssp = ssp_coefficient(cfg.base.tableau)
    candidates = _candidate_values(cfg.c_min, cfg.c_max, cfg.granularity)
    outcomes: dict[float, RunVerdict] = {}
    ticks = band if cfg.refine else len(candidates)
    step_failed = shifted_failed = stopped = False
    for i in range(0, len(candidates), ticks):
        for out in (yield candidates[i : i + ticks]):
            outcomes[out.c] = out
            step_failed = step_failed or not out.step_pass
            shifted_failed = shifted_failed or not out.shifted_pass
            stopped = cfg.refine and step_failed and shifted_failed
            if stopped:
                break
        if stopped:
            break

    def prefix_largest(flag: str) -> float | None:
        passed = list(itertools.takewhile(lambda c: c in outcomes and getattr(outcomes[c], flag), candidates))
        return passed[-1] if passed else None

    limits = {"step_pass": prefix_largest("step_pass"), "shifted_pass": prefix_largest("shifted_pass")}
    if cfg.refine:
        limits = yield from _bisect(cfg, outcomes, band, limits)
    return LimitResult(
        scheme=cfg.base.tableau.name,
        c_ssp=c_ssp,
        c_s=limits["shifted_pass"],
        c_p=limits["step_pass"],
        per_candidate=tuple(outcomes[c] for c in sorted(outcomes)),
    )


def _bisect(cfg, outcomes, band, limits):
    """Bisect each criterion between its coarse limit and the next (failing)
    tick, both brackets together.  A round offers the untried midpoints of
    the open brackets' next levels, as many whole levels as fit in ``band``
    and at least one: the next midpoint of every open bracket, each on its
    bracket's path.  Then each bracket walks its path through the known
    outcomes.  Only midpoints on a path enter ``outcomes`` (the others wait
    in ``side``), so a round wastes at most ``band - 1`` rows and the result
    is the serial bisection's."""
    side: dict[float, RunVerdict] = {}
    top = cfg.c_max + 1e-9 * cfg.granularity  # a limit whose next tick is past it brackets nothing
    ends = {flag: (c, round(c + cfg.granularity, TICK_DECIMALS)) for flag, c in limits.items() if c is not None}
    brackets = {flag: (lo, hi) for flag, (lo, hi) in ends.items() if hi <= top}

    def mid(lo, hi):
        return round(0.5 * (lo + hi), TICK_DECIMALS)

    def is_open(bracket):
        return bracket[1] - bracket[0] > REFINE_RESOLUTION + 1e-12

    while True:
        for flag, (lo, hi) in brackets.items():
            while is_open((lo, hi)) and ((m := mid(lo, hi)) in outcomes or m in side):
                outcomes.setdefault(m, side.get(m))
                lo, hi = (m, hi) if getattr(outcomes[m], flag) else (lo, m)
            brackets[flag] = (lo, hi)
        frontier = list(dict.fromkeys(b for b in brackets.values() if is_open(b)))
        if not frontier:
            return {**limits, **{flag: lo for flag, (lo, _) in brackets.items()}}
        offer = []
        while frontier:
            level = list(dict.fromkeys(mid(*b) for b in frontier))
            if len(offer) + len(level) > band:
                offer = offer or level
                break
            offer += level
            frontier = [b for lo, hi in frontier for b in ((lo, mid(lo, hi)), (mid(lo, hi), hi)) if is_open(b)]
        for out in (yield sorted(offer)):
            side[out.c] = out


def _lockstep(search: LimitSearchConfig, tableaux: list) -> list[LimitResult]:
    """Run one :func:`_scan` per tableau, each on ``search`` with its
    tableau in ``search.base``, all advancing together in rounds.  A table
    has one chunk size, ``_chunk_rows(base, scans)`` (a chunk holds at least
    two rows per scan), and each scan offers at most ``band = chunk size //
    scans`` coarse ticks a round (at least 2, and so at least the two
    brackets' midpoints), so a refine round fits in one chunk (on Leblanc,
    two ticks of every scheme).  A round sorts every live
    scan's offer by (c, scheme name), so the long low-c rows of all scans
    share a chunk, and cuts it into chunks of ``min(chunk size, ceil(rows /
    processes))`` rows, ``processes`` being ``search.workers`` capped at the
    CPU count; they run serially or, with two or more processes and chunks,
    in a process pool, which the first such round imports and starts.  Every
    chunk steps on ``search.base`` with its rows' tableaux.  The rounds do
    not depend on ``workers``."""
    base = search.base
    chunk_rows = _chunk_rows(base, len(tableaux))
    band = chunk_rows // len(tableaux)
    scans = [_scan(dataclasses.replace(search, base=dataclasses.replace(base, tableau=t)), band) for t in tableaux]
    offers = {k: next(scan) for k, scan in enumerate(scans)}
    results = {}
    processes = min(search.workers, os.cpu_count() or 1)
    pool = None
    with contextlib.ExitStack() as stack:
        while offers:
            rows = sorted((c, tableaux[k].name, k) for k, cs in offers.items() for c in cs)
            size = min(chunk_rows, math.ceil(len(rows) / processes))
            chunks = [rows[i : i + size] for i in range(0, len(rows), size)]
            jobs = [(base, [tableaux[k] for _, _, k in chunk], [c for c, _, _ in chunk]) for chunk in chunks]
            pooled = processes > 1 and len(jobs) > 1
            if pooled and pool is None:
                import concurrent.futures

                pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(processes))
            # Outcomes arrive in row order, serial or pooled.
            outs = (pool.map if pooled else map)(_run_chunk, jobs)
            got = {k: [] for k in offers}
            for (_, _, k), out in zip(rows, itertools.chain.from_iterable(outs)):
                got[k].append(out)
            for k in got:
                try:
                    offers[k] = scans[k].send(got[k])
                except StopIteration as stop:
                    results[k] = stop.value
                    del offers[k]
    return [results[k] for k in range(len(tableaux))]


def find_limits(cfg: LimitSearchConfig) -> LimitResult:
    """Sweep c and report, per criterion, the top of the contiguous pass run.

    The result is the row a table on the same search holds for the scheme;
    a tableau that :func:`ssp_coefficient` rejects fails before any run.
    The reported limit is the largest c such that every candidate from c_min
    up to c passed; that is the step-size region the scheme can actually be
    trusted in.  Isolated passes beyond the first failure do occur
    (degenerate data can hit exact-arithmetic resonances at special
    multipliers) and remain visible in ``per_candidate``, which records the
    full scan.  With ``refine`` the coarse scan stops once both criteria
    have failed and each limit is bisected inside its coarse bracket, up to
    the next granularity tick: the refined limit is the low end of a final
    bracket at most :data:`REFINE_RESOLUTION` wide, a multiple of
    ``granularity / 2**k`` (such as 1.33125), not a 0.01 tick.  The
    bisection assumes that passes are monotone inside the coarse bracket,
    which they need not be (on ``upwind``, ssprk33 passes at 1.35 and
    1.3625 and fails at 1.36).  Each round then runs up to a chunk's worth
    of coarse ticks or midpoints (and at least the next midpoint of each
    open bracket), some of them speculatively (see :func:`_scan`); the
    result is the serial search's.
    """
    (result,) = _lockstep(cfg, [cfg.base.tableau])
    return result


@dataclass(frozen=True)
class ExperimentTable:
    """One measured table: a row per RK scheme for a single experiment."""

    experiment: str
    monitor: str
    c_min: float
    c_max: float
    granularity: float
    rows: tuple[LimitResult, ...]

    def to_json_dict(self) -> dict:
        table = dataclasses.asdict(self)
        table["rows"] = [{**row, "per_candidate": list(row["per_candidate"])} for row in table["rows"]]
        return table

    def _cell(self, value: float | None) -> str:
        return f"<{self.c_min:g}" if value is None else repr(float(value))

    def write_csv(self, path) -> None:
        rows = self.rows
        columns = [[r.scheme for r in rows], [float(r.c_ssp) for r in rows]]
        columns += [[self._cell(getattr(r, name)) for r in rows] for name in ("c_s", "c_p")]
        write_csv_columns(path, ["scheme", "c_ssp", "c_s", "c_p"], columns)

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
    **preset_overrides,
) -> ExperimentTable:
    """Sweep every scheme on one experiment: one :class:`LimitResult` row each.

    ``schemes`` is a non-empty list of distinct built-in scheme ids (default:
    all five).  The table is one search: one preset config, from
    ``preset_overrides`` (the keywords of :func:`~rkstab.presets.preset_config`
    but ``scheme_id`` and ``dt_factor``: n_cells, t_final, tolerance,
    monitor_kind and lf), and one :class:`LimitSearchConfig`, whose scans,
    one per scheme, advance in lockstep (see :func:`_lockstep`); each scan's
    result is its scheme's row, in the order of ``schemes``.
    """
    from .presets import preset_config

    if isinstance(schemes, str):  # a string would be read as its characters
        raise ValueError(f"schemes must be a list of scheme ids, not the string {schemes!r}")
    schemes = list(BUILTIN_SCHEME_IDS if schemes is None else schemes)
    if not schemes:
        raise ValueError("limits_table needs at least one scheme")
    tableaux = [builtin_scheme(name) for name in schemes]  # first: a list id is unknown, not unhashable below
    repeated = sorted({name for name in schemes if schemes.count(name) > 1})
    if repeated:
        raise ValueError(f"schemes listed more than once: {', '.join(repeated)}")
    for name in ("scheme_id", "dt_factor"):
        if name in preset_overrides:
            raise ValueError(f"limits_table sets {name} per candidate; it cannot be overridden")
    search = LimitSearchConfig(
        base=preset_config(experiment, dt_factor=1.0, **preset_overrides),
        c_min=c_min,
        c_max=c_max,
        granularity=granularity,
        refine=refine,
        workers=workers,
    )
    return ExperimentTable(
        experiment=experiment,
        monitor=search.base.monitor.kind,
        c_min=c_min,
        c_max=c_max,
        granularity=granularity,
        rows=tuple(_lockstep(search, tableaux)),
    )
