"""Instrumented explicit Runge-Kutta stepping and whole-run simulation.

A step records everything the stability analysis needs: the stage solutions
q^i, the stage derivatives R^j, and the shifted Euler states q^n + dt*R^j.
``run_batch`` is the one stepping loop: it advances one run per step-size
multiplier together, as a stack of states ``(B, n)`` or ``(B, 3, n)``, each
row with its own adaptive step size, time, first failures and abort, and
evaluates the configured monitor on all recorded states every step.
``simulate`` is its one-row case with a per-step history; limit sweeps feed
it chunks of candidates.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .fields import (
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    ScalarField,
    admissibility_error,
)
from .monitors import (
    Monitor,
    bind_scale,
    euler_state_floor,
    family_worst,
    passes,
    state_values,
    step_deltas,
)
from .tableau import ButcherTableau

__all__ = [
    "StepFailedError",
    "StageTrace",
    "SimulationConfig",
    "RunVerdict",
    "SimulationRecord",
    "RunRow",
    "STEP_BUDGET_FACTOR",
    "END_TIME_TOLERANCE",
    "rk_step_instrumented",
    "modified_representation_stage",
    "run_batch",
    "simulate",
]

#: A run may take at most this many times ceil(t_final / dt_0) steps, dt_0
#: being its first step; the next step ends it with abort reason
#: "step_budget", so a collapsing adaptive dt_FE cannot make a run hang.
STEP_BUDGET_FACTOR = 100

#: A run ends once t_final - t is at most this times max(1, t_final), so a
#: t_final at or below it would end the run before its first step.
END_TIME_TOLERANCE = 1e-12


class StepFailedError(RuntimeError):
    """An RHS evaluation failed inside a step (e.g. non-physical Euler state)."""

    def __init__(self, stage: int, cause: Exception):
        super().__init__(f"RHS evaluation failed at stage {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True, eq=False)
class StageTrace:
    """Complete record of one RK step.

    ``stage_solutions[0]`` is ``q_n`` itself (explicit method, c_1 = 0) and
    ``shifted_states[j]`` equals ``q_n + dt * stage_derivatives[j]`` by
    construction.  ``grid`` is metadata for the monitors; it stays None for
    bare ODE usage.
    """

    q_n: np.ndarray
    dt: float
    stage_solutions: tuple
    stage_derivatives: tuple
    shifted_states: tuple
    q_rk: np.ndarray
    grid: Grid1D | None = None


def rk_step_instrumented(
    tableau: ButcherTableau,
    rhs,
    q_n,
    dt: float,
    grid: Grid1D | None = None,
    *,
    out=None,
    r0=None,
    dt_cells=None,
) -> StageTrace | None:
    """Advance one step, keeping every stage quantity.

    ``rhs`` maps a state to its time derivative; states are numpy arrays,
    and ``dt`` may be an array broadcasting against them (one step size per
    row of a stack of states).  ``tableau`` is a :class:`ButcherTableau` or
    the step plan :func:`_batch_tableau` makes of it or of a stack of rows:
    stage ``i`` exists on the first ``width[i]`` rows (None: on all of them):
    its stage solution, derivative and shifted state are those rows, and
    ``q_rk`` is ``q_n`` plus each ``b_j`` term on its prefix.

    Without ``out`` the step returns its :class:`StageTrace`.  With ``out``,
    2s + 1 arrays (stages 1..s-1, ``q_rk`` and shifted states 0..s-1, each
    shaped as the rows that have it, then a scratch array shaped as ``q_n``;
    see :func:`_step_layout`), it writes its states there and returns None;
    each derivative is dropped as soon as its terms are added.  Both ways
    make the same operations in the same order, so their states are equal
    bit for bit.  ``r0`` is a list that holds ``rhs(q_n)`` when the caller
    has evaluated it already; the step pops it as stage 0's derivative, so
    that it too is dropped once its terms are added.  An RHS failure
    (``NonPhysicalStateError``) is re-raised as :class:`StepFailedError`
    carrying the stage index.  :func:`run_batch` does not catch it: there
    the monitor judges admissibility after the step, and kernels do not raise.

    A per-row ``dt`` is copied once into ``dt_cells`` (an array shaped as
    ``q_n``; a new one without it), so that the shifted states and every
    term whose coefficient is a float multiply whole arrays rather than a
    column against the rows: ``(dt a) R`` is then ``dt_cells * a`` times
    ``R``, the same operations on the same values.  A term with a column of
    the rows' coefficients keeps the column ``dt * a``, and a scalar ``dt``
    (one row) is used as it is.
    """
    tab = tableau if hasattr(tableau, "terms") else _batch_tableau([tableau], None)
    s, width = tab.s, tab.width
    derivs = [] if out is None else None
    if out is None:
        out = [np.empty_like(q_n[:n], dtype=float) for n in width[1:] + [None] + width + [None]]
    # Index k < s is stage k, index s is q_rk.  Each gets its terms as soon as
    # the derivative they need exists, in the order of j, and the first term
    # makes a stage q^n + term; q_rk starts as q^n, as its rows may differ in
    # the terms they have.
    states = [q_n, *out[: s - 1], out[s - 1]]
    shifted, scratch = out[s : 2 * s], out[2 * s]
    fresh = [True] * s + [False]
    np.copyto(states[s], q_n)
    spread = np.ndim(dt) > 0
    if spread:
        dt_cells = np.empty_like(q_n, dtype=float) if dt_cells is None else dt_cells
        np.copyto(dt_cells, dt)
    else:
        dt_cells = dt
    for i, terms in enumerate(tab.terms):
        q_0, dt_i = (q_n, dt_cells) if width[i] is None else (q_n[: width[i]], dt_cells[: width[i]])
        q_i = states[i]
        if i and fresh[i]:  # a stage without terms is q^n
            np.copyto(q_i, q_0)
        try:
            r_i = r0.pop() if r0 else rhs(q_i)
        except NonPhysicalStateError as exc:
            raise StepFailedError(i, exc) from exc
        if derivs is not None:
            derivs.append(r_i)
        np.multiply(dt_i, r_i, out=shifted[i])
        np.add(q_0, shifted[i], out=shifted[i])
        for k, a, n in terms:
            if n is None:
                dest, base, dt_k, term, tmp = states[k], q_n, dt_cells, r_i, scratch
            else:
                dest, base, dt_k, term, tmp = states[k][:n], q_n[:n], dt_cells[:n], r_i[:n], scratch[:n]
            prod = dest if fresh[k] else tmp
            if spread and type(a) is float:
                np.multiply(dt_k, a, out=prod)
                prod *= term
            else:  # a column of coefficients, or one row's scalar dt
                np.multiply((dt if n is None else dt[:n]) * a, term, out=prod)
            if fresh[k]:
                np.add(base, dest, out=dest)
                fresh[k] = False
            else:
                np.add(dest, tmp, out=dest)
        del r_i  # not alive during the next stage's rhs call
    if derivs is None:
        return None
    return StageTrace(
        q_n=q_n,
        dt=dt,
        stage_solutions=tuple(states[:s]),
        stage_derivatives=tuple(derivs),
        shifted_states=tuple(shifted),
        q_rk=states[s],
        grid=grid,
    )


def modified_representation_stage(tableau: ButcherTableau, trace: StageTrace, stage: int):
    """Stage solution rebuilt as (1 - c_i) q^n + sum_j a_ij (q^n + dt R^j).

    ``stage`` is 0-based.  For a row-sum consistent tableau this is
    algebraically identical to the standard stage recursion, so the result
    must match ``trace.stage_solutions[stage]`` to roundoff.
    """
    acc = (1.0 - tableau.c[stage]) * trace.q_n
    for j in range(stage):
        a = tableau.A[stage, j]
        if a != 0.0:
            acc = acc + a * trace.shifted_states[j]
    return acc


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to run one experiment at one step-size multiplier.

    The realized step is ``dt_factor * dt_FE(q^n)`` recomputed every step
    (constant for the fixed-rule Burgers schemes), truncated at the end to
    land exactly on ``t_final``.
    """

    scheme: object
    tableau: ButcherTableau
    grid: Grid1D
    ic: object  # anything with build(grid) -> field
    t_final: float
    dt_factor: float
    monitor: Monitor
    record_every: int = 1

    def __post_init__(self):
        # An infinite t_final, or one at or below the end-time tolerance,
        # would end every run before its first step.
        if not END_TIME_TOLERANCE < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, above {END_TIME_TOLERANCE}, got {self.t_final!r}")
        if not 0 < self.dt_factor < math.inf:
            raise ValueError(f"dt_factor must be positive and finite, got {self.dt_factor!r}")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass(frozen=True)
class RunVerdict:
    """Overall pass/fail of one run, for both per-step criteria.

    A run that aborts (non-physical state, degenerate step size, or step
    budget exhausted) fails both criteria: neither can be certified through
    t_final.
    """

    step_pass: bool
    shifted_pass: bool
    first_step_failure: int | None
    first_shifted_failure: int | None
    aborted_step: int | None = None
    abort_reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.step_pass and self.shifted_pass


@dataclass(eq=False)
class SimulationRecord:
    """Per-step monitor history of one run.

    ``monitor_step_values`` holds G(q^RK) for energy/tv and the state floor
    min(rho, rho*e) of q^RK for positivity.  The two ``*_worst`` columns are
    the most-violating delta over the stage family (stages plus step) and
    over the shifted family.  ``min_rho``/``min_rhoe`` are the step
    solution's minima (rho*e over the cells with rho > 0, NaN when there
    are none) and stay None for scalar problems.
    """

    times: np.ndarray
    monitor_step_values: np.ndarray
    monitor_stage_worst: np.ndarray
    monitor_shifted_worst: np.ndarray
    min_rho: np.ndarray | None
    min_rhoe: np.ndarray | None
    final_field: object
    verdict: RunVerdict
    n_steps: int
    config: SimulationConfig = field(repr=False, default=None)

    def write_csv(self, path) -> None:
        """History CSV: t, G_step, worst_stage_delta, worst_shifted_delta[, min_rho, min_rhoe].

        Every ``config.record_every``-th step is written, and the last one.
        """
        stride = self.config.record_every if self.config is not None else 1
        header = ["t", "G_step", "worst_stage_delta", "worst_shifted_delta"]
        columns = [self.times, self.monitor_step_values, self.monitor_stage_worst, self.monitor_shifted_worst]
        if self.min_rho is not None:
            header += ["min_rho", "min_rhoe"]
            columns += [self.min_rho, self.min_rhoe]
        n = len(self.times)
        rows = list(range(0, n, stride))
        if rows and rows[-1] != n - 1:
            rows.append(n - 1)
        columns = [np.asarray(col, dtype=float)[rows].tolist() for col in columns]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(zip(*columns))  # a float is written as its repr


@dataclass(eq=False)
class RunRow:
    """What :func:`run_batch` learnt about one row (one multiplier).

    ``history`` holds one tuple per step, ``(t, G_step, worst_stage_delta,
    worst_shifted_delta[, min_rho, min_rhoe])``, and ``final_state`` the
    state the row ended on; both are kept only when recording.
    """

    dt_factor: float
    n_steps: int = 0
    first_step_failure: int | None = None
    first_shifted_failure: int | None = None
    aborted_step: int | None = None
    abort_reason: str | None = None
    history: list | None = None
    final_state: np.ndarray | None = None

    @property
    def verdict(self) -> RunVerdict:
        return RunVerdict(
            step_pass=self.first_step_failure is None and self.aborted_step is None,
            shifted_pass=self.first_shifted_failure is None and self.aborted_step is None,
            first_step_failure=self.first_step_failure,
            first_shifted_failure=self.first_shifted_failure,
            aborted_step=self.aborted_step,
            abort_reason=self.abort_reason,
        )


def _batch_tableau(tableaux: list, column_shape: tuple | None):
    """The step plan of a stack of rows, built once per layout.

    The rows come in descending stage count; ``s`` is the largest, and
    stage ``i`` runs on the first ``width[i]`` rows, those that have it
    (None: all of them, so a full stage is never sliced).  ``terms[i]``
    lists the nonzero terms of derivative ``i``: ``(k, a, n)`` adds it to
    stage ``k`` (``k = s``: q_rk) with coefficient ``a`` (``A[k, i]`` or
    ``b[i]``), a float when every row has the same, else a column of the
    rows' values, on the first ``n`` rows (None: all of them)."""
    s = tableaux[0].s
    width = [sum(t.s > i for t in tableaux) for i in range(s)]
    width = [None if n == len(tableaux) else n for n in width]
    Ab = np.zeros((s + 1, s, len(tableaux)))  # [k, i, row]: A, then b as row s
    for r, t in enumerate(tableaux):
        Ab[: t.s, : t.s, r] = t.A
        Ab[s, : t.s, r] = t.b
    terms = [[] for _ in range(s)]
    for i, k in itertools.combinations(range(s + 1), 2):
        n = width[k] if k < s else width[i]  # b_i covers stage i's rows
        x = Ab[k, i, :n]
        if x.any():
            a = float(x[0]) if (x == x[0]).all() else x.reshape(column_shape)
            terms[i].append((k, a, n))
    return SimpleNamespace(s=s, width=width, terms=terms)


def _step_layout(buffer: np.ndarray, scratch: np.ndarray, tab, rows: int):
    """Where a step of ``rows`` stacked rows keeps its states.

    Returns the ``out`` arrays of :func:`rk_step_instrumented`: consecutive
    blocks of ``buffer`` holding stages 1..s-1 (each on the rows that have
    it), q_rk and shifted states 0..s-1, then ``scratch`` cut to ``rows``; and
    the number of states in those blocks, which the monitor reads as one
    stack; and ``take``, which places the values of ``v_n`` and of those
    states, concatenated, into a ``(rows, 2s+1)`` layout, row by row: q^n,
    stages 1..s-1, q_rk, shifted states 0..s-1.  A stage a row lacks would
    be q^n and takes the value of stage 0, its shifted state shifted state
    0's."""
    s = tab.s
    stage_rows = [rows if n is None else n for n in tab.width]
    sizes = [rows] + stage_rows[1:] + [rows] + stage_rows  # v_n, stages 1.., q_rk, shifted
    starts = list(itertools.accumulate(sizes, initial=0))
    out = [buffer[a - rows : b - rows] for a, b in zip(starts[1:-1], starts[2:])] + [scratch[:rows]]
    n_states = starts[-1] - rows
    k = np.arange(rows)
    home = [0] * s + [s] + [s + 1] * s  # the column a missing state copies
    take = np.stack([np.where(k < n, a + k, starts[h] + k) for n, a, h in zip(sizes, starts, home)], axis=1)
    return out, n_states, take


def run_batch(
    config: SimulationConfig,
    dt_factors,
    *,
    tableaux=None,
    early_stop: bool = False,
    record: bool = False,
    trace_callback=None,
) -> list[RunRow]:
    """Advance one run of ``config`` per multiplier in ``dt_factors`` together.

    Every row starts from the same initial condition and takes
    ``dt = c * dt_FE(row)`` (``config.dt_factor`` is not used), truncated
    at the end to land exactly on ``t_final``.  Row ``k`` steps with
    ``tableaux[k]`` (default: ``config.tableau`` for every row; see
    :func:`_batch_tableau` for a mix).  Each step writes its states into one
    workspace allocated for the whole batch (see :func:`_step_layout`), and
    the monitor is evaluated on every stage solution, the step solution and
    every shifted state of every row, as one view of it; stage 0 is q^n
    itself, so its value is the one carried over from the previous step.  A
    criterion violation is recorded (first-failure step per criterion) and
    the row continues.
    A row leaves the stack when it reaches ``t_final`` (within
    :data:`END_TIME_TOLERANCE`); when it aborts on a degenerate step size,
    on an inadmissible Euler stage or on the step budget
    (:data:`STEP_BUDGET_FACTOR`); or, with ``early_stop``, once both
    criteria have failed, which cannot change its verdict.  Kernels do not
    check admissibility: after each step the monitor's floor judges every
    Euler stage, and the abort reason names the first stage whose floor is
    not positive with the :func:`~rkstab.fields.admissibility_error` of its
    state.  A kernel that raises anyway raises :class:`StepFailedError` out
    of the call, at any batch size.  With ``record`` each row keeps its
    history and final state.  ``trace_callback(step, t, trace)`` is invoked
    after each completed step of a one-row batch; only then is a
    :class:`StageTrace` built.
    """
    scheme = config.scheme
    grid = config.grid
    is_euler = bool(getattr(scheme, "is_euler", False))
    monitor = config.monitor
    if (monitor.kind == "positivity") != is_euler:  # so is_euler also means the positivity monitor
        raise ValueError(f"{monitor.kind} monitor requires {'a scalar' if is_euler else 'an Euler'} scheme")
    rows = [RunRow(float(c), history=[] if record else None) for c in dt_factors]
    if trace_callback is not None and len(rows) != 1:
        raise ValueError("trace_callback needs a one-row batch")
    tableaux = [config.tableau] * len(rows) if tableaux is None else list(tableaux)
    if len(tableaux) != len(rows):
        raise ValueError("run_batch needs one tableau per row")
    if not rows:
        return rows
    f0 = config.ic.build(grid)
    q0 = f0.stack() if is_euler else f0.q
    v0 = state_values(monitor, grid, q0)  # G(q^0), or the floor of q^0
    if not is_euler:
        monitor = bind_scale(monitor, v0)

    t_final = config.t_final
    t_eps = END_TIME_TOLERANCE * max(1.0, t_final)
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    # A scheme whose kernel also bounds the step gets q^n's bound from the
    # stage-0 call; the others are asked for it apart.
    fused = bool(getattr(scheme, "rhs_gives_dt_fe", False))
    r0 = None  # that call's derivative, until the step takes it
    as_column = (-1,) + (1,) * q0.ndim  # per-row dt against a stack of states

    # Per stacked row, in descending stage count (a stable sort, kept when rows
    # leave): its RunRow index, multiplier, state, time, value of q^n, step
    # budget and whether each criterion (step, shifted) has failed.  All live
    # rows have taken the same number of steps.
    live = np.array(sorted(range(len(rows)), key=lambda k: -tableaux[k].s))
    tab = _batch_tableau([tableaux[k] for k in live], as_column)
    c = np.array([rows[k].dt_factor for k in live])
    q = np.repeat(q0[None], len(rows), axis=0)
    t = np.zeros(len(rows))
    v_n = np.full(len(rows), v0)
    budget = np.zeros(len(rows))
    failed = np.zeros((len(rows), 2), dtype=bool)
    step = 0
    # The workspace: room for the first step's states (rows only leave, so
    # later steps need less), a scratch state per row, and the rows' dt
    # spread over their cells (see rk_step_instrumented).
    buffer = np.empty((2 * sum(n or len(rows) for n in tab.width),) + q0.shape)
    scratch = np.empty_like(q)
    dt_cells = np.empty_like(q)
    out, n_states, take = _step_layout(buffer, scratch, tab, len(rows))

    def leave(keep, *extra):
        """Drop the rows outside ``keep``; return ``extra`` row arrays filtered alike."""
        nonlocal live, c, q, t, v_n, budget, failed, tab, out, n_states, take
        for k in np.flatnonzero(~keep):
            row = rows[live[k]]
            row.n_steps = step
            if record:
                row.final_state = q[k]
        live, c, q, t, v_n, budget, failed = (a[keep] for a in (live, c, q, t, v_n, budget, failed))
        if live.size:  # step with the rows that stay
            tab = _batch_tableau([tableaux[r] for r in live], as_column)
            out, n_states, take = _step_layout(buffer, scratch, tab, live.size)
        return [None if a is None else a[keep] for a in extra]

    def abort(k, reason: str) -> None:
        rows[live[k]].aborted_step = step
        rows[live[k]].abort_reason = reason

    # A mask is tested with count_nonzero, which costs a fraction of .all().
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            remaining = t_final - t
            running = remaining > t_eps
            if np.count_nonzero(running) < live.size:
                (remaining,) = leave(running, remaining)
                if not live.size:
                    break

            if fused:
                r0, dt = scheme.rhs_array(q, grid, with_dt_fe=True)
                dt = c * dt
            else:
                dt = c * scheme.dt_fe_array(q, grid)
            dt_ok = dt > 0.0  # NaN is not
            if np.count_nonzero(dt_ok) < live.size:
                for k in np.flatnonzero(~dt_ok):
                    cause = admissibility_error(q[k]) if is_euler else None
                    abort(k, "degenerate_dt" if cause is None else f"degenerate_dt: {cause}")
                dt, remaining, r0 = leave(dt_ok, dt, remaining, r0)
                if not live.size:
                    break
            dt = np.minimum(dt, remaining)
            if step == 0:  # a budget is at least 100 steps; test from the smallest on
                budget = STEP_BUDGET_FACTOR * np.ceil(t_final / dt)
                first_over = budget.min()
            elif step >= first_over:
                in_budget = step < budget
                for k in np.flatnonzero(~in_budget):
                    abort(k, "step_budget")
                dt, r0 = leave(in_budget, dt, r0)
                if not live.size:
                    break
                first_over = budget.min()

            # One row's dt is passed as a scalar: it broadcasts to the same
            # values, with less overhead per operation than a 1x1 array.
            dt_rows = dt.reshape(as_column) if live.size > 1 else float(dt[0])
            # This step's layout: an Euler leave() below re-lays the workspace.
            s, states, q_rk = tab.s, buffer[:n_states], out[tab.s - 1]
            first, r0 = ([] if r0 is None else [r0]), None
            if trace_callback is None:
                rk_step_instrumented(tab, rhs, q, dt_rows, out=out, r0=first, dt_cells=dt_cells[: live.size])
            else:  # one row: trace its state, then monitor the step as any other
                first = [r[0] for r in first]
                trace = rk_step_instrumented(tab, rhs, q[0], dt_rows, grid, r0=first)
                for dest, state in zip(out, trace.stage_solutions[1:] + (trace.q_rk,) + trace.shifted_states):
                    np.copyto(dest, state)

            # The value of every state of the step in the (rows, 2s+1) layout:
            # q^n, whose value carries over, then stages 1..s-1, the step
            # solution and the shifted states.  A recorded Euler run takes the
            # minima of q_rk for its history from the same pass.
            minima = ()
            if is_euler and record:
                values, minima = euler_state_floor(states, with_minima=True)
                at = sum(map(len, out[: s - 1]))  # q_rk follows stages 1..s-1
                minima = [m[at : at + live.size] for m in minima]
            else:
                values = state_values(monitor, grid, states)
            values = np.concatenate((v_n, values))[take]
            if is_euler:
                # A stage whose floor is not positive is one the kernel may not see.
                admissible = values[:, :s] > 0.0
                if np.count_nonzero(admissible) < admissible.size:
                    inadmissible = ~admissible.all(axis=1)
                    for k in np.flatnonzero(inadmissible):
                        i = int(np.argmin(admissible[k]))
                        # Stage i of row k in the workspace; stage 0 is q^n.
                        at = take[k, i] - live.size
                        cause = admissibility_error(q[k] if at < 0 else states[at])
                        abort(k, str(StepFailedError(i, cause)))
                    dt, values, q_rk, *minima = leave(~inadmissible, dt, values, q_rk, *minima)
                    if not live.size:
                        break

            # Per row, the worst delta of the step family (q^n, the stages and
            # q_rk) and of the shifted family; columns 0 and 1 of ``failed``.
            worst = family_worst(monitor, step_deltas(monitor, values), s)
            v_n = values[:, s]
            t += dt
            if record:
                columns = (t, v_n, worst[:, 0], worst[:, 1], *minima)
                for k, r in enumerate(live.tolist()):
                    rows[r].history.append(tuple(float(x[k]) for x in columns))
            fail = ~passes(monitor, worst)
            new = fail > failed
            if np.count_nonzero(new):
                for k, family in zip(*np.nonzero(new)):
                    setattr(rows[live[k]], ("first_step_failure", "first_shifted_failure")[family], step)
                failed |= fail
            if trace_callback is not None:
                trace_callback(step, float(t[0]), trace)
            # q^{n+1} leaves the workspace, which the next step overwrites.
            q = q_rk.copy()
            step += 1
            if early_stop:
                both = failed.all(axis=1)
                if np.count_nonzero(both):
                    leave(~both)
    return rows


def simulate(config: SimulationConfig, *, early_stop: bool = False, trace_callback=None) -> SimulationRecord:
    """Advance the configured problem from t = 0 to t_final.

    The one-row case of :func:`run_batch` at ``config.dt_factor``, with the
    per-step history.  Monitor values for the step solution, every stage
    solution and every shifted state are recorded each step.  A criterion
    violation is recorded (first-failure step per criterion) but the run
    continues; only an inadmissible Euler stage, a degenerate step size or
    the step budget aborts it (when an Euler step solution lost positivity,
    the degenerate-step reason names the quantity and the first bad cell).  With
    ``early_stop`` the run stops once both criteria have already failed,
    which cannot change the verdict (used by limit sweeps).
    ``trace_callback(step, t, trace)`` is invoked after each completed step.
    """
    (row,) = run_batch(config, [config.dt_factor], early_stop=early_stop, record=True, trace_callback=trace_callback)
    euler = bool(getattr(config.scheme, "is_euler", False))
    columns = list(zip(*row.history)) or [()] * (6 if euler else 4)
    history = [np.array(col) for col in columns]
    if euler:
        final_field = EulerField.from_stack(config.grid, row.final_state, config.scheme.gamma)
    else:
        final_field = ScalarField(config.grid, row.final_state)
    return SimulationRecord(
        times=history[0],
        monitor_step_values=history[1],
        monitor_stage_worst=history[2],
        monitor_shifted_worst=history[3],
        min_rho=history[4] if euler else None,
        min_rhoe=history[5] if euler else None,
        final_field=final_field,
        verdict=row.verdict,
        n_steps=row.n_steps,
        config=config,
    )
