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
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .fields import (
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    ScalarField,
    euler_minima,
    require_admissible,
)
from .monitors import Monitor, bind_scale, passes, state_values, step_deltas, worst_delta
from .tableau import ButcherTableau

__all__ = [
    "StepFailedError",
    "StageTrace",
    "SimulationConfig",
    "RunVerdict",
    "SimulationRecord",
    "RunRow",
    "STEP_BUDGET_FACTOR",
    "rk_step_instrumented",
    "modified_representation_stage",
    "modified_representation_solution",
    "run_batch",
    "simulate",
]

#: A run may take at most this many times ceil(t_final / dt_0) steps, dt_0
#: being its first step; the next step ends it with abort reason
#: "step_budget", so a collapsing adaptive dt_FE cannot make a run hang.
STEP_BUDGET_FACTOR = 100


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
    construction.  ``grid`` and ``is_euler`` are metadata for the monitors;
    they stay None/False for bare ODE usage.
    """

    q_n: np.ndarray
    dt: float
    stage_solutions: tuple
    stage_derivatives: tuple
    shifted_states: tuple
    q_rk: np.ndarray
    grid: Grid1D | None = None
    is_euler: bool = False


def rk_step_instrumented(
    tableau: ButcherTableau,
    rhs,
    q_n,
    dt: float,
    grid: Grid1D | None = None,
    is_euler: bool = False,
) -> StageTrace:
    """Advance one step, keeping every stage quantity.

    ``rhs`` maps a state to its time derivative; states may be scalars or numpy
    arrays, and ``dt`` may be an array broadcasting against them (one step size
    per row of a stack of states), as may a coefficient (see
    :func:`_batch_tableau`); a scalar coefficient of 0 is skipped.  In a mixed
    step (a tableau with ``width``) stage ``i`` exists on the first
    ``width[i]`` rows only: its stage solution, derivative and shifted state
    are those rows, and ``q_rk`` is ``q_n`` plus each ``b_j`` term on its
    prefix.  An RHS failure (``NonPhysicalStateError``) is re-raised as
    :class:`StepFailedError` carrying the stage index, which callers treat as a
    stability failure of the probed step size.
    """
    A, b, s = tableau.A, tableau.b, tableau.s
    width = getattr(tableau, "width", None)
    stages = []
    derivs = []
    shifted = []
    for i in range(s):
        q_0, dt_i = (q_n, dt) if width is None else (q_n[: width[i]], dt[: width[i]])
        q_i = q_0
        for j in range(i):
            a = A[i, j]
            if isinstance(a, np.ndarray) or a != 0.0:
                q_i = q_i + (dt_i * a) * (derivs[j] if width is None else derivs[j][: width[i]])
        stages.append(q_i)
        try:
            r_i = rhs(q_i)
        except NonPhysicalStateError as exc:
            raise StepFailedError(i, exc) from exc
        derivs.append(r_i)
        shifted.append(q_0 + dt_i * r_i)
    q_rk = q_n if width is None else q_n.copy()
    for j in range(s):
        w = b[j]
        if width is not None and isinstance(w, np.ndarray):
            q_rk[: width[j]] += (dt[: width[j]] * w) * derivs[j]
        elif isinstance(w, np.ndarray) or w != 0.0:
            q_rk = q_rk + (dt * w) * derivs[j]
    return StageTrace(
        q_n=q_n,
        dt=dt,
        stage_solutions=tuple(stages),
        stage_derivatives=tuple(derivs),
        shifted_states=tuple(shifted),
        q_rk=q_rk,
        grid=grid,
        is_euler=is_euler,
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


def modified_representation_solution(tableau: ButcherTableau, trace: StageTrace):
    """Step solution rebuilt as sum_j b_j (q^n + dt R^j)."""
    acc = 0.0 * trace.q_n
    for j in range(tableau.s):
        w = tableau.b[j]
        if w != 0.0:
            acc = acc + w * trace.shifted_states[j]
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
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not self.dt_factor > 0:
            raise ValueError("dt_factor must be positive")
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
        euler = self.min_rho is not None
        header = ["t", "G_step", "worst_stage_delta", "worst_shifted_delta"]
        if euler:
            header += ["min_rho", "min_rhoe"]
        n = len(self.times)
        rows = list(range(0, n, stride))
        if rows and rows[-1] != n - 1:
            rows.append(n - 1)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in rows:
                row = [
                    repr(float(self.times[i])),
                    repr(float(self.monitor_step_values[i])),
                    repr(float(self.monitor_stage_worst[i])),
                    repr(float(self.monitor_shifted_worst[i])),
                ]
                if euler:
                    row += [repr(float(self.min_rho[i])), repr(float(self.min_rhoe[i]))]
                writer.writerow(row)


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


def _admissibility_error(U) -> NonPhysicalStateError | None:
    try:
        require_admissible(U)
    except NonPhysicalStateError as exc:
        return exc
    return None


def _row_trace(trace: StageTrace, k: int, dt: float) -> StageTrace:
    """Row ``k`` of a stacked step, shaped as a single-state step."""
    q_n = trace.q_n[k]
    return StageTrace(
        q_n=q_n,
        dt=dt,
        stage_solutions=(q_n,) + tuple(x[k] for x in trace.stage_solutions[1:]),
        stage_derivatives=tuple(x[k] for x in trace.stage_derivatives),
        shifted_states=tuple(x[k] for x in trace.shifted_states),
        q_rk=trace.q_rk[k],
        grid=trace.grid,
        is_euler=trace.is_euler,
    )


def _batch_tableau(tableaux: list, column_shape: tuple):
    """The tableau of one step of a stack of rows: theirs when they share one.
    Else the rows come in descending stage count, stage ``i`` runs on the
    ``width[i]`` rows that have it, and a coefficient of stage ``i`` (``A[i, j]``
    and ``b[i]``) becomes a column of those rows' values, or 0.0 (skipped)
    when it is 0 in every row.  ``take`` places the monitor values of ``v_n``
    and of the step's real states, concatenated, into the ``(B, 2s+1)`` layout
    of a one-tableau step: a stage a row lacks would be q^n and takes the
    value of stage 0, its shifted state shifted state 0's."""
    if all(t is tableaux[0] for t in tableaux):
        return tableaux[0]
    s = max(t.s for t in tableaux)
    width = [sum(t.s > i for t in tableaux) for i in range(s)]
    Ab = np.zeros((s, s + 1, len(tableaux)))  # A, then b as column s
    for k, t in enumerate(tableaux):
        Ab[: t.s, : t.s, k] = t.A
        Ab[: t.s, s, k] = t.b
    coef = [[x[:n].reshape(column_shape) if x.any() else 0.0 for x in row] for n, row in zip(width, Ab)]
    rows = np.arange(len(tableaux))
    sizes = [width[0]] + width[1:] + [width[0]] + width  # v_n, stages 1.., q_rk, shifted
    starts = np.cumsum([0] + sizes[:-1])
    home = [0] * s + [s] + [s + 1] * s  # the column a missing state copies
    take = np.stack([np.where(rows < n, a + rows, starts[h] + rows) for n, a, h in zip(sizes, starts, home)], axis=1)
    A = {(i, j): coef[i][j] for i in range(s) for j in range(i)}
    return SimpleNamespace(A=A, b=[row[s] for row in coef], s=s, width=width, take=take)


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
    :func:`_batch_tableau` for a mix).  Each step, the monitor is
    evaluated on every stage solution, the step solution and every shifted
    state of every row, as one stack; stage 0 is q^n itself, so its value
    is the one carried over from the previous step.  A criterion violation
    is recorded (first-failure step per criterion) and the row continues.
    A row leaves the stack when it reaches ``t_final``; when it aborts on a
    degenerate step size, on an inadmissible Euler stage (the reason names
    the stage, the quantity and the first bad cell, as the scheme's own
    check would) or on the step budget (:data:`STEP_BUDGET_FACTOR`); or,
    with ``early_stop``, once both criteria have failed, which cannot change
    its verdict.  With ``record`` each row keeps its history and final
    state.  ``trace_callback(step, t, trace)`` is invoked after each
    completed step of a one-row batch.
    """
    scheme = config.scheme
    grid = config.grid
    is_euler = bool(getattr(scheme, "is_euler", False))
    monitor = config.monitor
    positivity = monitor.kind == "positivity"
    if positivity and not is_euler:
        raise ValueError("positivity monitor requires an Euler scheme")
    if is_euler and not positivity:
        raise ValueError(f"{monitor.kind} monitor requires a scalar scheme")
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
    if not positivity:
        monitor = bind_scale(monitor, v0)

    t_final = config.t_final
    t_eps = 1e-12 * max(1.0, t_final)
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    as_column = (-1,) + (1,) * q0.ndim  # per-row dt against a stack of states

    # Per stacked row, in descending stage count (a stable sort, kept when rows
    # leave): its RunRow index, multiplier, state, time, value of q^n, step
    # budget and whether each criterion has failed.  All live rows have taken
    # the same number of steps.
    live = np.array(sorted(range(len(rows)), key=lambda k: -tableaux[k].s))
    tab = _batch_tableau([tableaux[k] for k in live], as_column)
    c = np.array([rows[k].dt_factor for k in live])
    q = np.repeat(q0[None], len(rows), axis=0)
    t = np.zeros(len(rows))
    v_n = np.full(len(rows), v0)
    budget = np.zeros(len(rows))
    failed_p = np.zeros(len(rows), dtype=bool)
    failed_s = np.zeros(len(rows), dtype=bool)
    step = 0

    def leave(keep, *extra):
        """Drop the rows outside ``keep``; return ``extra`` row arrays filtered alike."""
        nonlocal live, c, q, t, v_n, budget, failed_p, failed_s, tab
        for k in np.flatnonzero(~keep):
            row = rows[live[k]]
            row.n_steps = step
            if record:
                row.final_state = q[k]
        live, c, q, t, v_n, budget, failed_p, failed_s = (
            a[keep] for a in (live, c, q, t, v_n, budget, failed_p, failed_s)
        )
        if live.size and tab is not tableaux[live[0]]:  # a mix: step with the rows that stay
            tab = _batch_tableau([tableaux[r] for r in live], as_column)
        return [a[keep] for a in extra]

    def abort(k, reason: str) -> None:
        rows[live[k]].aborted_step = step
        rows[live[k]].abort_reason = reason

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            running = t_final - t > t_eps
            if not running.all():
                leave(running)
                if not live.size:
                    break

            dt = c * scheme.dt_fe_array(q, grid)
            dt_ok = dt > 0.0  # NaN is not
            if not dt_ok.all():
                for k in np.flatnonzero(~dt_ok):
                    cause = _admissibility_error(q[k]) if is_euler else None
                    abort(k, "degenerate_dt" if cause is None else f"degenerate_dt: {cause}")
                (dt,) = leave(dt_ok, dt)
                if not live.size:
                    break
            dt = np.minimum(dt, t_final - t)
            if step == 0:
                budget = STEP_BUDGET_FACTOR * np.ceil(t_final / dt)
            in_budget = step < budget
            if not in_budget.all():
                for k in np.flatnonzero(~in_budget):
                    abort(k, "step_budget")
                (dt,) = leave(in_budget, dt)
                if not live.size:
                    break

            try:
                # One row's dt is passed as a scalar: it broadcasts to the same
                # values, with less overhead per operation than a 1x1 array.
                dt_rows = dt.reshape(as_column) if live.size > 1 else float(dt[0])
                s, take = tab.s, getattr(tab, "take", None)  # this step's layout; leave() may change tab
                trace = rk_step_instrumented(tab, rhs, q, dt_rows, grid, is_euler)
            except StepFailedError as exc:
                if live.size > 1:
                    raise  # a batched kernel must not raise; rows are checked below
                abort(0, str(exc))
                leave(np.zeros(1, dtype=bool))
                break

            q_rk = trace.q_rk
            # The value of every state of the step, as one stack: stage 0 is
            # q^n, whose value carries over; then stages 1..s-1, the step
            # solution and the shifted states.
            real = trace.stage_solutions[1:] + (q_rk,) + trace.shifted_states
            if take is None:
                values = np.concatenate((v_n[:, None], state_values(monitor, grid, np.stack(real, axis=1))), axis=1)
            else:  # a mixed step's stage arrays are prefixes of the rows
                values = np.concatenate((v_n, state_values(monitor, grid, np.concatenate(real))))[take]
            del real
            if is_euler:
                # A stage whose floor is not positive is one the kernel may not see.
                bad = ~(values[:, :s] > 0.0)
                inadmissible = bad.any(axis=1)
                if inadmissible.any():
                    for k in np.flatnonzero(inadmissible):
                        i = int(np.argmax(bad[k]))
                        abort(k, str(StepFailedError(i, _admissibility_error(trace.stage_solutions[i][k]))))
                    dt, values, q_rk = leave(~inadmissible, dt, values, q_rk)
                    if not live.size:
                        break

            deltas = step_deltas(monitor, values)
            worst_p = worst_delta(monitor, deltas[:, : s + 1])
            worst_s = worst_delta(monitor, deltas[:, s + 1 :])
            v_rk = values[:, s]
            t = t + dt
            if record:
                minima = euler_minima(q_rk) if positivity else ()
                for k, r in enumerate(live):
                    rows[r].history.append(
                        (float(t[k]), float(v_rk[k]), float(worst_p[k]), float(worst_s[k]))
                        + tuple(float(m[k]) for m in minima)
                    )
            fail_p = ~passes(monitor, worst_p)
            fail_s = ~passes(monitor, worst_s)
            new_p = fail_p > failed_p
            new_s = fail_s > failed_s
            if new_p.any() or new_s.any():
                for k in np.flatnonzero(new_p):
                    rows[live[k]].first_step_failure = step
                for k in np.flatnonzero(new_s):
                    rows[live[k]].first_shifted_failure = step
                failed_p |= fail_p
                failed_s |= fail_s
            if trace_callback is not None:
                trace_callback(step, float(t[0]), _row_trace(trace, 0, float(dt[0])))
            # Only q^{n+1} outlives the step: the next step's stages must not
            # stack on top of this one's.
            del trace
            q = q_rk
            v_n = v_rk
            step += 1
            if early_stop:
                both = failed_p & failed_s
                if both.any():
                    leave(~both)
    return rows


def simulate(config: SimulationConfig, *, early_stop: bool = False, trace_callback=None) -> SimulationRecord:
    """Advance the configured problem from t = 0 to t_final.

    The one-row case of :func:`run_batch` at ``config.dt_factor``, with the
    per-step history.  Monitor values for the step solution, every stage
    solution and every shifted state are recorded each step.  A criterion
    violation is recorded (first-failure step per criterion) but the run
    continues; only an RHS failure, a degenerate step size or the step
    budget aborts it (when an Euler step solution lost positivity, the
    degenerate-step reason names the quantity and the first bad cell).  With
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
