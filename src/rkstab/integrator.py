"""Instrumented explicit Runge-Kutta stepping and whole-run simulation.

A step writes every state the stability analysis judges: the stage
solutions q^i, the step solution and the shifted Euler states q^n + dt*R^j.
``run_batch`` is the one stepping loop: it advances one run per step-size
multiplier together, as a stack of states ``(B, n)`` or ``(B, 3, n)``, each
row with its own adaptive step size, time, first failures and abort, and
evaluates the configured monitor on all recorded states every step.  Each
row ends as one :class:`SimulationRecord`, built when it leaves the stack.
``simulate`` is the one-row case with a per-step history; limit sweeps feed
``run_batch`` chunks of candidates and keep each record's verdict.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .fields import (
    ZERO,
    EulerField,
    Grid1D,
    ScalarField,
    admissibility_error,
    operand,
    require_number,
    write_csv_columns,
)
from .monitors import RULES, Monitor, euler_state_floor, judge, state_values
from .tableau import ButcherTableau

__all__ = [
    "SimulationConfig",
    "RunVerdict",
    "SimulationRecord",
    "STEP_BUDGET_FACTOR",
    "MAX_RUN_STEPS",
    "END_TIME_TOLERANCE",
    "rk_step_instrumented",
    "run_batch",
    "simulate",
    "check_record_every",
]

#: A run may take at most this many times ceil(t_final / dt_0) steps, dt_0
#: being its first step; the next step ends it with abort reason
#: "step_budget", so a collapsing adaptive dt_FE cannot make a run hang.
STEP_BUDGET_FACTOR = 100

#: A run whose first step implies more than this many steps to t_final
#: (ceil(t_final / dt_0)) ends at step 0 with abort reason "step_budget":
#: the budget above would let it step for ever.
MAX_RUN_STEPS = 10**7

#: A run ends once t_final - t is at most this times max(1, t_final), so a
#: t_final at or below it would end the run before its first step.
END_TIME_TOLERANCE = 1e-12


def rk_step_instrumented(plan, rhs, dt, *, r0=None) -> None:
    """Advance one step of the rows of a step plan, keeping every stage quantity.

    ``plan`` is the plan :func:`_step_plan` binds to q^n and a workspace;
    the step writes its stage solutions, step solution and shifted Euler
    states q^n + dt*R^j there, and drops each derivative once its terms are
    added.  ``rhs`` maps a state to its time derivative.  ``dt`` is the
    step size, a float or a ``(1,)`` array, when the plan has no
    ``dt_cells``; else an array broadcasting against the states (one step
    size per row of a stack of states).  ``r0`` is a list that holds
    ``rhs(q_n)`` when the caller has evaluated it already; the step pops it
    as stage 0's derivative.  An error that ``rhs`` raises propagates unchanged: in
    :func:`run_batch` the monitor judges admissibility after the step, and
    kernels do not raise.
    """
    multiply, add = np.multiply, np.add  # the ufuncs of every term, looked up once
    spread = plan.dt_cells is not None
    if spread:
        plan.dt_cells[...] = dt
    else:  # dt and every dt a, read through 0-d views of dta
        multiply(plan.coef, dt, plan.dta)
    for dest, q_0 in plan.copies:
        dest[...] = q_0
    for q_i, q_0, dt_i, shifted, cuts, terms in plan.stages:
        r_i = r0.pop() if r0 else rhs(q_i)
        multiply(dt_i, r_i, shifted)
        add(q_0, shifted, shifted)
        views = [r_i]  # r_i, then its prefixes that later stages need
        for n in cuts:
            views.append(r_i[:n])
        for prod, dt_k, a, dt_a, v, x, y, dest in terms:
            multiply(multiply(dt_k, a, dt_a) if spread else dt_a, views[v], prod)
            add(x, y, dest)
        del r_i, views  # not alive during the next stage's rhs call


def _dt_factor(c) -> float:
    """``c`` as a float, once it keeps the multiplier's rule: a real number, not a bool, with 0 < c < inf."""
    require_number("dt_factor", c)
    if not 0 < c < math.inf:
        raise ValueError(f"dt_factor must be positive and finite, got {c!r}")
    return float(c)


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

    def __post_init__(self):
        require_number("t_final", self.t_final)
        _dt_factor(self.dt_factor)
        # An infinite t_final, or one at or below the end-time tolerance,
        # would end every run before its first step.
        if not END_TIME_TOLERANCE < self.t_final < math.inf:
            raise ValueError(f"t_final must be positive and finite, above {END_TIME_TOLERANCE}, got {self.t_final!r}")
        # So is_euler also means a monitor of Euler states.
        is_euler = bool(getattr(self.scheme, "is_euler", False))
        if RULES[self.monitor.kind].euler != is_euler:
            raise ValueError(f"{self.monitor.kind} monitor requires {'a scalar' if is_euler else 'an Euler'} scheme")


@dataclass(frozen=True)
class RunVerdict:
    """The verdict of one run at multiplier ``c``, with the steps that explain
    it: the one record of a ``run`` and of a sweep candidate.

    Steps are 0-based; ``aborted_step`` is the step at which the run aborted
    and ``abort_reason`` why (None when it did not).  A run that aborts
    (non-physical state, degenerate step size, or step budget exhausted)
    fails both criteria: neither can be certified through t_final.  A sweep
    stops a run once both criteria have failed, so ``n_steps`` counts the
    steps it took.  The field order is that of a table's JSON.  Only
    :func:`_run_record` builds it, when a row leaves :func:`run_batch`.
    """

    c: float
    step_pass: bool
    shifted_pass: bool
    n_steps: int
    first_step_failure: int | None
    first_shifted_failure: int | None
    aborted_step: int | None
    abort_reason: str | None = None

    @property
    def passed(self) -> bool:
        return self.step_pass and self.shifted_pass


@dataclass(eq=False)
class SimulationRecord:
    """One run: its verdict and, when recorded, its per-step monitor history
    and final field (all None when not).

    ``monitor_step_values`` holds G(q^RK) for energy/tv and the state floor
    min(rho, rho*e) of q^RK for positivity.  The two ``*_worst`` columns are
    the most-violating delta over the stage family (stages plus step) and
    over the shifted family.  ``min_rho``/``min_rhoe`` are the step
    solution's minima (rho*e over the cells with rho > 0, NaN when there
    are none) and stay None for scalar problems.
    """

    verdict: RunVerdict
    final_field: object = None
    times: np.ndarray | None = None
    monitor_step_values: np.ndarray | None = None
    monitor_stage_worst: np.ndarray | None = None
    monitor_shifted_worst: np.ndarray | None = None
    min_rho: np.ndarray | None = None
    min_rhoe: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return self.verdict.n_steps

    def write_csv(self, path, record_every: int = 1) -> None:
        """History CSV: t, G_step, worst_stage_delta, worst_shifted_delta[, min_rho, min_rhoe].

        Every ``record_every``-th step is written, and the last one.
        """
        check_record_every(record_every)
        if self.times is None:
            raise ValueError("no history was recorded for this run")
        header = ["t", "G_step", "worst_stage_delta", "worst_shifted_delta"]
        columns = [self.times, self.monitor_step_values, self.monitor_stage_worst, self.monitor_shifted_worst]
        if self.min_rho is not None:
            header += ["min_rho", "min_rhoe"]
            columns += [self.min_rho, self.min_rhoe]
        n = len(self.times)
        rows = list(range(0, n, record_every))
        if rows and rows[-1] != n - 1:
            rows.append(n - 1)
        write_csv_columns(path, header, [col[rows] for col in columns])


def check_record_every(record_every) -> None:
    """The history stride's rule: an integer, at least 1."""
    require_number("record_every", record_every, numbers.Integral)
    if record_every < 1:
        raise ValueError("record_every must be at least 1")


def _run_record(config, c, n_steps, first, reason, history=None, state=None) -> SimulationRecord:
    """The record of a row that leaves :func:`run_batch` after ``n_steps``
    steps at multiplier ``c``, with its first step and shifted failures in
    ``first`` (-1: none) and its abort reason (None: it did not abort; one
    that did aborted at its last step).  ``history``, one tuple of the CSV's
    columns per step, and the final ``state`` are kept when recording."""
    step, shifted = (None if f < 0 else int(f) for f in first)
    aborted = None if reason is None else n_steps
    ok = aborted is None
    verdict = RunVerdict(c, step is None and ok, shifted is None and ok, n_steps, step, shifted, aborted, reason)
    if history is None:
        return SimulationRecord(verdict)
    euler = getattr(config.scheme, "is_euler", False)
    field = EulerField.from_stack(config.grid, state, config.scheme.gamma) if euler else ScalarField(config.grid, state)
    return SimulationRecord(verdict, field, *np.array(history, dtype=float).reshape(-1, 6 if euler else 4).T)


def _coefficients(tableaux: list):
    """Stage counts and coefficients of a stack of rows in descending stage
    count: row ``r`` has ``counts[r]`` stages, ``A`` in ``Ab[r, :-1]`` and
    ``b`` in ``Ab[r, -1]``, zero past them."""
    counts = np.array([t.s for t in tableaux])
    Ab = np.zeros((len(tableaux), counts[0] + 1, counts[0]))
    for r, t in enumerate(tableaux):
        Ab[r, : t.s, : t.s], Ab[r, -1, : t.s] = t.A, t.b
    return counts, Ab


def _step_plan(counts, Ab, q_n, room):
    """The step of the rows of the stack ``q_n`` (see :func:`_coefficients`),
    every operand bound once.  Stage ``i`` runs on the first ``width[i]``
    rows, those that have it.  ``room`` is ``(buffer, scratch, dt_cells)``:
    the step's states (stages 1..s-1, q_rk, shifted states 0..s-1, each on
    its rows) take consecutive blocks of ``buffer``, viewed as ``states``,
    the one stack the monitor reads; ``dt_cells`` holds the rows' ``dt``,
    spread over the cells of each row or as a ``(rows, 1, ...)`` column, and
    is None for the one ``dt`` of a single row.  ``stages[i]`` is ``(q_i,
    q^n, dt, shifted, cuts, terms)`` on its rows; its ``terms``, in the
    order of the stage ``k`` they go to (``k = s``: q_rk), are ``(prod, dt,
    a, dt_a, v, x, y, dest)``: ``prod = (dt a) R`` on the first ``n`` rows,
    ``R`` being the derivative (``v = 0``) or its prefix of ``cuts[v - 1]``
    rows, then ``dest = x + y``.  ``a`` is ``A[k, i]`` or ``b[i]``, a 0-d
    array when every row has the same, else a column; ``dt a`` is made in
    ``prod`` when ``dt_cells`` is spread, else in a column of its own.
    Without ``dt_cells``, the step makes its ``dt`` and every ``dt a`` in
    one multiply, ``coef * dt`` into ``dta`` (``coef`` is 1, then each
    term's ``a``), and a stage's ``dt`` and a term's ``dt_a`` are 0-d views
    of ``dta``: every constant operand of the step is then a 0-d array, and
    each product is the one IEEE multiply of a float ``dt * a``.  A stage's
    first term makes it ``q^n + prod`` in place, later ones add ``prod``
    from ``scratch``;
    q_rk, whose rows may differ in their terms, and a stage without terms
    start as copies of q^n.  ``take`` places the values of ``q^n`` and of
    ``states``, concatenated, into a ``(rows, 2s+1)`` layout: q^n, stages
    1..s-1, q_rk, shifted states 0..s-1.  A stage a row lacks would be q^n
    and takes stage 0's value, its shifted state shifted state 0's."""
    s, rows = int(counts[0]), len(counts)
    buffer, scratch, dt_cells = room
    width = np.count_nonzero(counts[:, None] > np.arange(s), axis=0).tolist()
    # Per coefficient (A[k, i], or b[i] at row -1 of Ab: rows may have left
    # since Ab was made, so s may be below its size), for every one at once:
    # whether a row has it nonzero (the rows that lack stage k or i have a
    # zero there), its value in row 0, and how many rows from row 0 on share
    # that value.
    nonzero, first = Ab.any(axis=0).tolist(), Ab[0].tolist()
    same = Ab == Ab[:1]
    shared = np.where(same.all(axis=0), rows, same.argmin(axis=0)).tolist()
    cut = lambda x, n: x if x is None or n == rows else x[:n]  # noqa: E731
    sizes = [rows] + width[1:] + [rows] + width  # q^n, stages 1.., q_rk, shifted
    starts = list(itertools.accumulate(sizes, initial=0))
    out = [buffer[a - rows : z - rows] for a, z in zip(starts[1:-1], starts[2:])]
    q_s = [q_n, *out[:s]]  # the stages, then q_rk
    fresh = [False] + [True] * (s - 1) + [False]
    cuts, terms = [[] for _ in range(s)], [[] for _ in range(s)]
    coef, dta = [1.0], None if dt_cells is not None else np.empty(1 + s * (s + 1) // 2)
    for i, k in itertools.combinations(range(s + 1), 2):
        n, at = (width[k], k) if k < s else (width[i], -1)  # b_i covers stage i's rows
        if not nonzero[at][i]:
            continue
        if n not in (width[i], *cuts[i]):
            cuts[i].append(n)
        dest = cut(q_s[k], n)
        prod = dest if fresh[k] else cut(scratch, n)
        if dta is not None:  # one row: dt a is made with its dt
            a, dt_k, dt_a = None, None, dta[len(coef), ...]
            coef.append(first[at][i])
        else:
            if shared[at][i] >= n:  # one coefficient
                a, dt_k = operand(first[at][i]), cut(dt_cells, n)
            else:  # a column, and so is dt a, from the rows' dt in dt_cells
                a = Ab[:n, at, i].reshape((-1,) + (1,) * (q_n.ndim - 1))
                dt_k = dt_cells[(slice(n),) + (slice(1),) * (q_n.ndim - 1)]
            dt_a = prod if dt_k.shape == prod.shape else np.empty(dt_k.shape)
        xy = (cut(q_n, n), dest) if fresh[k] else (dest, prod)
        terms[i].append((prod, dt_k, a, dt_a, (width[i], *cuts[i]).index(n), *xy, dest))
        fresh[k] = False
    copies = [(q_s[s], q_n)] + [(q_s[k], cut(q_n, width[k])) for k in range(1, s) if fresh[k]]
    dt_i = dt_cells if dta is None else dta[0, ...]
    stages = [(q_s[i], cut(q_n, n), cut(dt_i, n), out[s + i], cuts[i], terms[i]) for i, n in enumerate(width)]
    k = np.arange(rows)[:, None]
    home = [0] * s + [s] + [s + 1] * s  # the column a missing state copies
    take = k + np.where(k < sizes, starts[:-1], [starts[h] for h in home])
    plan = SimpleNamespace(s=s, q_rk=out[s - 1], dt_cells=dt_cells, copies=copies, stages=stages, take=take)
    plan.states, plan.rk_at = buffer[: starts[-1] - rows], starts[s] - rows
    plan.coef, plan.dta = (None, None) if dta is None else (np.array(coef), dta[: len(coef)])
    return plan


def run_batch(
    config: SimulationConfig,
    dt_factors,
    *,
    tableaux=None,
    early_stop: bool = False,
    record: bool = False,
) -> list[SimulationRecord]:
    """Advance one run of ``config`` per multiplier in ``dt_factors`` together.

    Every row starts from the same initial condition and takes
    ``dt = c * dt_FE(row)`` (``config.dt_factor`` is not used), truncated
    at the end to land exactly on ``t_final``.  A step's one stage-0
    kernel call, ``rhs_array(q, grid, with_dt_fe=True)``, gives every
    row's derivative R(q^n) with its dt_FE(q^n).  Row ``k`` steps with
    ``tableaux[k]`` (default: ``config.tableau`` for every row).  The rows'
    q^n and every state of a step live in one workspace allocated for the
    whole batch, and a step runs the plan :func:`_step_plan` binds to it,
    made again only when rows leave.  The monitor is evaluated on every
    stage solution, the step solution and every shifted state of every row,
    as one view of the workspace; stage 0 is q^n itself, so its value is
    the one carried over from the previous step.  A criterion violation is
    recorded (first-failure step per criterion) and the row continues.
    A row leaves the stack when it reaches ``t_final`` (within
    :data:`END_TIME_TOLERANCE`); when it aborts on a degenerate step size,
    on an inadmissible Euler stage or on the step budget
    (:data:`STEP_BUDGET_FACTOR`, :data:`MAX_RUN_STEPS`); or, with
    ``early_stop``, once both criteria have failed, which cannot change its
    verdict.  Kernels do not
    check admissibility: after each step the monitor's floor judges every
    Euler stage, and the abort reason names the first stage whose floor is
    not positive with the :func:`~rkstab.fields.admissibility_error` of its
    state.  An error that a kernel raises anyway propagates unchanged, at
    any batch size.  Returns each row's
    :class:`SimulationRecord`, in the order of ``dt_factors``, with its
    history and final field when ``record``.  An Euler initial field must
    have the scheme's ``gamma``.
    """
    scheme = config.scheme
    grid = config.grid
    is_euler = bool(getattr(scheme, "is_euler", False))
    monitor = config.monitor
    cs = [_dt_factor(c) for c in dt_factors]
    tableaux = [config.tableau] * len(cs) if tableaux is None else list(tableaux)
    if len(tableaux) != len(cs):
        raise ValueError("run_batch needs one tableau per row")
    if not cs:
        return []
    f0 = config.ic.build(grid)
    if is_euler and f0.gamma != scheme.gamma:
        raise ValueError(f"the initial field's gamma {f0.gamma!r} differs from the scheme's gamma {scheme.gamma!r}")
    q0 = f0.stack() if is_euler else f0.q
    v0 = state_values(monitor, grid, q0)  # G(q^0), or the floor of q^0
    # The constants of every step's ufunc calls, as 0-d arrays (see
    # fields.operand); positivity reads no slack.
    slack = operand(0.0 if monitor.tolerance is None else monitor.tolerance * max(1.0, abs(v0)))
    t_final = operand(config.t_final)
    t_eps = operand(END_TIME_TOLERANCE * max(1.0, config.t_final))
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    as_column = (-1,) + (1,) * q0.ndim  # per-row dt against a stack of states

    # Per stacked row, in descending stage count (a stable sort, kept when rows
    # leave): its index in dt_factors, multiplier, time, value of q^n, step
    # budget, and per criterion (step, shifted) whether and at which step it
    # first failed (-1: not yet).  All live rows have taken the same number of
    # steps.  By index in dt_factors: abort reasons, histories and records.
    live = np.array(sorted(range(len(cs)), key=lambda k: -tableaux[k].s))
    counts, Ab = _coefficients([tableaux[k] for k in live])
    c = np.array(cs)[live]
    t = np.zeros(len(cs))
    v_n = np.full(len(cs), v0)
    budget, first_over = np.zeros(len(cs)), 0  # set at step 0, then tested from the smallest on
    failed = np.zeros((len(cs), 2), dtype=bool)
    first_at = np.full((len(cs), 2), -1)
    reasons, records = {}, [None] * len(cs)
    history = [[] for _ in cs] if record else None
    step = 0
    # The workspace: q^n of the live rows (a prefix of q_rows), room for the
    # first step's states (rows only leave, so later steps need less), a
    # scratch state per row, and the rows' dt.  A product with a (rows, 1)
    # column runs one inner loop per row: short on a scalar stack, where dt
    # is spread over the cells of each row, and one of 3n cells on an Euler
    # stack, where it stays a column.
    q_rows = np.repeat(q0[None], len(cs), axis=0)
    buffer = np.empty((2 * int(counts.sum()),) + q0.shape)
    scratch = np.empty_like(q_rows)
    dt_cells = np.empty((len(cs),) + as_column[1:] if is_euler else q_rows.shape)

    def bind(m):
        return _step_plan(counts, Ab, q_rows[:m], (buffer, scratch[:m], dt_cells[:m] if m > 1 else None))

    q, plan = q_rows, bind(len(cs))

    def leave(keep, *extra):
        """Record the rows outside ``keep`` and drop them; return ``extra`` row
        arrays filtered alike."""
        nonlocal live, c, q, t, v_n, budget, failed, first_at, counts, Ab, plan
        for k in np.flatnonzero(~keep):
            r = live[k]
            kept = (history[r], q[k].copy()) if record else ()
            records[r] = _run_record(config, cs[r], step, first_at[k], reasons.get(r), *kept)
        live, c, t, v_n, budget, failed, first_at = (a[keep] for a in (live, c, t, v_n, budget, failed, first_at))
        counts, Ab = counts[keep], Ab[keep]
        q_rows[: live.size] = q[keep]  # the rows that stay move up
        q = q_rows[: live.size]
        if live.size:  # step with the rows that stay
            plan = bind(live.size)
        return [None if a is None else a[keep] for a in extra]

    # A mask is tested with count_nonzero, which costs a fraction of .all().
    # ``done`` marks, under early_stop, the rows that have failed both
    # criteria, made only after a step with a new failure: any row it marks
    # leaves at the top of the next step, so at other steps it marks none.
    done = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            remaining = t_final - t
            running = remaining > t_eps
            if done is not None:  # both criteria have failed: the verdict is final
                running &= ~done
                done = None
            if np.count_nonzero(running) < live.size:
                (remaining,) = leave(running, remaining)
                if not live.size:
                    break

            r0, dt = scheme.rhs_array(q, grid, with_dt_fe=True)  # stage 0's call, with q^n's step bound
            dt = np.minimum(c * dt, remaining)
            stay = dt > ZERO  # NaN is not
            if step == 0:  # a budget is at least 100 steps, or 0 for a run too long to take
                steps = np.ceil(t_final / dt)
                budget = np.where(steps <= MAX_RUN_STEPS, STEP_BUDGET_FACTOR * steps, 0.0)
            if step >= first_over:
                stay &= step < budget
                first_over = budget.min()
            if np.count_nonzero(stay) < live.size:
                for k in np.flatnonzero(~stay):
                    if dt[k] > 0.0:
                        reasons[live[k]] = "step_budget"
                    else:
                        cause = admissibility_error(q[k]) if is_euler else None
                        reasons[live[k]] = "degenerate_dt" if cause is None else f"degenerate_dt: {cause}"
                dt, r0 = leave(stay, dt, r0)
                if not live.size:
                    break

            # One row's (1,) dt goes to its plan as it is: the plan makes the
            # step's 0-d dt and dt a from it (see _step_plan).
            dt_rows = dt.reshape(as_column) if live.size > 1 else dt
            # This step's plan: an Euler leave() below binds a new one.
            s, states, q_rk = plan.s, plan.states, plan.q_rk
            first, r0 = [r0], None  # the step drops it once used
            rk_step_instrumented(plan, rhs, dt_rows, r0=first)

            # The value of every state of the step in the (rows, 2s+1) layout:
            # q^n, whose value carries over, then stages 1..s-1, the step
            # solution and the shifted states.  A recorded Euler run takes the
            # minima of q_rk for its history from the same pass.
            minima = ()
            if is_euler and record:
                values, minima = euler_state_floor(states, with_minima=True)
                minima = [m[plan.rk_at : plan.rk_at + live.size] for m in minima]
            else:
                values = state_values(monitor, grid, states)
            values = np.concatenate((v_n, values))[plan.take]
            if is_euler:
                # A stage whose floor is not positive is one the kernel may not see.
                admissible = values[:, :s] > ZERO
                if np.count_nonzero(admissible) < admissible.size:
                    inadmissible = ~admissible.all(axis=1)
                    for k in np.flatnonzero(inadmissible):
                        i = int(np.argmin(admissible[k]))
                        # Stage i of row k in the workspace; stage 0 is q^n.
                        at = plan.take[k, i] - live.size
                        cause = admissibility_error(q[k] if at < 0 else states[at])
                        reasons[live[k]] = f"RHS evaluation failed at stage {i}: {cause}"
                    dt, values, q_rk, *minima = leave(~inadmissible, dt, values, q_rk, *minima)
                    if not live.size:
                        break

            # Per row, the worst delta of the step family (q^n, the stages and
            # q_rk) and of the shifted family, and whether each fails; columns
            # 0 and 1 of ``failed``.
            worst, fail = judge(monitor, values, s, slack)
            v_n = values[:, s]
            t += dt
            if record:
                columns = (t, v_n, worst[:, 0], worst[:, 1], *minima)
                for k, r in enumerate(live.tolist()):
                    history[r].append(tuple(float(x[k]) for x in columns))
            new = fail > failed
            if np.count_nonzero(new):
                first_at[new] = step
                failed |= fail
                if early_stop:
                    done = failed[:, 0] & failed[:, 1]
            q[...] = q_rk  # q^{n+1} takes the place of q^n in the workspace
            step += 1
    return records


def simulate(config: SimulationConfig) -> SimulationRecord:
    """Advance the configured problem from t = 0 to t_final: the one-row case
    of :func:`run_batch` at ``config.dt_factor``, with the per-step history
    and final field.  The run does not stop at a criterion violation (when
    an Euler step solution lost positivity, the next step aborts it as a
    degenerate step, whose reason names the quantity and the first bad cell).
    """
    return run_batch(config, [config.dt_factor], record=True)[0]
