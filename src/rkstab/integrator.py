"""Instrumented explicit Runge-Kutta stepping and whole-run simulation.

A step records everything the stability analysis needs: the stage solutions
q^i, the stage derivatives R^j, and the shifted Euler states q^n + dt*R^j.
``simulate`` drives a full run with per-step adaptive step sizes, evaluates
the configured monitor on all recorded states every step, and reports where
(if anywhere) each criterion first failed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    ScalarField,
    euler_floor,
    require_admissible,
)
from .monitors import (
    Monitor,
    bind_scale,
    evaluate_functional,
    family_values,
    passes,
    worst_delta,
)
from .tableau import ButcherTableau

__all__ = [
    "StepFailedError",
    "StageTrace",
    "SimulationConfig",
    "RunVerdict",
    "SimulationRecord",
    "rk_step_instrumented",
    "modified_representation_stage",
    "modified_representation_solution",
    "simulate",
]


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

    ``rhs`` maps a state to its time derivative; states may be scalars or
    numpy arrays.  An RHS failure (``NonPhysicalStateError``) is re-raised
    as :class:`StepFailedError` carrying the stage index, which callers
    treat as a stability failure of the probed step size.
    """
    A, b, s = tableau.A, tableau.b, tableau.s
    stages = []
    derivs = []
    shifted = []
    for i in range(s):
        q_i = q_n
        for j in range(i):
            a = A[i, j]
            if a != 0.0:
                q_i = q_i + (dt * a) * derivs[j]
        stages.append(q_i)
        try:
            r_i = rhs(q_i)
        except NonPhysicalStateError as exc:
            raise StepFailedError(i, exc) from exc
        derivs.append(r_i)
        shifted.append(q_n + dt * r_i)
    q_rk = q_n
    for j in range(s):
        w = b[j]
        if w != 0.0:
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

    A run that aborts (non-physical state or degenerate step size) fails
    both criteria: neither can be certified through t_final.
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


def simulate(config: SimulationConfig, *, early_stop: bool = False, trace_callback=None) -> SimulationRecord:
    """Advance the configured problem from t = 0 to t_final.

    Monitor values for the step solution, every stage solution and every
    shifted state are recorded each step.  A criterion violation is recorded
    (first-failure step per criterion) but the run continues; only an RHS
    failure or a degenerate step size aborts it (when an Euler step solution
    lost positivity, the reason names the quantity and the first bad cell).
    With ``early_stop`` the run stops once both criteria have already
    failed, which cannot change the verdict (used by limit sweeps).
    ``trace_callback(step, t, trace)`` is invoked after each completed step.
    """
    scheme = config.scheme
    grid = config.grid
    tab = config.tableau
    is_euler = bool(getattr(scheme, "is_euler", False))
    f0 = config.ic.build(grid)
    q = f0.stack() if is_euler else f0.q

    monitor = config.monitor
    positivity = monitor.kind == "positivity"
    if positivity and not is_euler:
        raise ValueError("positivity monitor requires an Euler scheme")
    if not positivity:
        monitor = bind_scale(monitor, evaluate_functional(monitor, q, grid))

    times: list[float] = []
    g_step: list[float] = []
    stage_worst: list[float] = []
    shifted_worst: list[float] = []
    min_rho: list[float] = []
    min_rhoe: list[float] = []
    first_step_fail: int | None = None
    first_shift_fail: int | None = None
    aborted_step: int | None = None
    abort_reason: str | None = None

    t = 0.0
    step = 0
    t_eps = 1e-12 * max(1.0, config.t_final)
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while config.t_final - t > t_eps:
            dt = config.dt_factor * scheme.dt_fe_array(q, grid)
            if math.isnan(dt) or dt <= 0.0:
                aborted_step = step
                abort_reason = "degenerate_dt"
                if is_euler:
                    try:
                        require_admissible(q)
                    except NonPhysicalStateError as exc:
                        abort_reason += f": {exc}"
                break
            dt = min(dt, config.t_final - t)
            try:
                trace = rk_step_instrumented(tab, rhs, q, dt, grid, is_euler)
            except StepFailedError as exc:
                aborted_step = step
                abort_reason = str(exc)
                break

            ref, (v_step, v_shift) = family_values(
                monitor, grid, q, trace.stage_solutions + (trace.q_rk,), trace.shifted_states
            )
            worst_p = worst_delta(monitor, v_step - ref)
            worst_s = worst_delta(monitor, v_shift - ref)
            if positivity:
                mr, me, _ = euler_floor(trace.q_rk)
                min_rho.append(mr)
                min_rhoe.append(math.nan if me is None else me)

            t = t + dt
            times.append(t)
            g_step.append(float(v_step[-1]))
            stage_worst.append(worst_p)
            shifted_worst.append(worst_s)
            if first_step_fail is None and not passes(monitor, worst_p):
                first_step_fail = step
            if first_shift_fail is None and not passes(monitor, worst_s):
                first_shift_fail = step
            if trace_callback is not None:
                trace_callback(step, t, trace)
            q = trace.q_rk
            step += 1
            if early_stop and first_step_fail is not None and first_shift_fail is not None:
                break

    verdict = RunVerdict(
        step_pass=first_step_fail is None and aborted_step is None,
        shifted_pass=first_shift_fail is None and aborted_step is None,
        first_step_failure=first_step_fail,
        first_shifted_failure=first_shift_fail,
        aborted_step=aborted_step,
        abort_reason=abort_reason,
    )
    if is_euler:
        final_field = EulerField.from_stack(grid, q, scheme.gamma)
    else:
        final_field = ScalarField(grid, q)
    return SimulationRecord(
        times=np.array(times),
        monitor_step_values=np.array(g_step),
        monitor_stage_worst=np.array(stage_worst),
        monitor_shifted_worst=np.array(shifted_worst),
        min_rho=np.array(min_rho) if positivity else None,
        min_rhoe=np.array(min_rhoe) if positivity else None,
        final_field=final_field,
        verdict=verdict,
        n_steps=step,
        config=config,
    )
