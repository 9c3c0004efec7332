"""Step-level oracles: traced steps and runs, per-state verdicts, field-level kernels.

``traced_step`` runs the library's own step plan (``integrator._step_plan``
and ``integrator.rk_step_instrumented``) in a workspace of its own and
keeps every stage quantity of the step in a :class:`StageTrace`.
``traced_run`` steps a whole run with it from the initial condition, as
``simulate`` does, so its traces hold the states the product's stepping
loop monitors (a test pins the two together).  ``check_step_criterion`` and
``check_shifted_criterion`` judge a trace state by state with rules of
their own, apart from ``rkstab.monitors``: G from the functionals of
``rkstab.fields``, the positivity floor from
``kernel_oracles.euler_minima_per_cell``, and a slack given as a number
(``run_slack`` makes a run's) compared in Python floats.  ``modified_representation_stage`` rebuilds a stage as
the convex combination of q^n and the shifted states.  The field-level
``rhs_*``, ``total_variation`` and ``quadratic_energy`` apply the library's
array kernels and functionals to field objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import rkstab.integrator as integrator
from rkstab.fields import (
    EulerField,
    Grid1D,
    ScalarField,
    admissibility_error,
    quadratic_energy_array,
    total_variation_array,
    tv_includes_wrap,
)
from rkstab.monitors import euler_state_floor
from rkstab.spatial import DissipativeBurgers, LaxFriedrichsEuler, MusclBurgers, UpwindBurgers

from kernel_oracles import _primitive_parts, euler_minima_per_cell


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


def traced_step(tableau, rhs, q_n, dt, grid=None, *, r0=None) -> StageTrace:
    """One step of ``tableau`` from ``q_n``: the plan of ``integrator._step_plan``
    run in a workspace of its own, as the one row of a stack, with the
    derivatives kept by wrapping ``rhs``.

    ``dt`` may be an array broadcasting against ``q_n`` (one step size per
    row of a stack); it is then spread over the cells, as a sweep spreads it
    over a scalar stack.  ``r0`` is ``rhs(q_n)`` when the caller has it.
    """
    derivs = [] if r0 is None else [r0]

    def keep(q):  # the kernel sees a state of q_n's shape, not the one-row stack
        derivs.append(rhs(q[0]))
        return derivs[-1]

    q = q_n[None]
    dt_cells = np.empty_like(q, dtype=float) if np.ndim(dt) else None
    room = (np.empty((2 * tableau.s,) + q_n.shape), np.empty_like(q, dtype=float), dt_cells)
    plan = integrator._step_plan(*integrator._coefficients([tableau]), q, room)
    integrator.rk_step_instrumented(plan, keep, dt, r0=None if r0 is None else [r0])
    # The row's states in the order of plan.take: stages 1..s-1, q_rk, shifted states.
    states = plan.states[plan.take[0, 1:] - 1]
    s = plan.s
    return StageTrace(
        q_n=q_n,
        dt=dt,
        stage_solutions=(q_n, *states[: s - 1]),
        stage_derivatives=tuple(derivs),
        shifted_states=tuple(states[s:]),
        q_rk=states[s - 1],
        grid=grid,
    )


def traced_run(cfg):
    """Yield the trace of every step of ``simulate(cfg)``.

    Each step is a :func:`traced_step` from the last one's ``q_rk`` at
    ``dt = min(c * dt_FE(q), t_final - t)``, the derivative and the bound
    taken from one stage-0 kernel call.  The run ends as ``simulate``'s
    does: within ``END_TIME_TOLERANCE`` of ``t_final``, or with no further
    trace when a step size is not positive, the first step implies more
    than ``MAX_RUN_STEPS`` steps, the step budget is spent, or a stage of an
    Euler step is inadmissible (that step is not yielded).
    """
    scheme, grid, t_final = cfg.scheme, cfg.grid, cfg.t_final
    f0 = cfg.ic.build(grid)
    q = f0.stack() if scheme.is_euler else f0.q
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    t, t_eps, step = 0.0, integrator.END_TIME_TOLERANCE * max(1.0, t_final), 0
    while t_final - t > t_eps:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as the stepping loop runs
            r0, dt_fe = scheme.rhs_array(q, grid, with_dt_fe=True)
            dt = cfg.dt_factor * dt_fe
            if not dt > 0.0:
                return
            dt = min(dt, t_final - t)
            if step == 0:
                steps = t_final / dt  # its ceiling is at most MAX_RUN_STEPS when it is
                budget = integrator.STEP_BUDGET_FACTOR * math.ceil(steps) if steps <= integrator.MAX_RUN_STEPS else 0
            if step >= budget:
                return
            trace = traced_step(cfg.tableau, rhs, q, dt, grid, r0=r0)
            if scheme.is_euler and not all(euler_state_floor(x) > 0.0 for x in trace.stage_solutions):
                return
        yield trace
        t += dt
        q = trace.q_rk
        step += 1


def modified_representation_stage(tableau, trace: StageTrace, stage: int):
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
class MonitorVerdict:
    """Outcome for one monitored state.

    ``delta`` is G(candidate) - G(reference) for energy/tv and the state
    floor min(rho, rho*e) for positivity.  ``where`` is "stage", "shifted"
    or "step"; ``index`` is the 0-based stage index when applicable.
    """

    passed: bool
    delta: float
    where: str
    index: int | None = None


def _value(monitor, grid, state) -> float:
    """G(state) for energy and tv, from the functionals of ``rkstab.fields``;
    for positivity the state floor, from ``kernel_oracles.euler_minima_per_cell``:
    min(rho, rho*e), only min(rho) when some rho <= 0, NaN when either is."""
    if monitor.kind == "energy":
        return float(quadratic_energy_array(state))
    if monitor.kind == "tv":
        return float(total_variation_array(state, tv_includes_wrap(grid.boundary, monitor.tv_wrap)))
    min_rho, min_rhoe = euler_minima_per_cell(state)
    if math.isnan(min_rho) or not min_rho > 0.0:
        return min_rho
    return math.nan if math.isnan(min_rhoe) else min(min_rho, min_rhoe)


def run_slack(cfg) -> float:
    """The slack of a run of ``cfg``: ``tolerance * max(1, |G(q^0)|)``, G
    taken as :func:`_value` takes it (positivity reads no slack)."""
    if cfg.monitor.tolerance is None:
        return 0.0
    f0 = cfg.ic.build(cfg.grid)
    q0 = f0.stack() if cfg.scheme.is_euler else f0.q
    return cfg.monitor.tolerance * max(1.0, abs(_value(cfg.monitor, cfg.grid, q0)))


def _verdicts(monitor, trace, labelled, slack) -> list[MonitorVerdict]:
    """Each state's delta and verdict by the monitor's rule: the rise of G
    over G(q^n) at most ``slack`` for energy and tv, a positive floor for
    positivity.  NaN never passes."""
    positivity = monitor.kind == "positivity"
    reference = 0.0 if positivity else _value(monitor, trace.grid, trace.q_n)
    verdicts = []
    for where, index, state in labelled:
        delta = _value(monitor, trace.grid, state) - reference
        passed = delta > 0.0 if positivity else delta <= slack
        verdicts.append(MonitorVerdict(passed, delta, where, index))
    return verdicts


def check_step_criterion(monitor, trace, slack: float = 0.0) -> list[MonitorVerdict]:
    """Verdicts for every stage solution plus the step solution.

    All of them passing (within ``slack``) is the per-step requirement
    behind the practical coefficient c^p.
    """
    states = [("stage", i, q) for i, q in enumerate(trace.stage_solutions)]
    return _verdicts(monitor, trace, states + [("step", None, trace.q_rk)], slack)


def check_shifted_criterion(monitor, trace, slack: float = 0.0) -> list[MonitorVerdict]:
    """Verdicts for the shifted Euler states q^n + dt*R^j, j = 1..s.

    All of them passing is the per-step requirement behind c^s.
    """
    return _verdicts(monitor, trace, [("shifted", j, q) for j, q in enumerate(trace.shifted_states)], slack)


def total_variation(f: ScalarField, include_wrap: bool | None = None) -> float:
    """Total variation of a field; see ``tv_includes_wrap`` for the wrap pair."""
    return total_variation_array(f.q, tv_includes_wrap(f.grid.boundary, include_wrap))


def quadratic_energy(f: ScalarField) -> float:
    """0.5 * sum(q_i^2)."""
    return quadratic_energy_array(f.q)


def require_admissible(U) -> None:
    """Raise the ``admissibility_error`` of ``U``, if it has one."""
    error = admissibility_error(U)
    if error is not None:
        raise error


def rhs_dissipative_burgers(f: ScalarField, mu: float) -> ScalarField:
    """RHS of the energy-dissipative Burgers discretization (periodic only)."""
    return ScalarField(f.grid, DissipativeBurgers(mu).rhs_array(f.q, f.grid))


def rhs_upwind_burgers(f: ScalarField) -> ScalarField:
    """RHS of the first-order upwind Burgers discretization (periodic only)."""
    return ScalarField(f.grid, UpwindBurgers().rhs_array(f.q, f.grid))


def rhs_muscl_burgers(f: ScalarField) -> ScalarField:
    """RHS of the minmod MUSCL Burgers discretization.

    Dirichlet grids use two ghost cells per side frozen at the boundary
    states; outflow is not supported.
    """
    return ScalarField(f.grid, MusclBurgers().rhs_array(f.q, f.grid))


def rhs_llf_euler(f: EulerField, local: bool = True):
    """RHS of the Lax-Friedrichs Euler discretization plus max wavespeed.

    The input field must be admissible; a non-positive density or internal
    energy raises ``NonPhysicalStateError`` naming the first bad cell.
    """
    U = f.stack()
    require_admissible(U)
    R = LaxFriedrichsEuler(f.gamma, local).rhs_array(U, f.grid)
    return EulerField.from_stack(f.grid, R, f.gamma), float(np.max(_primitive_parts(U, f.gamma)[2]))
