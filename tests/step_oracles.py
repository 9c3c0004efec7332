"""Step-level oracles: traced steps and runs, per-state verdicts, field-level kernels.

``traced_step`` runs the library's own step plan (``integrator._step_plan``
and ``integrator.rk_step_instrumented``) on fresh arrays and keeps every
stage quantity of the step in a :class:`StageTrace`.  ``traced_run`` steps a
whole run with it from the initial condition, as ``simulate`` does, so its
traces hold the states the product's stepping loop monitors (a test pins
the two together).  ``check_step_criterion`` and ``check_shifted_criterion``
judge a trace state by state through the monitor rules of
``rkstab.monitors``; ``modified_representation_stage`` rebuilds a stage as
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
from rkstab.monitors import euler_state_floor, passes, state_values, step_deltas
from rkstab.spatial import DissipativeBurgers, LaxFriedrichsEuler, MusclBurgers, UpwindBurgers, _max_wavespeed


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
    run on fresh arrays, with the derivatives kept by wrapping ``rhs``.

    ``dt`` may be an array broadcasting against ``q_n`` (one step size per
    row of a stack); it is then spread over the cells, as a sweep spreads it
    over a scalar stack.  ``r0`` is ``rhs(q_n)`` when the caller has it.
    """
    derivs = [] if r0 is None else [r0]

    def keep(q):
        derivs.append(rhs(q))
        return derivs[-1]

    room = (None, np.empty_like(q_n, dtype=float), np.empty_like(q_n, dtype=float) if np.ndim(dt) else None)
    plan = integrator._step_plan(*integrator._coefficients([tableau]), q_n, room)
    integrator.rk_step_instrumented(plan, keep, dt, r0=None if r0 is None else [r0])
    return StageTrace(
        q_n=q_n,
        dt=dt,
        stage_solutions=tuple(stage[0] for stage in plan.stages),
        stage_derivatives=tuple(derivs),
        shifted_states=tuple(plan.out[plan.s :]),
        q_rk=plan.q_rk,
        grid=grid,
    )


def traced_run(cfg):
    """Yield the trace of every step of ``simulate(cfg)``.

    Each step is a :func:`traced_step` from the last one's ``q_rk`` at
    ``dt = min(c * dt_FE(q), t_final - t)``, the bound taken from the
    stage-0 kernel call when the scheme gives it there.  The run ends as
    ``simulate``'s does: within ``END_TIME_TOLERANCE`` of ``t_final``, or
    with no further trace when a step size is not positive, the step budget
    is spent, or a stage of an Euler step is inadmissible (that step is not
    yielded).
    """
    scheme, grid, t_final = cfg.scheme, cfg.grid, cfg.t_final
    f0 = cfg.ic.build(grid)
    q = f0.stack() if scheme.is_euler else f0.q
    fused = getattr(scheme, "rhs_gives_dt_fe", False)
    rhs = lambda state: scheme.rhs_array(state, grid)  # noqa: E731
    t, t_eps, step = 0.0, integrator.END_TIME_TOLERANCE * max(1.0, t_final), 0
    while t_final - t > t_eps:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # as the stepping loop runs
            r0, dt_fe = scheme.rhs_array(q, grid, with_dt_fe=True) if fused else (None, scheme.dt_fe_array(q, grid))
            dt = cfg.dt_factor * dt_fe
            if not dt > 0.0:
                return
            dt = min(dt, t_final - t)
            if step == 0:
                budget = integrator.STEP_BUDGET_FACTOR * math.ceil(t_final / dt)
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


def _verdicts(monitor, trace, labelled) -> list[MonitorVerdict]:
    values = state_values(monitor, trace.grid, np.stack([trace.q_n] + [x for _, _, x in labelled]))
    return [
        MonitorVerdict(bool(passes(monitor, d)), float(d), where, index)
        for (where, index, _), d in zip(labelled, step_deltas(monitor, values)[1:])
    ]


def check_step_criterion(monitor, trace) -> list[MonitorVerdict]:
    """Verdicts for every stage solution plus the step solution.

    All of them passing (within slack) is the per-step requirement behind
    the practical coefficient c^p.
    """
    states = [("stage", i, q) for i, q in enumerate(trace.stage_solutions)]
    return _verdicts(monitor, trace, states + [("step", None, trace.q_rk)])


def check_shifted_criterion(monitor, trace) -> list[MonitorVerdict]:
    """Verdicts for the shifted Euler states q^n + dt*R^j, j = 1..s.

    All of them passing is the per-step requirement behind c^s.
    """
    return _verdicts(monitor, trace, [("shifted", j, q) for j, q in enumerate(trace.shifted_states)])


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
    return EulerField.from_stack(f.grid, R, f.gamma), _max_wavespeed(U, f.gamma)
