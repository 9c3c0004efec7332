"""Stability criteria and their pass/fail logic on instrumented RK steps.

Three monitors: quadratic energy decay, total-variation non-increase, and
strict positivity of density and internal energy.  Each is applied to three
families of states from a single step: the stage solutions plus the step
result (the "step" criterion), and the shifted Euler states
q^n + dt * R^j (the "shifted" criterion).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import euler_floor, quadratic_energy_array, total_variation_array, tv_includes_wrap

__all__ = [
    "Monitor",
    "MonitorVerdict",
    "evaluate_functional",
    "euler_state_floor",
    "bind_scale",
    "family_values",
    "passes",
    "worst_delta",
    "check_step_criterion",
    "check_shifted_criterion",
    "positivity_of_trace",
]

MONITOR_KINDS = ("energy", "tv", "positivity")


@dataclass(frozen=True)
class Monitor:
    """A stability criterion with its comparison slack.

    For energy/tv, a candidate passes when G(candidate) - G(reference) does
    not exceed ``tolerance * scale``; ``scale`` is set to max(1, G(q^0)) at
    the start of a run so the roundoff slack tracks problem magnitude.
    Positivity ignores the tolerance entirely: a sign is a sign.
    """

    kind: str
    tolerance: float = 1e-12
    tv_wrap: bool | None = None  # None: follow the grid's boundary type
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in MONITOR_KINDS:
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    @property
    def slack(self) -> float:
        return self.tolerance * self.scale


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


def evaluate_functional(monitor: Monitor, state: np.ndarray, grid) -> float:
    """G(state) for the energy and tv monitors (positivity has no scalar G)."""
    if monitor.kind == "energy":
        return quadratic_energy_array(state)
    if monitor.kind == "tv":
        return total_variation_array(state, tv_includes_wrap(grid.boundary, monitor.tv_wrap))
    raise ValueError("positivity monitor does not define a scalar functional")


def euler_state_floor(U: np.ndarray) -> float:
    """min over cells of (rho, rho*e); only min(rho) when any rho <= 0.

    Positive return means the state is admissible.  NaN anywhere yields a
    non-passing value.
    """
    min_rho, min_rhoe, _ = euler_floor(U)
    if not min_rho > 0.0:
        return min_rho
    return min_rhoe if not min_rhoe >= min_rho else min_rho  # NaN propagates


def bind_scale(monitor: Monitor, g0: float) -> Monitor:
    """Attach the run's reference magnitude max(1, |G(q^0)|) to the slack."""
    return replace(monitor, scale=max(1.0, abs(g0)))


def family_values(monitor: Monitor, grid, q_n, *families):
    """The reference and the monitored value of every state of each family.

    For energy/tv the reference is G(q^n), evaluated once for all families,
    and a state's value is G(state); for positivity the reference is 0 and
    the value is the state floor.  A state's delta is value - reference.
    Returns ``(reference, [values array per family])``.
    """
    if monitor.kind == "positivity":
        return 0.0, [np.array([euler_state_floor(x) for x in fam]) for fam in families]
    g_n = evaluate_functional(monitor, q_n, grid)
    return g_n, [np.array([evaluate_functional(monitor, x, grid) for x in fam]) for fam in families]


def passes(monitor: Monitor, delta):
    """The per-state rule: delta <= slack for energy/tv, delta > 0 for
    positivity.  NaN never passes."""
    if monitor.kind == "positivity":
        return delta > 0.0
    return delta <= monitor.slack


def worst_delta(monitor: Monitor, deltas: np.ndarray) -> float:
    """The most-violating delta of a family (NaN if any delta is NaN).

    The family passes exactly when this value passes.
    """
    return float(np.min(deltas) if monitor.kind == "positivity" else np.max(deltas))


def _verdicts(monitor: Monitor, trace, labelled) -> list[MonitorVerdict]:
    ref, (values,) = family_values(monitor, trace.grid, trace.q_n, [x for _, _, x in labelled])
    return [
        MonitorVerdict(bool(passes(monitor, d)), float(d), where, index)
        for (where, index, _), d in zip(labelled, values - ref)
    ]


def _step_states(trace):
    states = [("stage", i, q) for i, q in enumerate(trace.stage_solutions)]
    states.append(("step", None, trace.q_rk))
    return states


def _shifted_states(trace):
    return [("shifted", j, q) for j, q in enumerate(trace.shifted_states)]


def check_step_criterion(monitor: Monitor, trace) -> list[MonitorVerdict]:
    """Verdicts for every stage solution plus the step solution.

    All of them passing (within slack) is the per-step requirement behind
    the practical coefficient c^p.
    """
    return _verdicts(monitor, trace, _step_states(trace))


def check_shifted_criterion(monitor: Monitor, trace) -> list[MonitorVerdict]:
    """Verdicts for the shifted Euler states q^n + dt*R^j, j = 1..s.

    All of them passing is the per-step requirement behind c^s.
    """
    return _verdicts(monitor, trace, _shifted_states(trace))


def positivity_of_trace(trace) -> list[MonitorVerdict]:
    """Strict positivity of every state in the trace: stages, step, shifted."""
    return _verdicts(Monitor(kind="positivity"), trace, _step_states(trace) + _shifted_states(trace))
