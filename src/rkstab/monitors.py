"""Stability criteria and their pass/fail logic on the states of RK steps.

Three monitors: quadratic energy decay, total-variation non-increase, and
strict positivity of density and internal energy.  Each is applied to two
families of states from a single step: the stage solutions plus the step
result (the "step" criterion), and the shifted Euler states
q^n + dt * R^j (the "shifted" criterion).  The functions here judge a
stack of states at once: ``state_values`` gives each state's value,
``step_deltas`` its delta from q^n, ``passes`` the per-state rule and
``family_worst`` the worst delta of each family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    euler_minima,
    per_row,
    quadratic_energy_array,
    require_number,
    total_variation_array,
    tv_includes_wrap,
)

__all__ = [
    "Monitor",
    "evaluate_functional",
    "euler_state_floor",
    "state_values",
    "bind_scale",
    "step_deltas",
    "passes",
    "family_worst",
]

MONITOR_KINDS = ("energy", "tv", "positivity")


@dataclass(frozen=True)
class Monitor:
    """A stability criterion with its comparison slack.

    For energy/tv, a candidate passes when G(candidate) - G(reference) does
    not exceed ``tolerance * scale``; ``scale`` is set to max(1, |G(q^0)|) at
    the start of a run so the roundoff slack tracks problem magnitude.
    Positivity ignores the tolerance and the scale: a sign is a sign.
    """

    kind: str
    tolerance: float = 1e-12
    tv_wrap: bool | None = None  # None: follow the grid's boundary type
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in MONITOR_KINDS:
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        require_number("tolerance", self.tolerance)
        # NaN slack would fail every comparison, and +inf pass every one.
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"tolerance must be non-negative and finite, got {self.tolerance!r}")
        if self.tv_wrap is not None and not isinstance(self.tv_wrap, bool):  # "no" would turn it on
            raise ValueError(f"tv_wrap must be None or a bool, got {self.tv_wrap!r}")

    @property
    def slack(self) -> float:
        return self.tolerance * self.scale


def evaluate_functional(monitor: Monitor, state: np.ndarray, grid):
    """G(state) for the energy and tv monitors (positivity has no scalar G).

    ``state`` may be a stack ``(..., n)``: one value per leading index, a
    float for a single state.
    """
    if monitor.kind == "energy":
        return quadratic_energy_array(state)
    if monitor.kind == "tv":
        return total_variation_array(state, tv_includes_wrap(grid.boundary, monitor.tv_wrap))
    raise ValueError("positivity monitor does not define a scalar functional")


def euler_state_floor(U: np.ndarray, *, with_minima: bool = False):
    """min over cells of (rho, rho*e); only min(rho) when any rho <= 0.

    Positive return means the state is admissible.  NaN anywhere yields a
    non-passing value.  ``U`` may be a stack ``(..., 3, n)``: one floor per
    leading index, a float for a single state.  ``with_minima`` returns
    ``(floor, (min_rho, min_rhoe))``, the :func:`euler_minima` it came from.
    """
    minima = min_rho, min_rhoe = euler_minima(U)
    # NaN propagates through the comparison and the minimum
    floor = per_row(np.where(min_rho > 0.0, np.minimum(min_rho, min_rhoe), min_rho))
    return (floor, minima) if with_minima else floor


def state_values(monitor: Monitor, grid, states: np.ndarray):
    """The monitored value of each state of a stack: G(state) for energy/tv,
    the state floor for positivity (a float for a single state)."""
    if monitor.kind == "positivity":
        return euler_state_floor(states)
    return evaluate_functional(monitor, states, grid)


def bind_scale(monitor: Monitor, g0: float) -> Monitor:
    """Attach the run's reference magnitude max(1, |G(q^0)|) to the slack."""
    return replace(monitor, scale=max(1.0, abs(g0)))


def step_deltas(monitor: Monitor, values):
    """Every state's delta from the values of a step's states, the first of
    which (``values[..., 0]``) is that of q^n: value - G(q^n) for energy/tv,
    the floor itself (the reference is 0) for positivity."""
    return values if monitor.kind == "positivity" else values - values[..., :1]


def passes(monitor: Monitor, delta):
    """The per-state rule: delta <= slack for energy/tv, delta > 0 for
    positivity.  NaN never passes."""
    if monitor.kind == "positivity":
        return delta > 0.0
    return delta <= monitor.slack


def family_worst(monitor: Monitor, deltas: np.ndarray, s: int) -> np.ndarray:
    """The most-violating delta (NaN if any is NaN) of each row's step family,
    columns 0..s of ``deltas`` (q^n, the stages and the step solution), and of
    its shifted family, columns s+1..2s: a ``(rows, 2)`` array.

    A family passes exactly when this value passes.
    """
    reduce = np.minimum if monitor.kind == "positivity" else np.maximum
    return reduce.reduceat(deltas, (0, s + 1), axis=1)
