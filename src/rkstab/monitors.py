"""Stability criteria and their pass/fail logic on the states of RK steps.

Three monitors: quadratic energy decay, total-variation non-increase, and
strict positivity of density and internal energy.  Each is applied to two
families of states from a single step: the stage solutions plus the step
result (the "step" criterion), and the shifted Euler states
q^n + dt * R^j (the "shifted" criterion).  The functions here judge a
stack of states at once: ``state_values`` gives each state's value and
``judge`` the worst delta of each family and whether it fails, by the
monitor's rule in :data:`RULES`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
    "RULES",
    "evaluate_functional",
    "euler_state_floor",
    "state_values",
    "judge",
]


class Rule(NamedTuple):
    """How a monitor kind judges the values of a step's states."""

    relative: bool  # a delta is value - value(q^n); else the value itself
    worst: np.ufunc  # a family's most-violating delta: np.maximum or np.minimum
    bounded: bool  # a state passes when its delta is <= slack; else when > 0
    euler: bool  # the kind judges Euler states; else scalar ones


#: The rule of every monitor kind.  It holds no value function: the values
#: come from :func:`state_values`, which calls ``evaluate_functional`` and
#: ``euler_state_floor`` through this module's globals, where
#: ``perfbench/tracing.py`` wraps them by name.
RULES = {
    "energy": Rule(relative=True, worst=np.maximum, bounded=True, euler=False),
    "tv": Rule(relative=True, worst=np.maximum, bounded=True, euler=False),
    "positivity": Rule(relative=False, worst=np.minimum, bounded=False, euler=True),
}


@dataclass(frozen=True)
class Monitor:
    """A stability criterion with its comparison tolerance.

    For energy/tv, a candidate passes when G(candidate) - G(q^n) does not
    exceed the run's slack, ``tolerance * max(1, |G(q^0)|)`` (tolerance 1e-12
    by default), so that the roundoff slack tracks problem magnitude.
    Positivity reads no tolerance (a sign is a sign): one given to it is an
    error.  TV counts the wrap pair on periodic grids only (see
    :func:`~rkstab.fields.tv_includes_wrap`).
    """

    kind: str
    tolerance: float | None = None  # None: 1e-12 for energy and tv

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in RULES:
            raise ValueError(f"unknown monitor kind {self.kind!r}")
        if self.tolerance is not None:
            require_number("tolerance", self.tolerance)
            # NaN slack would fail every comparison, and +inf pass every one.
            if not 0 <= self.tolerance < math.inf:
                raise ValueError(f"tolerance must be non-negative and finite, got {self.tolerance!r}")
            if not RULES[self.kind].relative:
                raise ValueError(f"tolerance applies to the energy and tv monitors only, not to {self.kind!r}")
        elif RULES[self.kind].relative:
            object.__setattr__(self, "tolerance", 1e-12)


def evaluate_functional(monitor: Monitor, state: np.ndarray, grid):
    """G(state) for the energy and tv monitors (positivity has no scalar G).

    ``state`` may be a stack ``(..., n)``: one value per leading index, a
    float for a single state.
    """
    if monitor.kind == "energy":
        return quadratic_energy_array(state)
    if monitor.kind == "tv":
        return total_variation_array(state, tv_includes_wrap(grid.boundary))
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
    if RULES[monitor.kind].euler:
        return euler_state_floor(states)
    return evaluate_functional(monitor, states, grid)


def judge(monitor: Monitor, values: np.ndarray, s: int, slack: float):
    """The worst delta of each family of each row's step, and whether it fails.

    ``values`` holds the values of every row's states in a ``(rows, 2s+1)``
    layout: q^n, stages 1..s-1 and the step solution (the step family,
    columns 0..s), then the shifted states (columns s+1..2s).  A delta is
    value - G(q^n) for energy/tv and the floor itself for positivity.  Returns
    ``(worst, fail)``, two ``(rows, 2)`` arrays: each family's most-violating
    delta (NaN if any is NaN) and whether it fails, ``not worst <= slack``
    for energy/tv and ``not worst > 0`` for positivity.  A family passes
    exactly when its worst delta passes, and NaN never passes.
    """
    rule = RULES[monitor.kind]
    deltas = values - values[:, :1] if rule.relative else values
    worst = rule.worst.reduceat(deltas, (0, s + 1), axis=1)
    return worst, ~(worst <= slack if rule.bounded else worst > 0.0)
