"""Experiment presets: the four benchmark problems, each as its default run.

A preset is the :class:`SimulationConfig` of its problem's default run (rk44
at dt_factor 1): the spatial scheme, grid, initial condition, stability
monitor and final time.  :func:`preset_config` replaces the RK scheme, the
step-size multiplier and any override in it.  The two Burgers
finite-difference problems place unknowns at nodes x_min + i*dx (so the sine
extrema fall exactly on the grid); the MUSCL and Euler problems use cell
centers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import Dirichlet, EulerField, Grid1D, Outflow, Periodic, ScalarField
from .integrator import SimulationConfig
from .monitors import Monitor
from .spatial import DissipativeBurgers, LaxFriedrichsEuler, MusclBurgers, UpwindBurgers
from .tableau import builtin_scheme

__all__ = [
    "GaussianPulse",
    "SinePerturbation",
    "StepFunction",
    "RiemannInitialCondition",
    "PRESET_IDS",
    "preset_config",
]


# ---------------------------------------------------------------------------
# initial conditions

@dataclass(frozen=True)
class GaussianPulse:
    """q(x, 0) = exp(-decay * x^2)."""

    decay: float = 30.0

    def build(self, grid: Grid1D) -> ScalarField:
        x = grid.points()
        return ScalarField(grid, np.exp(-self.decay * x * x))


@dataclass(frozen=True)
class SinePerturbation:
    """q(x, 0) = mean - amplitude * sin(pi x)."""

    mean: float = 0.5
    amplitude: float = 0.25

    def build(self, grid: Grid1D) -> ScalarField:
        x = grid.points()
        return ScalarField(grid, self.mean - self.amplitude * np.sin(np.pi * x))


@dataclass(frozen=True)
class StepFunction:
    """q = left for x <= x0, right beyond."""

    left: float = 1.0
    right: float = -0.5
    x0: float = 0.0

    def build(self, grid: Grid1D) -> ScalarField:
        x = grid.points()
        return ScalarField(grid, np.where(x <= self.x0, self.left, self.right))


@dataclass(frozen=True)
class RiemannInitialCondition:
    """Two constant primitive states (rho, u, p) split at x0; left for x < x0."""

    left: tuple[float, float, float]
    right: tuple[float, float, float]
    x0: float
    gamma: float

    def build(self, grid: Grid1D) -> EulerField:
        x = grid.points()
        is_left = x < self.x0
        rho = np.where(is_left, self.left[0], self.right[0])
        u = np.where(is_left, self.left[1], self.right[1])
        p = np.where(is_left, self.left[2], self.right[2])
        m = rho * u
        E = p / (self.gamma - 1.0) + 0.5 * rho * u * u
        return EulerField(grid, rho, m, E, self.gamma)


# ---------------------------------------------------------------------------
# presets: each is its problem's default run, rk44 at dt_factor 1

_LEBLANC_GAMMA = 5.0 / 3.0


def _default_run(scheme, grid: Grid1D, ic, monitor_kind: str, t_final: float) -> SimulationConfig:
    return SimulationConfig(scheme, builtin_scheme("rk44"), grid, ic, t_final, 1.0, Monitor(monitor_kind))


_PRESETS = {
    # Grid resolution and final time are not pinned by the experiment's
    # definition.  The energy-decay margin of a forward Euler step at dt_FE
    # requires dx >= ~0.037 (2*mu*sum(dq^2) >= 0.006*dx*sum(R^2) fails on
    # finer grids already at the initial data), so 50 cells; T = 1 then
    # gives ~4k steps at dt_factor 1 and covers shock formation.
    "dissipative": _default_run(
        DissipativeBurgers(mu=1e-3),
        Grid1D(n_cells=50, x_min=-1.0, x_max=1.0, boundary=Periodic(), sampling="node"),
        GaussianPulse(decay=30.0),
        "energy",
        1.0,
    ),
    "upwind": _default_run(
        UpwindBurgers(),
        Grid1D(n_cells=100, x_min=0.0, x_max=2.0, boundary=Periodic(), sampling="node"),  # dx = 0.02
        SinePerturbation(mean=0.5, amplitude=0.25),
        "tv",
        3.0,
    ),
    "muscl2": _default_run(
        MusclBurgers(),
        Grid1D(n_cells=80, x_min=-10.0, x_max=70.0, boundary=Dirichlet(1.0, -0.5), sampling="center"),  # dx = 1
        StepFunction(left=1.0, right=-0.5, x0=0.0),
        "tv",
        200.0,
    ),
    "leblanc_n2": _default_run(
        LaxFriedrichsEuler(gamma=_LEBLANC_GAMMA),  # local; lf="global" replaces it
        Grid1D(n_cells=600, x_min=0.0, x_max=1.0, boundary=Outflow(), sampling="center"),
        RiemannInitialCondition(
            left=(1.0, 0.0, (_LEBLANC_GAMMA - 1.0) * 0.1),
            right=(1e-3, 0.0, (_LEBLANC_GAMMA - 1.0) * 1e-10),
            x0=0.33,
            gamma=_LEBLANC_GAMMA,
        ),
        "positivity",
        2.0 / 3.0,
    ),
}

PRESET_IDS = tuple(_PRESETS)


def preset_config(
    preset_id: str, scheme_id: str = "rk44", dt_factor: float = 1.0, *, n_cells: int | None = None,
    t_final: float | None = None, tolerance: float | None = None, monitor_kind: str | None = None,
    tv_wrap: bool | None = None, lf: str = "local",
) -> SimulationConfig:
    """The preset's default run with ``scheme_id`` at ``dt_factor``.

    Each override replaces one value of it, and None keeps it: ``n_cells`` the grid's cell count, ``t_final``,
    ``lf="global"`` the Lax-Friedrichs scheme's ``local``, and ``monitor_kind``, ``tolerance`` (energy and tv
    monitors only) and ``tv_wrap`` (tv monitor only) the monitor's fields.
    """
    if not isinstance(preset_id, str) or preset_id not in _PRESETS:
        raise ValueError(f"unknown experiment {preset_id!r}; valid ids: {', '.join(PRESET_IDS)}")
    default = _PRESETS[preset_id]
    if lf not in ("local", "global"):
        raise ValueError(f"lf must be 'local' or 'global', got {lf!r}")
    scheme = default.scheme
    if lf == "global":
        if not isinstance(scheme, LaxFriedrichsEuler):  # flags that would do nothing are errors
            raise ValueError(f"lf='global' needs a Lax-Friedrichs preset; {preset_id!r} is {type(scheme).__name__}")
        scheme = replace(scheme, local=False)
    # Every preset's monitor takes the defaults of its kind.
    monitor = Monitor(default.monitor.kind if monitor_kind is None else monitor_kind, tolerance, tv_wrap)
    grid = default.grid if n_cells is None else replace(default.grid, n_cells=n_cells)
    return replace(
        default,
        scheme=scheme,
        tableau=builtin_scheme(scheme_id),
        grid=grid,
        t_final=t_final if t_final is not None else default.t_final,
        dt_factor=dt_factor,
        monitor=monitor,
    )
