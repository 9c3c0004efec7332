"""Experiment presets: the four benchmark problems and their configurations.

Each preset fixes the domain, grid sampling convention, initial condition,
spatial scheme and stability monitor; the RK scheme and the step-size
multiplier are chosen per run.  The two Burgers finite-difference problems
place unknowns at nodes x_min + i*dx (so the sine extrema fall exactly on
the grid); the MUSCL and Euler problems use cell centers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Dirichlet, EulerField, Grid1D, Outflow, Periodic, ScalarField
from .integrator import SimulationConfig
from .monitors import Monitor
from .spatial import (
    DissipativeBurgers,
    LaxFriedrichsEuler,
    MusclBurgers,
    UpwindBurgers,
)
from .tableau import builtin_scheme

__all__ = [
    "GaussianPulse",
    "SinePerturbation",
    "StepFunction",
    "RiemannInitialCondition",
    "ExperimentPreset",
    "PRESET_IDS",
    "experiment_preset",
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
# presets

_LEBLANC_GAMMA = 5.0 / 3.0


@dataclass(frozen=True)
class ExperimentPreset:
    """Defining data of one benchmark problem."""

    id: str
    x_min: float
    x_max: float
    default_n_cells: int
    boundary: object
    sampling: str
    ic: object
    monitor_kind: str
    default_t_final: float
    scheme_kind: str  # "dissipative" | "upwind" | "muscl" | "llf"

    def make_scheme(self, lf: str = "local"):
        if lf not in ("local", "global"):
            raise ValueError(f"lf must be 'local' or 'global', got {lf!r}")
        if self.scheme_kind == "dissipative":
            return DissipativeBurgers(mu=1e-3)
        if self.scheme_kind == "upwind":
            return UpwindBurgers()
        if self.scheme_kind == "muscl":
            return MusclBurgers()
        return LaxFriedrichsEuler(gamma=_LEBLANC_GAMMA, local=(lf == "local"))

    def config(
        self,
        scheme_id: str = "rk44",
        dt_factor: float = 1.0,
        *,
        n_cells: int | None = None,
        t_final: float | None = None,
        tolerance: float | None = None,
        monitor_kind: str | None = None,
        tv_wrap: bool | None = None,
        lf: str = "local",
        record_every: int = 1,
    ) -> SimulationConfig:
        grid = Grid1D(
            n_cells=n_cells if n_cells is not None else self.default_n_cells,
            x_min=self.x_min,
            x_max=self.x_max,
            boundary=self.boundary,
            sampling=self.sampling,
        )
        monitor = Monitor(
            kind=monitor_kind if monitor_kind is not None else self.monitor_kind,
            tolerance=tolerance if tolerance is not None else 1e-12,
            tv_wrap=tv_wrap,
        )
        return SimulationConfig(
            scheme=self.make_scheme(lf),
            tableau=builtin_scheme(scheme_id),
            grid=grid,
            ic=self.ic,
            t_final=t_final if t_final is not None else self.default_t_final,
            dt_factor=dt_factor,
            monitor=monitor,
            record_every=record_every,
        )


def _leblanc_preset(preset_id: str) -> ExperimentPreset:
    # Two conventional element/node layouts (200x3 and 100x6 Gauss-Lobatto
    # points) both carry 600 degrees of freedom; here both map to the same
    # uniform 600-cell grid.
    return ExperimentPreset(
        id=preset_id,
        x_min=0.0,
        x_max=1.0,
        default_n_cells=600,
        boundary=Outflow(),
        sampling="center",
        ic=RiemannInitialCondition(
            left=(1.0, 0.0, (_LEBLANC_GAMMA - 1.0) * 0.1),
            right=(1e-3, 0.0, (_LEBLANC_GAMMA - 1.0) * 1e-10),
            x0=0.33,
            gamma=_LEBLANC_GAMMA,
        ),
        monitor_kind="positivity",
        default_t_final=2.0 / 3.0,
        scheme_kind="llf",
    )


_PRESETS = {
    # Grid resolution and final time are not pinned by the experiment's
    # definition.  The energy-decay margin of a forward Euler step at dt_FE
    # requires dx >= ~0.037 (2*mu*sum(dq^2) >= 0.006*dx*sum(R^2) fails on
    # finer grids already at the initial data), so 50 cells; T = 1 then
    # gives ~4k steps at dt_factor 1 and covers shock formation.
    "dissipative": ExperimentPreset(
        id="dissipative",
        x_min=-1.0,
        x_max=1.0,
        default_n_cells=50,
        boundary=Periodic(),
        sampling="node",
        ic=GaussianPulse(decay=30.0),
        monitor_kind="energy",
        default_t_final=1.0,
        scheme_kind="dissipative",
    ),
    "upwind": ExperimentPreset(
        id="upwind",
        x_min=0.0,
        x_max=2.0,
        default_n_cells=100,  # dx = 0.02
        boundary=Periodic(),
        sampling="node",
        ic=SinePerturbation(mean=0.5, amplitude=0.25),
        monitor_kind="tv",
        default_t_final=3.0,
        scheme_kind="upwind",
    ),
    "muscl2": ExperimentPreset(
        id="muscl2",
        x_min=-10.0,
        x_max=70.0,
        default_n_cells=80,  # dx = 1
        boundary=Dirichlet(left=1.0, right=-0.5),
        sampling="center",
        ic=StepFunction(left=1.0, right=-0.5, x0=0.0),
        monitor_kind="tv",
        default_t_final=200.0,
        scheme_kind="muscl",
    ),
    "leblanc_n2": _leblanc_preset("leblanc_n2"),
    "leblanc_n5": _leblanc_preset("leblanc_n5"),
}

PRESET_IDS = tuple(_PRESETS)


def experiment_preset(preset_id: str) -> ExperimentPreset:
    try:
        return _PRESETS[preset_id]
    except KeyError:
        valid = ", ".join(PRESET_IDS)
        raise ValueError(f"unknown experiment {preset_id!r}; valid ids: {valid}") from None


def preset_config(preset_id: str, scheme_id: str = "rk44", dt_factor: float = 1.0, **overrides) -> SimulationConfig:
    """Fully populated simulation config for a preset; see ExperimentPreset.config."""
    return experiment_preset(preset_id).config(scheme_id, dt_factor, **overrides)
