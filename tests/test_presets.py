"""Each preset's default run is the problem README's Presets table describes."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from rkstab.fields import Dirichlet, Grid1D, Outflow, Periodic
from rkstab.monitors import Monitor
from rkstab.presets import (
    PRESET_IDS,
    GaussianPulse,
    RiemannInitialCondition,
    SinePerturbation,
    StepFunction,
    preset_config,
)
from rkstab.spatial import DissipativeBurgers, LaxFriedrichsEuler, MusclBurgers, UpwindBurgers

README = Path(__file__).resolve().parents[1] / "README.md"

GAMMA = 5.0 / 3.0
LEBLANC = (
    LaxFriedrichsEuler(gamma=GAMMA, local=True),
    Grid1D(n_cells=600, x_min=0.0, x_max=1.0, boundary=Outflow(), sampling="center"),
    RiemannInitialCondition(
        left=(1.0, 0.0, (GAMMA - 1) * 0.1), right=(1e-3, 0.0, (GAMMA - 1) * 1e-10), x0=0.33, gamma=GAMMA
    ),
    "positivity",
    2.0 / 3.0,
)

#: Per preset: scheme, grid, initial condition, monitor kind and final time,
#: as README's Presets table states them.
EXPECTED = {
    "dissipative": (
        DissipativeBurgers(mu=1e-3),
        Grid1D(n_cells=50, x_min=-1.0, x_max=1.0, boundary=Periodic(), sampling="node"),
        GaussianPulse(decay=30.0),
        "energy",
        1.0,
    ),
    "upwind": (
        UpwindBurgers(),
        Grid1D(n_cells=100, x_min=0.0, x_max=2.0, boundary=Periodic(), sampling="node"),
        SinePerturbation(mean=0.5, amplitude=0.25),
        "tv",
        3.0,
    ),
    "muscl2": (
        MusclBurgers(),
        Grid1D(n_cells=80, x_min=-10.0, x_max=70.0, boundary=Dirichlet(left=1.0, right=-0.5), sampling="center"),
        StepFunction(left=1.0, right=-0.5, x0=0.0),
        "tv",
        200.0,
    ),
    "leblanc_n2": LEBLANC,
    "leblanc_n5": LEBLANC,
}

#: Phrases of each preset's row in README's Presets table.
README_ROW = {
    "dissipative": ["(mu = 1e-3)", "Gaussian pulse on periodic [-1, 1], 50 nodes, T = 1 |", "| energy"],
    "upwind": ["first-order upwind", "`0.5 - 0.25 sin(pi x)` on periodic [0, 2], dx = 0.02, T = 3 |", "| total variation"],
    "muscl2": ["minmod MUSCL", "step 1 / -0.5 on [-10, 70], dx = 1, T = 200 |", "| total variation"],
    "leblanc_n2": ["local Lax-Friedrichs", "Leblanc shocktube on [0, 1], 600 cells, T = 2/3 |", "| positivity"],
}
README_ROW["leblanc_n5"] = README_ROW["leblanc_n2"]


def readme_presets_rows() -> dict:
    text = README.read_text().split("## Presets\n", 1)[1]
    rows = [line for line in text.splitlines() if line.startswith("| `")]
    return {ident: row for row in rows for ident in PRESET_IDS if f"`{ident}`" in row.split("|")[1]}


def test_expected_problems_cover_every_preset():
    assert list(EXPECTED) == list(PRESET_IDS) == list(README_ROW)
    assert set(readme_presets_rows()) == set(PRESET_IDS)


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_default_run_is_the_readme_problem(preset):
    scheme, grid, ic, monitor_kind, t_final = EXPECTED[preset]
    row = readme_presets_rows()[preset]
    for phrase in README_ROW[preset]:
        assert phrase in row
    cfg = preset_config(preset)
    assert type(cfg.scheme) is type(scheme) and cfg.scheme == scheme
    assert cfg.grid == grid
    assert cfg.ic == ic
    assert cfg.monitor == Monitor(monitor_kind)
    assert cfg.t_final == t_final
    assert (cfg.tableau.name, cfg.dt_factor) == ("rk44", 1.0)


def fields_of(cfg) -> dict:
    values = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    t = values.pop("tableau")
    return {**values, "tableau": (t.name, t.A.tolist(), t.b.tolist(), t.c.tolist())}


@pytest.mark.parametrize(
    "scheme, c, overrides",
    [
        ("rk44", 1.0, {}),
        ("ssprk33", 2.5, {"n_cells": 40, "t_final": 0.1, "lf": "global"}),
        ("forward_euler", 0.7, {}),
    ],
)
def test_leblanc_n5_is_leblanc_n2(scheme, c, overrides):
    """Both layouts map to one uniform 600-cell grid (acceptance criterion 4
    asserts that their tables agree)."""
    n2 = preset_config("leblanc_n2", scheme, c, **overrides)
    n5 = preset_config("leblanc_n5", scheme, c, **overrides)
    assert fields_of(n5) == fields_of(n2)
    assert np.array_equal(n5.ic.build(n5.grid).stack(), n2.ic.build(n2.grid).stack())


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_tolerance_applies_to_the_energy_and_tv_monitors_only(preset):
    """The rule table says which monitors read a tolerance; positivity
    reads none, so a tolerance on a Leblanc preset is an error, not a no-op."""
    kind = preset_config(preset).monitor.kind
    if kind == "positivity":
        with pytest.raises(ValueError, match="tolerance applies to the energy and tv monitors only, not to 'positivity'"):
            preset_config(preset, tolerance=0.5)
    else:
        assert preset_config(preset, tolerance=0.5).monitor == Monitor(kind, tolerance=0.5)
    with pytest.raises(ValueError, match="unknown monitor kind 'entropy'"):
        preset_config(preset, monitor_kind="entropy", tolerance=0.5)
