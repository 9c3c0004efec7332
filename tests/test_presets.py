"""Each preset's default run is the problem README's Presets table describes."""

import itertools
import re
from pathlib import Path

import pytest

from rkstab.fields import Dirichlet, Grid1D, Outflow, Periodic
from rkstab.limits import limits_table
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
from rkstab.tableau import builtin_scheme

README = Path(__file__).resolve().parents[1] / "README.md"

GAMMA = 5.0 / 3.0

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
    "leblanc_n2": (
        LaxFriedrichsEuler(gamma=GAMMA, local=True),
        Grid1D(n_cells=600, x_min=0.0, x_max=1.0, boundary=Outflow(), sampling="center"),
        RiemannInitialCondition(
            left=(1.0, 0.0, (GAMMA - 1) * 0.1), right=(1e-3, 0.0, (GAMMA - 1) * 1e-10), x0=0.33, gamma=GAMMA
        ),
        "positivity",
        2.0 / 3.0,
    ),
}

#: Phrases of each preset's row in README's Presets table.
README_ROW = {
    "dissipative": ["(mu = 1e-3)", "Gaussian pulse on periodic [-1, 1], 50 nodes, T = 1 |", "| energy"],
    "upwind": ["first-order upwind", "`0.5 - 0.25 sin(pi x)` on periodic [0, 2], dx = 0.02, T = 3 |", "| total variation"],
    "muscl2": ["minmod MUSCL", "step 1 / -0.5 on [-10, 70], dx = 1, T = 200 |", "| total variation"],
    "leblanc_n2": ["local Lax-Friedrichs", "Leblanc shocktube on [0, 1], 600 cells, T = 2/3 |", "| positivity"],
}


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


def test_no_two_preset_ids_name_one_problem():
    """An id per problem: two ids with one scheme, grid, initial condition,
    final time and monitor would run and store every table twice.  The
    tableau is left out, as ButcherTableau compares by identity."""
    problem = {}
    for preset in PRESET_IDS:
        cfg = preset_config(preset)
        problem[preset] = (cfg.scheme, cfg.grid, cfg.ic, cfg.t_final, cfg.monitor)
    assert [(a, b) for a, b in itertools.combinations(PRESET_IDS, 2) if problem[a] == problem[b]] == []


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


UNKNOWN_PRESET = "unknown experiment ['upwind']; valid ids: dissipative, upwind, muscl2, leblanc_n2"
UNKNOWN_SCHEME = "unknown scheme ['rk44']; valid ids: forward_euler, midpoint, ssprk33, rk31, rk44"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: preset_config(["upwind"]), UNKNOWN_PRESET),
        (lambda: limits_table(["upwind"]), UNKNOWN_PRESET),
        (lambda: builtin_scheme(["rk44"]), UNKNOWN_SCHEME),
        (lambda: limits_table("upwind", [["rk44"]]), UNKNOWN_SCHEME),
        (lambda: limits_table("upwind", [["rk44"], ["rk44"]]), UNKNOWN_SCHEME),
        (lambda: Monitor(["tv"]), "unknown monitor kind ['tv']"),
        (lambda: preset_config("upwind", monitor_kind=["tv"]), "unknown monitor kind ['tv']"),
    ],
    ids=["preset", "table_preset", "scheme", "table_scheme", "table_repeated_scheme", "monitor", "preset_monitor"],
)
def test_an_id_that_is_not_a_string_is_an_unknown_id(call, message):
    """A list id used to raise TypeError: unhashable type: 'list'."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize(
    "call",
    [lambda: preset_config("upwind", foo=1), lambda: limits_table("upwind", ["rk44"], foo=1)],
    ids=["preset", "table"],
)
def test_an_unknown_override_is_named_by_preset_config(call):
    """The error used to name a private helper, ``_override()``."""
    with pytest.raises(TypeError, match=re.escape("preset_config() got an unexpected keyword argument 'foo'")):
        call()
