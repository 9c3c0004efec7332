"""The batched stepping loop against the one-row path it generalizes.

A sweep advances chunks of candidates as one stack of states; none of that
may show in the results: every candidate's outcome must equal the one of
its own single-row run, whatever the rows per chunk.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

import rkstab.limits as limits
from rkstab.fields import Grid1D, Periodic, ScalarField, quadratic_energy_array, total_variation_array
from rkstab.integrator import STEP_BUDGET_FACTOR, SimulationConfig, run_batch, simulate
from rkstab.limits import LimitSearchConfig, find_limits, limits_table
from rkstab.monitors import Monitor
from rkstab.presets import PRESET_IDS, preset_config
from rkstab.tableau import builtin_scheme

# Final times short enough for a quick sweep that still passes and fails
# candidates of every preset.
SHORT_T_FINAL = {
    "dissipative": 0.005,
    "upwind": 0.3,
    "muscl2": 10.0,
    "leblanc_n2": 0.01,
    "leblanc_n5": 0.01,
}
SCHEMES = ("forward_euler", "ssprk33", "rk44")


def short_search(preset, scheme):
    base = preset_config(preset, scheme, 1.0, t_final=SHORT_T_FINAL[preset])
    return LimitSearchConfig(base=base, c_max=3.0)


def state_bytes(cfg: LimitSearchConfig) -> int:
    f0 = cfg.base.ic.build(cfg.base.grid)
    return (f0.stack() if cfg.base.scheme.is_euler else f0.q).nbytes


def test_presets_cover_every_preset():
    assert set(SHORT_T_FINAL) == set(PRESET_IDS)


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_rows_per_chunk_do_not_change_results(preset, monkeypatch):
    for scheme in SCHEMES:
        cfg = short_search(preset, scheme)
        default = find_limits(cfg)
        assert any(o.step_pass for o in default.per_candidate)
        assert not all(o.step_pass for o in default.per_candidate)
        for rows in (1, 3):
            monkeypatch.setattr(limits, "CHUNK_BYTES", rows * state_bytes(cfg))
            assert limits._chunk_rows(cfg.base) == rows
            assert find_limits(cfg) == default
        monkeypatch.undo()


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_candidate_fields_equal_single_runs(preset):
    for scheme in SCHEMES:
        cfg = short_search(preset, scheme)
        result = find_limits(cfg)
        for o in result.per_candidate:
            record = simulate(replace(cfg.base, dt_factor=o.c), early_stop=True)
            v = record.verdict
            assert (o.step_pass, o.shifted_pass) == (v.step_pass, v.shifted_pass)
            assert o.n_steps == record.n_steps
            assert o.first_step_failure == v.first_step_failure
            assert o.first_shifted_failure == v.first_shifted_failure
            assert o.aborted_step == v.aborted_step


def test_candidate_fields_in_table_json():
    table = limits_table("leblanc_n2", ["rk44"], c_max=1.0, t_final=SHORT_T_FINAL["leblanc_n2"])
    entries = table.to_json_dict()["rows"][0]["per_candidate"]
    assert set(entries[0]) == {
        "c",
        "step_pass",
        "shifted_pass",
        "n_steps",
        "first_step_failure",
        "first_shifted_failure",
        "aborted_step",
    }
    assert any(e["aborted_step"] is not None for e in entries)
    for e, o in zip(entries, table.rows[0].per_candidate):
        assert e["n_steps"] == o.n_steps and e["aborted_step"] == o.aborted_step


def test_batched_functionals_equal_single_states_bit_for_bit():
    rng = np.random.default_rng(7)
    for n in (7, 50, 80, 600):
        X = rng.normal(size=(64, n)) * rng.uniform(0.1, 10.0, size=(64, 1))
        energy = quadratic_energy_array(X)
        assert energy.shape == (64,)
        assert all(energy[k] == 0.5 * float(X[k] @ X[k]) for k in range(64))
        for wrap in (False, True):
            tv = total_variation_array(X, wrap)
            single = [float(np.sum(np.abs(np.diff(x)))) + (abs(float(x[0] - x[-1])) if wrap else 0.0) for x in X]
            assert tv.tolist() == single
    assert isinstance(quadratic_energy_array(X[0]), float)


def test_batched_rows_equal_one_row_runs():
    """run_batch rows with their history equal the simulate of each multiplier."""
    for preset in ("muscl2", "leblanc_n2"):
        base = preset_config(preset, "ssprk33", 1.0, t_final=SHORT_T_FINAL[preset])
        cs = [0.3, 0.9, 1.4]
        for c, row in zip(cs, run_batch(base, cs, record=True)):
            rec = simulate(replace(base, dt_factor=c))
            assert row.verdict == rec.verdict and row.n_steps == rec.n_steps
            assert [h[0] for h in row.history] == rec.times.tolist()
            assert [h[2] for h in row.history] == rec.monitor_stage_worst.tolist()
            if rec.min_rhoe is not None:
                np.testing.assert_array_equal(np.array([h[5] for h in row.history]), rec.min_rhoe)


@dataclass(eq=False)
class CollapsingStep:
    """A frozen state whose forward-Euler bound decays like dt_0 / (k + 1).

    Reaching t = 50 dt_0 would take about e^50 steps; past ``max_calls`` the
    stub raises, so that a run the budget does not end fails instead of
    hanging."""

    dt0: float
    max_calls: int
    calls: int = 0
    is_euler = False

    def rhs_array(self, q, grid):
        return np.zeros_like(q)

    def dt_fe_array(self, q, grid):
        self.calls += 1
        if self.calls > self.max_calls:
            raise RuntimeError("the step budget did not end the run")
        return np.full(q.shape[:-1], self.dt0 / self.calls)


@dataclass(frozen=True)
class Ones:
    def build(self, grid):
        return ScalarField(grid, np.ones(grid.n_cells))


def test_step_budget_ends_a_collapsing_run():
    dt0 = 1.0 / 64.0
    budget = STEP_BUDGET_FACTOR * 50
    cfg = SimulationConfig(
        scheme=CollapsingStep(dt0, max_calls=2 * budget),
        tableau=builtin_scheme("forward_euler"),
        grid=Grid1D(8, 0.0, 1.0, Periodic()),
        ic=Ones(),
        t_final=50 * dt0,
        dt_factor=1.0,
        monitor=Monitor("energy"),
    )
    record = simulate(cfg)
    assert record.n_steps == budget
    assert record.verdict.aborted_step == budget
    assert record.verdict.abort_reason == "step_budget"
    assert not record.verdict.step_pass and not record.verdict.shifted_pass
    assert record.times[-1] < cfg.t_final
