"""The batched stepping loop against the one-row path it generalizes.

A sweep advances chunks of candidates as one stack of states; none of that
may show in the results: every candidate's outcome must equal the one of
its own single-row run, whatever the rows per chunk.
"""

import contextlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rkstab.integrator as integrator
import rkstab.limits as limits
from rkstab.fields import EulerField, Grid1D, Periodic, ScalarField, quadratic_energy_array, total_variation_array
from rkstab.integrator import STEP_BUDGET_FACTOR, SimulationConfig, run_batch, simulate
from rkstab.limits import LimitSearchConfig, find_limits, limits_table
from rkstab.monitors import Monitor
from rkstab.presets import PRESET_IDS, preset_config
from rkstab.tableau import BUILTIN_SCHEME_IDS, builtin_scheme

from conftest import SWEEP_WORKERS, record_chunks, record_offers
from kernel_oracles import rk_step_rows
from step_oracles import traced_run, traced_step

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

#: States one row keeps alive at the peak of a step on the 3x600 Euler shock
#: tube, at most: q^n and the step's states, both in the workspace (up to
#: 2s states, s <= 4, and a scratch state; the rows' dt is a column there),
#: and the kernel's or the monitor's temporaries.  Measured with tracemalloc
#: on one step of a chunk of the lowest ticks: 10.9 on a mixed step of
#: c = 0.1 and 0.2 of the five built-in schemes, the chunk a table runs
#: (1.57 MB; the bound test_a_leblanc_chunk_keeps_at_most_row_states_per_row
#: checks), 11.9 on c = 0.1 of them, 8.6-14.6 on 5 rows of one scheme (14.6
#: for rk44); on the scalar stacks, whose dt is spread over a state per
#: row, 10.0-16.5 on 81 rows of the dissipative
#: problem, whose flat-lane kernel keeps its squared lanes and its fluxes
#: alive together, and 15.1-23.9 on 51 rows of MUSCL, whose TV monitor makes
#: more temporaries.
ROW_STATES = 18


def short_search(preset, scheme):
    base = preset_config(preset, scheme, 1.0, t_final=SHORT_T_FINAL[preset])
    return LimitSearchConfig(base=base, c_max=3.0)


def state_bytes(cfg: LimitSearchConfig) -> int:
    f0 = cfg.base.ic.build(cfg.base.grid)
    return (f0.stack() if cfg.base.scheme.is_euler else f0.q).nbytes


def test_presets_cover_every_preset():
    assert set(SHORT_T_FINAL) == set(PRESET_IDS)


def chunks_of(monkeypatch, rows: int) -> list:
    """Make every chunk of a sweep ``rows`` rows (below the two rows per scan
    that ``_chunk_rows`` keeps at least) and record the chunks it runs."""
    monkeypatch.setattr(limits, "_chunk_rows", lambda base, scans=1: rows)
    return record_chunks(monkeypatch)


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_rows_per_chunk_do_not_change_results(preset, monkeypatch):
    for scheme in SCHEMES:
        cfg = short_search(preset, scheme)
        default = find_limits(cfg)
        assert any(o.step_pass for o in default.per_candidate)
        assert not all(o.step_pass for o in default.per_candidate)
        for rows in (1, 3):
            batches = chunks_of(monkeypatch, rows)
            assert find_limits(cfg) == default
            assert max(map(len, batches)) == rows
        monkeypatch.undo()


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_candidate_fields_equal_single_runs(preset):
    for scheme in SCHEMES:
        cfg = short_search(preset, scheme)
        result = find_limits(cfg)
        for o in result.per_candidate:
            assert o == run_batch(cfg.base, [o.c], early_stop=True)[0].verdict


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_a_replayed_candidate_equals_its_table_entry(preset):
    """A table entry is its run's verdict: the lowest c, the c_p tick and the
    first aborting candidate of every scheme, run again alone, give records
    equal to the table's, abort reason included."""
    base = preset_config(preset, t_final=SHORT_T_FINAL[preset])
    table = limits_table(preset, c_max=3.0, t_final=SHORT_T_FINAL[preset])
    aborting = 0
    for row in table.rows:
        entries = row.per_candidate
        picked = [entries[0], *(e for e in entries if e.c == row.c_p)]
        picked += [e for e in entries if e.aborted_step is not None][:1]
        aborting += picked[-1].aborted_step is not None
        for entry in picked:
            (replay,) = run_batch(base, [entry.c], tableaux=[builtin_scheme(row.scheme)], early_stop=True)
            assert replay.verdict == entry
    assert (aborting > 0) == base.scheme.is_euler  # three of five schemes abort on Leblanc


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
        "abort_reason",
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
            assert row.times.tolist() == rec.times.tolist()
            assert row.monitor_stage_worst.tolist() == rec.monitor_stage_worst.tolist()
            if rec.min_rhoe is not None:
                np.testing.assert_array_equal(row.min_rhoe, rec.min_rhoe)


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


@pytest.mark.parametrize("preset", PRESET_IDS)
def test_table_sweep_equals_per_scheme_sweeps(preset, monkeypatch):
    """Every scheme's scan advances in the same batches as the others'; each
    row must still be the sweep of that scheme alone."""
    t_final = SHORT_T_FINAL[preset]
    for refine in (False, True):
        alone = {
            name: find_limits(
                LimitSearchConfig(base=preset_config(preset, name, 1.0, t_final=t_final), c_max=3.0, refine=refine)
            )
            for name in BUILTIN_SCHEME_IDS
        }
        for rows in (None, 1):  # 1 state: the floor, two rows per scan, sets the chunk
            if rows is not None:
                monkeypatch.setattr(limits, "CHUNK_BYTES", rows * state_bytes(short_search(preset, "rk44")))
            for order in (BUILTIN_SCHEME_IDS, BUILTIN_SCHEME_IDS[::-1]):
                table = limits_table(preset, order, c_max=3.0, refine=refine, t_final=t_final)
                assert [r.scheme for r in table.rows] == list(order)
                for row in table.rows:
                    result = alone[row.scheme]
                    assert (row.c_p, row.c_s) == (result.c_p, result.c_s)
                    assert row.per_candidate == result.per_candidate
            monkeypatch.undo()
        pooled = limits_table(preset, c_max=3.0, refine=refine, workers=SWEEP_WORKERS, t_final=t_final)
        assert pooled == limits_table(preset, c_max=3.0, refine=refine, t_final=t_final)


def test_batch_composition_does_not_depend_on_scheme_order(monkeypatch):
    batches = {}
    # Refine rounds (``band`` ticks per scan: 51 // 5 at the default chunk
    # size, 1 at 7 rows, where a bisection round offers the next midpoint
    # of each open bracket: 6 rows at most here, ssprk33's two beside other
    # scans' one) in one chunk each, and the coarse scan's one round cut into
    # chunks.
    for refine, rows, largest in ((True, None, 50), (True, 7, 6), (False, 7, 7)):
        for order in (BUILTIN_SCHEME_IDS, ("rk44", "forward_euler", "rk31", "midpoint", "ssprk33")):
            batches[order] = record_chunks(monkeypatch) if rows is None else chunks_of(monkeypatch, rows)
            limits_table("muscl2", order, refine=refine, t_final=SHORT_T_FINAL["muscl2"])
        first, second = batches.values()
        assert len(first) > 1
        assert max(len(b) for b in first) == largest
        assert first == second


def history(record):
    """A recorded run's history columns as one ``(steps, columns)`` array."""
    columns = [record.times, record.monitor_step_values, record.monitor_stage_worst, record.monitor_shifted_worst]
    if record.min_rho is not None:
        columns += [record.min_rho, record.min_rhoe]
    return np.column_stack(columns)


def final_state(record):
    field = record.final_field
    return field.stack() if isinstance(field, EulerField) else field.q


def assert_rows_equal(mixed, alone):
    assert mixed.verdict == alone.verdict and mixed.n_steps == alone.n_steps
    np.testing.assert_array_equal(history(mixed), history(alone))
    np.testing.assert_array_equal(final_state(mixed), final_state(alone))


def test_mixed_tableau_rows_equal_one_row_runs():
    """Rows padded to the largest stage count must not tell: every row of a
    five-scheme batch equals its own one-row run bit for bit."""
    tableaux = [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS for _ in range(2)]
    for preset in ("muscl2", "leblanc_n2"):
        base = preset_config(preset, "rk44", 1.0, t_final=SHORT_T_FINAL[preset])
        cs = [0.6, 1.4] * len(BUILTIN_SCHEME_IDS)
        rows = run_batch(base, cs, tableaux=tableaux, record=True)
        assert any(r.verdict.passed for r in rows) and not all(r.verdict.passed for r in rows)
        for tab, c, row in zip(tableaux, cs, rows):
            (alone,) = run_batch(replace(base, tableau=tab), [c], record=True)
            assert_rows_equal(row, alone)
            rec = simulate(replace(base, tableau=tab, dt_factor=c))
            assert row.verdict == rec.verdict and row.n_steps == rec.n_steps
            assert row.monitor_step_values.tolist() == rec.monitor_step_values.tolist()


@dataclass(frozen=True)
class OverflowBelowHalf:
    """q' = -q, whose RHS overflows to inf wherever a state drops to 0.1 or
    below; dt_FE = 1 on finite states and NaN on others."""

    is_euler = False

    def rhs_array(self, q, grid):
        return np.where(q > 0.1, -q, np.inf)

    def dt_fe_array(self, q, grid):
        return np.where(np.isfinite(q).all(axis=-1), 1.0, np.nan)


def test_overflowing_row_of_a_mixed_batch_keeps_its_verdict():
    """``x + 0*R == x`` only while R is finite, so a mixed step must not add
    the terms of stages a row lacks: the row whose RHS overflows equals its
    own run bit for bit, abort included, and so does every other row."""
    cfg = SimulationConfig(
        scheme=OverflowBelowHalf(),
        tableau=builtin_scheme("forward_euler"),
        grid=Grid1D(8, 0.0, 1.0, Periodic()),
        ic=Ones(),
        t_final=2.0,
        dt_factor=1.0,
        monitor=Monitor("energy"),
    )
    tableaux = [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS]
    cs = [0.95] + [0.1] * (len(BUILTIN_SCHEME_IDS) - 1)  # forward Euler reaches q = 0.05
    rows = run_batch(cfg, cs, tableaux=tableaux, record=True)
    overflowing, others = rows[0], rows[1:]
    (alone,) = run_batch(cfg, cs[:1], record=True)
    assert alone.verdict == overflowing.verdict and alone.n_steps == overflowing.n_steps
    assert (alone.verdict.aborted_step, alone.verdict.abort_reason) == (2, "degenerate_dt")
    assert (alone.verdict.first_step_failure, alone.verdict.first_shifted_failure) == (1, 1)
    assert np.isinf(alone.monitor_shifted_worst[1])
    assert_rows_equal(overflowing, alone)
    for tab, c, row in zip(tableaux[1:], cs[1:], others):
        (one,) = run_batch(replace(cfg, tableau=tab), [c], record=True)
        assert row.verdict.passed
        assert_rows_equal(row, one)


@dataclass(frozen=True)
class ClippedDecay:
    """q' = -clip(q, -1.5, 1.5); dt_FE = 1 on finite states and NaN on others."""

    is_euler = False

    def rhs_array(self, q, grid):
        return -np.clip(q, -1.5, 1.5)

    def dt_fe_array(self, q, grid):
        return np.where(np.isfinite(q).all(axis=-1), 1.0, np.nan)


class Constant:
    value = 1.5

    def build(self, grid):
        return ScalarField(grid, np.full(grid.n_cells, self.value))


def test_a_row_with_a_near_overflow_dt_equals_its_one_row_run():
    """(dt a) R must not become (dt R) a when a batch spreads its per-row dt
    over whole arrays: at dt = 1.5e308 and |R| = 1.5, dt R overflows while
    (dt a) R does not for a < 1, and rk44's terms then cancel to a finite
    q_rk.  Every row of a five-scheme batch, that row among ordinary ones
    that fail both criteria at their first step, equals its one-row run bit
    for bit."""
    huge = 1.5e308
    cfg = SimulationConfig(
        scheme=ClippedDecay(),
        tableau=builtin_scheme("rk44"),
        grid=Grid1D(8, 0.0, 1.0, Periodic()),
        ic=Constant(),
        t_final=huge,
        dt_factor=1.0,
        monitor=Monitor("energy"),
    )
    tableaux = [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS for _ in range(2)]
    cs = [2.5, 3.0] * len(BUILTIN_SCHEME_IDS)
    cs[[t.name for t in tableaux].index("rk44")] = huge
    rows = run_batch(cfg, cs, tableaux=tableaux, record=True, early_stop=True)
    for tab, c, row in zip(tableaux, cs, rows):
        (alone,) = run_batch(replace(cfg, tableau=tab), [c], record=True, early_stop=True)
        assert row.n_steps == alone.n_steps == 1
        assert_rows_equal(row, alone)
        np.testing.assert_array_equal(final_state(row).view(np.int64), final_state(alone).view(np.int64))
    (near,) = [row for row in rows if row.verdict.c == huge]
    assert np.isfinite(final_state(near)).all()


@dataclass(eq=False)
class RecordingDecay:
    """q' = -q with dt_FE = 1, recording the rows of every RHS call."""

    rows: list
    is_euler = False

    def rhs_array(self, q, grid):
        self.rows.append(q.shape[0])
        return -q

    def dt_fe_array(self, q, grid):
        return np.ones(q.shape[:-1])


def test_mixed_step_runs_each_stage_on_the_rows_that_have_it(monkeypatch):
    """One step of the five built-ins calls the kernel on sum(s_k) rows and the
    monitor once, on the 2*s_k real states of each row."""
    state_values = integrator.state_values
    states = []

    def recording(monitor, grid, stack):
        states.append(stack.shape[0] if stack.ndim > 1 else None)
        return state_values(monitor, grid, stack)

    monkeypatch.setattr(integrator, "state_values", recording)
    kernel_rows = []
    cfg = SimulationConfig(
        scheme=RecordingDecay(kernel_rows),
        tableau=builtin_scheme("forward_euler"),
        grid=Grid1D(8, 0.0, 1.0, Periodic()),
        ic=Ones(),
        t_final=0.5,
        dt_factor=1.0,
        monitor=Monitor("energy"),
    )
    tableaux = [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS]
    rows = run_batch(cfg, [0.5] * len(tableaux), tableaux=tableaux)
    assert [row.n_steps for row in rows] == [1] * len(tableaux)
    stages = sum(t.s for t in tableaux)
    assert stages == 13
    assert sum(kernel_rows) == stages
    assert states == [None, 2 * stages]  # G(q^0), then the step's states


def test_mixed_rows_in_any_order_equal_one_row_runs():
    """The batch stacks its rows by stage count; the rows must come back in
    the order given, each equal to its own run, whatever that order."""
    pairs = [(builtin_scheme(name), c) for name in BUILTIN_SCHEME_IDS for c in (0.6, 1.4)]
    shuffled = [pairs[k] for k in np.random.default_rng(3).permutation(len(pairs))]
    for preset in ("muscl2", "leblanc_n2"):
        base = preset_config(preset, "rk44", 1.0, t_final=SHORT_T_FINAL[preset])
        alone = {(tab.name, c): run_batch(replace(base, tableau=tab), [c], record=True)[0] for tab, c in pairs}
        for order in (pairs[::-1], shuffled):
            tableaux, cs = zip(*order)
            rows = run_batch(base, cs, tableaux=tableaux, record=True)
            for tab, c, row in zip(tableaux, cs, rows):
                assert row.verdict.c == c
                assert_rows_equal(row, alone[tab.name, c])
                rec = simulate(replace(base, tableau=tab, dt_factor=c))
                assert row.verdict == rec.verdict and row.n_steps == rec.n_steps
                assert row.monitor_stage_worst.tolist() == rec.monitor_stage_worst.tolist()


def test_rows_leaving_at_different_steps_keep_their_own_history_and_state():
    """q^n lives in the workspace, and the rows that stay move up when others
    leave: a recorded Leblanc batch of the five schemes in mixed order, whose
    rows leave at steps 0, 1, 11, 25, 48 and 49 (on an inadmissible stage, a
    degenerate dt after lost positivity, or at t_final), equals the one-row
    runs bit for bit, histories and final states included."""
    base = preset_config("leblanc_n2", "rk44", 1.0, t_final=0.05)
    pairs = [(builtin_scheme(name), c) for name in BUILTIN_SCHEME_IDS for c in (0.5, 1.1, 2.0)]
    tableaux, cs = zip(*[pairs[k] for k in np.random.default_rng(7).permutation(len(pairs))])
    for early_stop in (False, True):
        rows = run_batch(base, cs, tableaux=tableaux, record=True, early_stop=early_stop)
        if not early_stop:
            assert sorted({row.n_steps for row in rows}) == [0, 1, 11, 25, 48, 49]
            assert any(row.n_steps == 11 and row.verdict.abort_reason.startswith("degenerate_dt: ") for row in rows)
        for tab, c, row in zip(tableaux, cs, rows):
            (alone,) = run_batch(replace(base, tableau=tab), [c], record=True, early_stop=early_stop)
            assert_rows_equal(row, alone)
            np.testing.assert_array_equal(final_state(row).view(np.int64), final_state(alone).view(np.int64))


@pytest.mark.parametrize("preset", ["muscl2", "leblanc_n2"])
def test_traces_keep_their_values_after_later_steps(preset):
    """Each traced step runs its plan in a new workspace, so a trace holds arrays
    of its own: every array of every trace of a traced run keeps the bits it
    had when yielded, and step n+1's q^n is step n's q_rk."""
    traces, saved = [], []
    cfg = preset_config(preset, "rk44", 0.5, t_final=SHORT_T_FINAL[preset])
    for trace in traced_run(cfg):
        arrays = (trace.q_n, *trace.stage_solutions, *trace.stage_derivatives, *trace.shifted_states, trace.q_rk)
        traces.append(arrays)
        saved.append([x.copy() for x in arrays])
    assert simulate(cfg).n_steps == len(traces) > 2
    for arrays, copies in zip(traces, saved):
        for x, y in zip(arrays, copies):
            np.testing.assert_array_equal(x.view(np.int64), y.view(np.int64))
    for before, after in zip(traces, traces[1:]):
        np.testing.assert_array_equal(after[0], before[-1])


def test_leblanc_chunks_hold_two_ticks_of_every_scheme(monkeypatch):
    """Two Leblanc states fill CHUNK_BYTES, but a chunk holds at least two
    rows per scan: ten-row chunks of a round sorted by (c, scheme name), so
    each chunk is two consecutive ticks of the five schemes and the ten
    c = 0.1 and c = 0.2 rows, the longest, share one chunk."""
    batches = record_chunks(monkeypatch)
    table = limits_table("leblanc_n2", BUILTIN_SCHEME_IDS[::-1], t_final=SHORT_T_FINAL["leblanc_n2"])
    base = preset_config("leblanc_n2", "rk44", 1.0)
    assert limits._chunk_rows(base) == 2
    assert limits._chunk_rows(base, len(BUILTIN_SCHEME_IDS)) == 2 * len(BUILTIN_SCHEME_IDS)
    rows = sorted((o.c, r.scheme) for r in table.rows for o in r.per_candidate)
    assert batches == [rows[i : i + 10] for i in range(0, len(rows), 10)]
    assert batches[0] == [(c, name) for c in (0.1, 0.2) for name in sorted(BUILTIN_SCHEME_IDS)]


def leblanc_refine_rounds(monkeypatch, workers):
    """The short ``leblanc_n2 --refine`` table at ``workers`` on two CPUs,
    with its rounds, as sorted (c, scheme name) rows, and the chunks it ran.
    Round ``r`` is the ``r``-th offer of every scan that is still live.  The
    pool maps in this process, so that ``record_chunks`` sees its chunks."""
    import concurrent.futures

    in_process = lambda processes: contextlib.nullcontext(SimpleNamespace(map=map))  # noqa: E731
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", in_process)
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 2)
    offers, chunks = record_offers(monkeypatch), record_chunks(monkeypatch)
    table = limits_table("leblanc_n2", refine=True, workers=workers, t_final=SHORT_T_FINAL["leblanc_n2"])
    per_scan = {}
    for name, _, cs in offers:
        per_scan.setdefault(name, []).append(cs)
    rounds = [
        sorted((c, name) for name, mine in per_scan.items() if r < len(mine) for c in mine[r])
        for r in range(max(map(len, per_scan.values())))
    ]
    return table, rounds, chunks


def test_a_leblanc_refine_round_is_one_chunk_at_one_worker(monkeypatch):
    """A Leblanc refine round offers two ticks or midpoints per scan at most,
    10 rows, so one worker runs every round as one chunk."""
    _, rounds, chunks = leblanc_refine_rounds(monkeypatch, 1)
    assert chunks == rounds
    assert max(map(len, rounds)) == 2 * len(BUILTIN_SCHEME_IDS)
    assert any(c != round(c, 1) for r in rounds for c, _ in r)  # bisection midpoints, not only ticks


def test_two_workers_cut_a_ten_row_leblanc_refine_round_in_halves(monkeypatch):
    """On two CPUs, two workers cut each round into chunks of at most
    ceil(rows / 2): a 10-row round into two 5-row chunks.  The table is the
    one-worker one, and so is the table of a real two-process pool."""
    serial = limits_table("leblanc_n2", refine=True, t_final=SHORT_T_FINAL["leblanc_n2"])
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 2)
    assert limits_table("leblanc_n2", refine=True, workers=2, t_final=SHORT_T_FINAL["leblanc_n2"]) == serial
    table, rounds, chunks = leblanc_refine_rounds(monkeypatch, 2)
    half = [math.ceil(len(r) / 2) for r in rounds]
    assert chunks == [r[i : i + n] for r, n in zip(rounds, half) for i in range(0, len(r), n)]
    assert 10 in map(len, rounds)  # so a 10-row round ran as two 5-row chunks
    assert table == serial


def test_low_c_rows_of_a_table_share_one_chunk(monkeypatch):
    batches = record_chunks(monkeypatch)
    limits_table("dissipative", t_final=SHORT_T_FINAL["dissipative"])
    assert len(batches) == 4
    (first,) = [b for b in batches if (0.1, "forward_euler") in b]
    assert {(c, name) for c, name in first if c == 0.1} == {(0.1, name) for name in BUILTIN_SCHEME_IDS}


def test_refine_rounds_fit_one_sorted_chunk(monkeypatch):
    """Under refine each scan offers at most ``band = _chunk_rows // scans``
    candidates a round (``band`` is 10 here, more than the two brackets), so
    at one worker a round is one chunk, its rows sorted by (c, scheme name)."""
    batches = record_chunks(monkeypatch)
    table = limits_table("muscl2", refine=True, t_final=SHORT_T_FINAL["muscl2"])
    chunk_rows = limits._chunk_rows(preset_config("muscl2", "rk44", 1.0), len(BUILTIN_SCHEME_IDS))
    band = chunk_rows // len(BUILTIN_SCHEME_IDS)
    assert band >= 2
    assert sum(map(len, batches)) >= sum(len(r.per_candidate) for r in table.rows)
    assert len(batches) < max(len(r.per_candidate) for r in table.rows)
    assert max(len(b) for b in batches) == band * len(BUILTIN_SCHEME_IDS) <= chunk_rows
    for b in batches:
        live = {name for _, name in b}  # every live scan offers a candidate a round
        assert max(sum(name == scheme for _, name in b) for scheme in live) <= band
        assert b == sorted(b)


def test_a_round_is_cut_by_the_processes_started(monkeypatch):
    """With one CPU, two workers start no pool and cut each round as one
    worker does, rather than into chunks run one after another."""
    monkeypatch.setattr(limits.os, "cpu_count", lambda: 1)
    calls = {}
    for workers in (1, 2):
        calls[workers] = record_chunks(monkeypatch)
        limits_table("muscl2", refine=True, t_final=SHORT_T_FINAL["muscl2"], workers=workers)
    assert calls[2] == calls[1]


def test_the_pool_is_imported_only_for_a_round_of_two_chunks(tmp_path):
    """``import rkstab``, a one-worker table and a two-worker table on one
    CPU, which cuts no round into two chunks, leave concurrent.futures
    unloaded; a two-worker table on two CPUs loads it."""
    script = """
import sys
import rkstab
import rkstab.limits as limits

def table(workers):
    rkstab.limits_table("upwind", ["rk44", "ssprk33"], c_max=1.0, t_final=0.05, workers=workers)

assert "concurrent.futures" not in sys.modules
table(1)
assert "concurrent.futures" not in sys.modules
limits.os.cpu_count = lambda: 1
table(2)
assert "concurrent.futures" not in sys.modules
limits.os.cpu_count = lambda: 2
table(2)
assert "concurrent.futures" in sys.modules
"""
    src = Path(integrator.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def stacked_step_inputs(preset: str, cs):
    """q^0 of ``preset`` stacked once per multiplier, each row's dt, and the RHS."""
    base = preset_config(preset, "rk44", 1.0)
    f0 = base.ic.build(base.grid)
    q0 = f0.stack() if base.scheme.is_euler else f0.q
    q = np.repeat(q0[None], len(cs), axis=0)
    dt = np.asarray(cs) * base.scheme.dt_fe_array(q, base.grid)
    return base, q, dt.reshape((-1,) + (1,) * q0.ndim), lambda x: base.scheme.rhs_array(x, base.grid)


def workspace_step(tableaux, rhs, q, dt, fill=np.nan):
    """One step of the rows of ``q`` with ``tableaux`` (in descending stage
    count), written into a new workspace filled with ``fill``, with the
    column ``dt`` held as run_batch holds it: a column for a (rows, 3, n)
    stack, spread over the cells of a (rows, n) one.  Returns every row's
    states in the ``(rows, 2s+1)`` layout of the plan's ``take`` (q^n,
    stages 1..s-1, q_rk, shifted states 0..s-1; a state a row lacks reads
    stage 0's or shifted state 0's), and ``take``."""
    counts, Ab = integrator._coefficients(tableaux)
    buffer = np.full((2 * counts.sum(),) + q.shape[1:], fill)
    dt_cells = np.empty(dt.shape if q.ndim == 3 else q.shape)
    plan = integrator._step_plan(counts, Ab, q, (buffer, np.empty_like(q), dt_cells))
    assert integrator.rk_step_instrumented(plan, rhs, dt) is None
    return np.concatenate((q, plan.states))[plan.take], plan.take


def trace_layout(trace):
    """A trace's states in the layout of ``workspace_step``."""
    return np.stack((*trace.stage_solutions, trace.q_rk, *trace.shifted_states), axis=1)


@pytest.mark.parametrize("preset", ["muscl2", "leblanc_n2"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # c = 1.4 takes Leblanc's stages out of the admissible set
def test_workspace_step_equals_traced_step(preset):
    """A step written into a workspace and the StageTrace of a step that runs
    the stack as one row agree bit for bit on every stage, shifted state and
    q_rk: for each built-in tableau on a stack of rows; and for the five
    mixed, where the states do not depend on what the workspace held before
    and each row equals its own one-row step."""
    cs = [0.3, 0.9, 1.4]
    base, q, dt, rhs = stacked_step_inputs(preset, cs)
    for name in BUILTIN_SCHEME_IDS:
        tab = builtin_scheme(name)
        states, take = workspace_step([tab] * len(q), rhs, q, dt)
        # Every row has every state: take reads block after block, row by row.
        assert states.shape[:2] == (len(q), 2 * tab.s + 1)
        np.testing.assert_array_equal(take, np.arange(len(q) * (2 * tab.s + 1)).reshape(-1, len(q)).T)
        np.testing.assert_array_equal(states, trace_layout(traced_step(tab, rhs, q, dt)))

    tableaux = sorted((builtin_scheme(name) for name in BUILTIN_SCHEME_IDS), key=lambda t: -t.s)
    base, q, dt, rhs = stacked_step_inputs(preset, [0.3, 0.9, 1.4, 0.6, 1.1])
    states, take = workspace_step(tableaux, rhs, q, dt)
    np.testing.assert_array_equal(states, workspace_step(tableaux, rhs, q, dt, fill=0.0)[0])
    s = tableaux[0].s
    for k, row_tab in enumerate(tableaux):
        alone = traced_step(row_tab, rhs, q[k : k + 1], float(dt[k].item()))
        for i in range(1, row_tab.s):
            np.testing.assert_array_equal(states[k, i], alone.stage_solutions[i][0])
        np.testing.assert_array_equal(states[k, s], alone.q_rk[0])
        for j in range(row_tab.s):
            np.testing.assert_array_equal(states[k, s + 1 + j], alone.shifted_states[j][0])


def assert_workspace_step_equals_row_by_row_oracle(rhs, q, dt):
    """For each built-in tableau on every row of ``q``, and for the five
    mixed, every stage, q_rk and shifted state of the workspace step equal
    the textbook step of each row on its own, bit for bit.  Returns the
    oracle's steps per tableau name, ``"mixed"`` for the mix."""
    mixed = sorted((builtin_scheme(name) for name in BUILTIN_SCHEME_IDS), key=lambda t: -t.s)
    oracle = {}
    for name, tableaux in [(name, [builtin_scheme(name)] * len(q)) for name in BUILTIN_SCHEME_IDS] + [("mixed", mixed)]:
        states, _ = workspace_step(tableaux, rhs, q, dt)
        s = tableaux[0].s
        oracle[name] = steps = rk_step_rows(tableaux, rhs, q, [float(x.item()) for x in dt])
        for k, (row_tab, (stages, q_rk, shifted)) in enumerate(zip(tableaux, steps)):
            for i in range(row_tab.s):
                np.testing.assert_array_equal(states[k, i], stages[i])
            np.testing.assert_array_equal(states[k, s], q_rk)
            for j in range(row_tab.s):
                np.testing.assert_array_equal(states[k, s + 1 + j], shifted[j])
    return oracle


@pytest.mark.parametrize("preset", ["muscl2", "leblanc_n2", "dissipative"])
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # c = 1.4 takes Leblanc's stages out of the admissible set
def test_workspace_step_equals_row_by_row_oracle(preset):
    """The workspace step equals the textbook step of each row on its own,
    bit for bit, on every stage, q_rk and shifted state: for each built-in
    tableau on a stack of rows, and for the five mixed."""
    _, q, dt, rhs = stacked_step_inputs(preset, [0.3, 0.9, 1.4, 0.6, 1.1])
    assert_workspace_step_equals_row_by_row_oracle(rhs, q, dt)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_an_euler_stack_with_a_near_overflow_dt_equals_the_row_by_row_oracle():
    """(dt a) R must not become (dt R) a when an Euler stack steps with its
    dt as a (rows, 1, 1) column either: on a (5, 3, 8) stack of
    ClippedDecay (|R| = 1.5) with one row at dt = 1.5e308 among ordinary
    ones, every state of the workspace step equals the row-by-row oracle
    bit for bit, and rk44's terms cancel to a finite q_rk in that row."""
    huge = 1.5e308
    q = np.repeat(np.linspace(1.5, 3.0, 24).reshape(1, 3, 8), 5, axis=0)
    dt = np.array([0.3, huge, 2.5, 0.9, 3.0]).reshape(-1, 1, 1)
    oracle = assert_workspace_step_equals_row_by_row_oracle(lambda x: ClippedDecay().rhs_array(x, None), q, dt)
    _, q_rk, _ = oracle["rk44"][1]
    assert np.isfinite(q_rk).all()


def test_a_leblanc_chunk_keeps_at_most_row_states_per_row():
    """The memory model behind the chunk sizes: a step of a ten-row mixed
    Leblanc chunk, the chunk of the five schemes' c = 0.1 and c = 0.2 rows,
    peaks at no more than ROW_STATES states per row (q^n, the workspace, and
    the kernel's or the monitor's temporaries)."""
    base = preset_config("leblanc_n2", "rk44", 1.0)
    tableaux = [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS] * 2
    cs = [0.1] * 5 + [0.2] * 5
    rows = limits._chunk_rows(base, len(BUILTIN_SCHEME_IDS))
    assert rows == len(tableaux)
    f0 = base.ic.build(base.grid)
    dt_fe = base.scheme.dt_fe_array(f0.stack(), base.grid)
    one_step = replace(base, t_final=0.05 * dt_fe)  # a step of 0.05 * dt_FE on every row
    run_batch(one_step, cs, tableaux=tableaux)  # warm-up: numpy's caches fill
    tracemalloc.start()
    try:
        (row, *_) = run_batch(one_step, cs, tableaux=tableaux)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.n_steps == 1
    assert peak <= rows * ROW_STATES * f0.stack().nbytes
