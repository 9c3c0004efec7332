import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rkstab.fields import EulerField, Grid1D, Periodic, ScalarField
from rkstab.fields import admissibility_error
from rkstab.integrator import run_batch, simulate
from rkstab.monitors import Monitor, euler_state_floor, evaluate_functional, judge
from rkstab.presets import preset_config
from rkstab.tableau import builtin_scheme, check_assumption1

from step_oracles import StageTrace, check_shifted_criterion, check_step_criterion, run_slack, traced_run, traced_step


def positivity_of_trace(trace):
    """Strict positivity of every state in the trace: stages, step, shifted."""
    monitor = Monitor(kind="positivity")
    return check_step_criterion(monitor, trace) + check_shifted_criterion(monitor, trace)


def upwind_trace(scheme_id="forward_euler", dt_factor=1.0):
    cfg = preset_config("upwind", scheme_id, dt_factor)
    field = cfg.ic.build(cfg.grid)
    dt = dt_factor * cfg.scheme.dt_fe_array(field.q, cfg.grid)
    return cfg, traced_step(
        cfg.tableau,
        lambda q: cfg.scheme.rhs_array(q, cfg.grid),
        field.q,
        dt,
        cfg.grid,
    )


def test_monitor_validation():
    with pytest.raises(ValueError):
        Monitor(kind="entropy")
    with pytest.raises(ValueError):
        Monitor(kind="tv", tolerance=-1.0)


@pytest.mark.parametrize("tolerance", [True, False, np.True_, "1e-12"])
def test_monitor_rejects_a_tolerance_that_is_not_a_real_number(tolerance):
    with pytest.raises(ValueError, match=re.escape(f"tolerance must be a real number, got {tolerance!r}")):
        Monitor(kind="tv", tolerance=tolerance)
    assert Monitor(kind="tv", tolerance=np.float32(0.0)).tolerance == 0.0


def test_a_monitor_rejects_a_setting_its_kind_does_not_read():
    """Built directly, a positivity monitor with a tolerance or an energy
    monitor with tv_wrap used to construct and run with the value ignored."""
    with pytest.raises(ValueError, match="tolerance applies to the energy and tv monitors only, not to 'positivity'"):
        Monitor("positivity", tolerance=0.5)
    for kind, wrap in (("energy", True), ("positivity", False)):
        with pytest.raises(ValueError, match=f"tv_wrap applies to the tv monitor only, not to '{kind}'"):
            Monitor(kind, tv_wrap=wrap)
    # An omitted tolerance is the kind's default: 1e-12 where it is read.
    assert [Monitor(kind).tolerance for kind in ("energy", "tv", "positivity")] == [1e-12, 1e-12, None]
    assert Monitor("tv", tolerance=None) == Monitor("tv", tolerance=1e-12)
    for monitor in (Monitor("positivity"), Monitor("tv", 0.5, True)):
        assert replace(monitor) == monitor


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["energy", "tv", "positivity"])
def test_monitor_rejects_a_tolerance_that_is_not_finite(kind, tolerance):
    with pytest.raises(ValueError, match="tolerance must be non-negative and finite"):
        Monitor(kind=kind, tolerance=tolerance)


def test_forward_euler_verdict_structure():
    cfg, trace = upwind_trace("forward_euler")
    step_verdicts = check_step_criterion(cfg.monitor, trace, run_slack(cfg))
    shifted_verdicts = check_shifted_criterion(cfg.monitor, trace, run_slack(cfg))
    assert [v.where for v in step_verdicts] == ["stage", "step"]
    assert [v.where for v in shifted_verdicts] == ["shifted"]
    # the single stage is the step start itself
    assert step_verdicts[0].delta == 0.0
    # with one stage, the shifted state IS the step solution
    assert shifted_verdicts[0].delta == step_verdicts[1].delta


def test_rk44_verdict_counts():
    cfg, trace = upwind_trace("rk44")
    assert len(check_step_criterion(cfg.monitor, trace)) == 5
    assert len(check_shifted_criterion(cfg.monitor, trace)) == 4


def test_tv_verdicts_translation_invariant():
    cfg, trace = upwind_trace("rk44")
    slack = run_slack(cfg)
    shifted = StageTrace(
        q_n=trace.q_n + 5.0,
        dt=trace.dt,
        stage_solutions=tuple(q + 5.0 for q in trace.stage_solutions),
        stage_derivatives=trace.stage_derivatives,
        shifted_states=tuple(q + 5.0 for q in trace.shifted_states),
        q_rk=trace.q_rk + 5.0,
        grid=trace.grid,
    )
    original = [(v.passed, v.delta) for v in check_step_criterion(cfg.monitor, trace, slack)]
    moved = [(v.passed, v.delta) for v in check_step_criterion(cfg.monitor, shifted, slack)]
    for (p0, d0), (p1, d1) in zip(original, moved):
        assert p0 == p1
        assert d0 == pytest.approx(d1, abs=1e-12)


def test_zero_tolerance_is_exact_on_constant_fields():
    grid = Grid1D(8, 0.0, 1.0, Periodic())
    q = np.full(8, 1.25)
    trace = traced_step(
        builtin_scheme("midpoint"), lambda s: np.zeros_like(s), q, 0.5, grid
    )
    for kind in ("energy", "tv"):
        monitor = Monitor(kind=kind, tolerance=0.0)
        assert all(v.passed for v in check_step_criterion(monitor, trace))
        assert all(v.passed for v in check_shifted_criterion(monitor, trace))
    # any genuine increase fails at zero tolerance
    bumped = StageTrace(
        q_n=q,
        dt=0.5,
        stage_solutions=(q, q),
        stage_derivatives=trace.stage_derivatives,
        shifted_states=trace.shifted_states,
        q_rk=q + np.linspace(0.0, 1e-13, 8),
        grid=grid,
    )
    monitor = Monitor(kind="tv", tolerance=0.0)
    assert not check_step_criterion(monitor, bumped)[-1].passed


def test_nan_states_fail_all_monitors():
    grid = Grid1D(4, 0.0, 1.0, Periodic())
    q = np.ones(4)
    bad = q.copy()
    bad[1] = np.nan
    trace = StageTrace(
        q_n=q,
        dt=0.1,
        stage_solutions=(q,),
        stage_derivatives=(np.zeros(4),),
        shifted_states=(bad,),
        q_rk=bad,
        grid=grid,
    )
    for kind in ("energy", "tv"):
        monitor = Monitor(kind=kind)
        assert not check_step_criterion(monitor, trace)[-1].passed
        assert not check_shifted_criterion(monitor, trace)[0].passed


@pytest.mark.parametrize("row", [1, 2])  # NaN in momentum, NaN in total energy
def test_nan_states_fail_positivity_monitor(row):
    U = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
    bad = U.copy()
    bad[row, 1] = np.nan
    assert not euler_state_floor(bad) > 0.0
    trace = StageTrace(
        q_n=U,
        dt=0.1,
        stage_solutions=(U,),
        stage_derivatives=(np.zeros_like(U),),
        shifted_states=(bad,),
        q_rk=bad,
    )
    monitor = Monitor(kind="positivity")
    assert not check_step_criterion(monitor, trace)[-1].passed
    assert not check_shifted_criterion(monitor, trace)[0].passed
    assert [v.passed for v in positivity_of_trace(trace)] == [True, False, False]
    # the locator agrees on the same cell
    error = admissibility_error(np.hstack([bad, U[:, :1]]))
    assert str(error) == "non-positive internal energy in Euler state (cell 1)"


def euler_trace(n=32, dt_factor=1.0):
    cfg = preset_config("leblanc_n2", "ssprk33", dt_factor, n_cells=n)
    field = cfg.ic.build(cfg.grid)
    U = field.stack()
    dt = dt_factor * cfg.scheme.dt_fe_array(U, cfg.grid)
    return traced_step(
        cfg.tableau, lambda s: cfg.scheme.rhs_array(s, cfg.grid), U, dt, cfg.grid
    )


def test_positivity_of_trace_quiescent_gas():
    grid = Grid1D(6, 0.0, 1.0, Periodic())
    U = EulerField(grid, np.full(6, 2.0), np.zeros(6), np.full(6, 3.0), 1.4).stack()
    trace = traced_step(
        builtin_scheme("rk44"), lambda s: np.zeros_like(s), U, 0.3, grid
    )
    verdicts = positivity_of_trace(trace)
    assert len(verdicts) == 9  # 4 stages + step + 4 shifted
    assert all(v.passed for v in verdicts)
    assert all(v.delta == pytest.approx(2.0) for v in verdicts)  # min(rho, rho*e) = 2


def test_positivity_of_trace_flags_doctored_stage():
    trace = euler_trace()
    bad_state = trace.stage_solutions[2].copy()
    bad_state[0, 5] = -1e-16
    doctored = StageTrace(
        q_n=trace.q_n,
        dt=trace.dt,
        stage_solutions=(trace.stage_solutions[0], trace.stage_solutions[1], bad_state),
        stage_derivatives=trace.stage_derivatives,
        shifted_states=trace.shifted_states,
        q_rk=trace.q_rk,
        grid=trace.grid,
    )
    verdicts = check_step_criterion(Monitor(kind="positivity"), doctored)
    assert not verdicts[2].passed
    assert verdicts[2].where == "stage" and verdicts[2].index == 2
    assert verdicts[2].delta == pytest.approx(-1e-16)


def test_euler_state_floor_density_short_circuit():
    U = np.array([[1.0, -0.5], [0.0, 0.0], [1.0, 1.0]])
    assert euler_state_floor(U) == -0.5  # rho*e never evaluated for the bad cell


# ---------------------------------------------------------------------------
# criterion spot checks against the measured tables

def test_dissipative_rk44_all_pass_at_unit_factor():
    rec = simulate(preset_config("dissipative", "rk44", 1.0, t_final=0.25))
    assert rec.verdict.passed


def test_dissipative_rk44_fails_beyond_step_limit():
    # measured c_p = 2.0 for rk44: at 2.1 some verdict fails
    cfg = preset_config("dissipative", "rk44", 2.1)
    assert not run_batch(cfg, [cfg.dt_factor], early_stop=True)[0].verdict.step_pass


def test_upwind_rk44_shifted_fails_beyond_limit():
    # measured c_s = 1.4: at 1.5 a shifted state fails while the
    # stage/step solutions are still fine (c_p = 2.2)
    rec = simulate(preset_config("upwind", "rk44", 1.5))
    assert not rec.verdict.shifted_pass
    assert rec.verdict.step_pass


def test_convexity_implication_on_recorded_traces():
    """All shifted states passing + coefficients in [0,1] forces the step
    criterion to pass: the stages are convex combinations of those states."""
    cases = [
        ("dissipative", "rk44", 1.0, {"t_final": 0.05}),
        ("dissipative", "midpoint", 1.9, {"t_final": 0.05}),
        ("upwind", "rk44", 1.2, {}),
        ("upwind", "ssprk33", 1.0, {}),
        ("muscl2", "rk44", 1.0, {"t_final": 40.0}),
        ("leblanc_n2", "ssprk33", 0.8, {"n_cells": 120}),
        ("leblanc_n2", "rk44", 0.5, {"n_cells": 120}),
    ]
    checked = 0
    for preset, scheme, c, kw in cases:
        cfg = preset_config(preset, scheme, c, **kw)
        assert check_assumption1(cfg.tableau)
        slack = run_slack(cfg)
        for tr in traced_run(cfg):
            if all(v.passed for v in check_shifted_criterion(cfg.monitor, tr, slack)):
                assert all(v.passed for v in check_step_criterion(cfg.monitor, tr, slack))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "preset, c, kw",
    [
        ("dissipative", 2.1, {"t_final": 0.05}),
        ("upwind", 1.5, {"t_final": 0.5}),
        ("muscl2", 1.5, {"t_final": 10.0}),
        ("leblanc_n2", 0.6, {"n_cells": 120, "t_final": 0.05}),
    ],
)
def test_history_worst_deltas_come_from_the_verdicts(preset, c, kw):
    """The recorded worst deltas are exactly the worst verdict deltas of each
    step, on runs where some steps fail."""
    cfg = preset_config(preset, "rk44", c, **kw)
    traces = list(traced_run(cfg))
    record = simulate(cfg)
    worst = min if cfg.monitor.kind == "positivity" else max
    assert len(traces) == record.n_steps > 0
    for i, tr in enumerate(traces):
        step = worst(v.delta for v in check_step_criterion(cfg.monitor, tr))
        shifted = worst(v.delta for v in check_shifted_criterion(cfg.monitor, tr))
        assert record.monitor_stage_worst[i] == step
        assert record.monitor_shifted_worst[i] == shifted
    assert not record.verdict.passed and record.verdict.aborted_step is None


@pytest.mark.parametrize("wrap", ["no", 0, 1.0])
def test_monitor_tv_wrap_must_be_none_or_a_bool(wrap):
    """A truthy non-bool such as "no" used to turn the wrap term on."""
    with pytest.raises(ValueError, match=re.escape(f"tv_wrap must be None or a bool, got {wrap!r}")):
        Monitor(kind="tv", tv_wrap=wrap)
    assert [Monitor(kind="tv", tv_wrap=w).tv_wrap for w in (None, False, True)] == [None, False, True]


def test_positivity_has_no_scalar_functional():
    grid = Grid1D(4, 0.0, 1.0)
    with pytest.raises(ValueError, match="positivity monitor does not define a scalar functional"):
        evaluate_functional(Monitor(kind="positivity"), np.ones((3, 4)), grid)


# ---------------------------------------------------------------------------
# judge: the rule table on hand-made (rows, 2s+1) values

STAGE_COUNTS = [1, 2, 3, 4]


def in_family(s: int) -> np.ndarray:
    """``(2s+1, 2)``: whether each column of a step's values is in its step
    family (q^n, the stages and q_rk) or its shifted family."""
    step = np.arange(2 * s + 1) <= s
    return np.stack([step, ~step], axis=1)


@pytest.mark.parametrize("s", STAGE_COUNTS)
@pytest.mark.parametrize("kind", ["energy", "tv"])
def test_judge_passes_a_rise_of_exactly_the_slack_and_fails_the_next_float(kind, s):
    """Row ``r`` raises state ``r + 1`` over q^n (0.5) by exactly the slack,
    then by the next float up; the family holding it passes, then fails."""
    slack, rows = 1.0, np.arange(2 * s)
    for value, rise, fails in ((1.5, slack, False), (np.nextafter(1.5, np.inf), np.nextafter(slack, np.inf), True)):
        values = np.full((2 * s, 2 * s + 1), 0.5)
        values[rows, rows + 1] = value
        worst, fail = judge(Monitor(kind), values, s, slack)
        raised = in_family(s)[rows + 1]
        np.testing.assert_array_equal(worst, np.where(raised, rise, 0.0))
        np.testing.assert_array_equal(fail, raised & fails)


@pytest.mark.parametrize("s", STAGE_COUNTS)
def test_judge_fails_a_floor_of_zero_or_minus_zero_and_passes_the_least_positive_float(s):
    """Positivity reads no slack: row ``r`` sets the floor of state ``r``
    (q^n included) among floors of 1; only that state's family can fail."""
    rows = np.arange(2 * s + 1)
    for floor, fails in ((0.0, True), (-0.0, True), (5e-324, False)):
        values = np.ones((2 * s + 1, 2 * s + 1))
        values[rows, rows] = floor
        worst, fail = judge(Monitor("positivity"), values, s, 1.0)
        held = in_family(s)[rows]
        np.testing.assert_array_equal(worst, np.where(held, floor, 1.0))
        assert np.all(np.signbit(worst[held]) == np.signbit(floor))
        np.testing.assert_array_equal(fail, held & fails)


@pytest.mark.parametrize("s", STAGE_COUNTS)
@pytest.mark.parametrize("kind", ["energy", "tv", "positivity"])
def test_a_nan_makes_its_family_worst_nan_and_fails_it(kind, s):
    """Row ``r`` holds a NaN in column ``r``.  A NaN at q^n (column 0) is in
    every delta of an energy or tv step, so both families fail there."""
    rows = np.arange(2 * s + 1)
    values = np.full((2 * s + 1, 2 * s + 1), 0.25 if kind == "positivity" else 0.0)
    values[rows, rows] = np.nan
    worst, fail = judge(Monitor(kind), values, s, 1e-12)
    held = in_family(s)[rows]
    if kind != "positivity":
        held[0] = True
    np.testing.assert_array_equal(np.isnan(worst), held)
    np.testing.assert_array_equal(fail, held)


@pytest.mark.parametrize("s", STAGE_COUNTS)
@pytest.mark.parametrize("kind", ["energy", "tv", "positivity"])
def test_judge_takes_the_max_or_the_min_over_each_family(kind, s):
    """A family's worst is the max of value - value(q^n) over columns 0..s
    and s+1..2s for energy and tv, the min of the floors for positivity,
    bit for bit; a family fails when its worst does."""
    values = np.random.default_rng(s).uniform(-1.0, 1.0, (64, 2 * s + 1))
    slack = 0.1
    worst, fail = judge(Monitor(kind), values, s, slack)
    deltas = values if kind == "positivity" else values - values[:, :1]
    reduce = np.min if kind == "positivity" else np.max
    expected = np.stack([reduce(deltas[:, : s + 1], axis=1), reduce(deltas[:, s + 1 :], axis=1)], axis=1)
    np.testing.assert_array_equal(worst, expected)
    np.testing.assert_array_equal(fail, expected <= 0.0 if kind == "positivity" else expected > slack)
    assert 0 < np.count_nonzero(fail) < fail.size
