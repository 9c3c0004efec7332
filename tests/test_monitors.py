import math
import re

import numpy as np
import pytest

from rkstab.fields import EulerField, Grid1D, Periodic, ScalarField
from rkstab.fields import admissibility_error
from rkstab.integrator import simulate
from rkstab.monitors import Monitor, bind_scale, euler_state_floor, evaluate_functional
from rkstab.presets import preset_config
from rkstab.tableau import builtin_scheme, check_assumption1

from step_oracles import StageTrace, check_shifted_criterion, check_step_criterion, traced_run, traced_step


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


def bound_monitor(cfg, state):
    return bind_scale(cfg.monitor, evaluate_functional(cfg.monitor, state, cfg.grid))


def test_monitor_validation():
    with pytest.raises(ValueError):
        Monitor(kind="entropy")
    with pytest.raises(ValueError):
        Monitor(kind="tv", tolerance=-1.0)


@pytest.mark.parametrize("tolerance", [True, False, np.True_, "1e-12", None])
def test_monitor_rejects_a_tolerance_that_is_not_a_real_number(tolerance):
    with pytest.raises(ValueError, match=re.escape(f"tolerance must be a real number, got {tolerance!r}")):
        Monitor(kind="tv", tolerance=tolerance)
    assert Monitor(kind="tv", tolerance=np.float32(0.0)).slack == 0.0


@pytest.mark.parametrize("tolerance", [math.nan, math.inf])
@pytest.mark.parametrize("kind", ["energy", "tv", "positivity"])
def test_monitor_rejects_a_tolerance_that_is_not_finite(kind, tolerance):
    with pytest.raises(ValueError, match="tolerance must be non-negative and finite"):
        Monitor(kind=kind, tolerance=tolerance)


def test_forward_euler_verdict_structure():
    cfg, trace = upwind_trace("forward_euler")
    monitor = bound_monitor(cfg, trace.q_n)
    step_verdicts = check_step_criterion(monitor, trace)
    shifted_verdicts = check_shifted_criterion(monitor, trace)
    assert [v.where for v in step_verdicts] == ["stage", "step"]
    assert [v.where for v in shifted_verdicts] == ["shifted"]
    # the single stage is the step start itself
    assert step_verdicts[0].delta == 0.0
    # with one stage, the shifted state IS the step solution
    assert shifted_verdicts[0].delta == step_verdicts[1].delta


def test_rk44_verdict_counts():
    cfg, trace = upwind_trace("rk44")
    monitor = bound_monitor(cfg, trace.q_n)
    assert len(check_step_criterion(monitor, trace)) == 5
    assert len(check_shifted_criterion(monitor, trace)) == 4


def test_tv_verdicts_translation_invariant():
    cfg, trace = upwind_trace("rk44")
    monitor = bound_monitor(cfg, trace.q_n)
    shifted = StageTrace(
        q_n=trace.q_n + 5.0,
        dt=trace.dt,
        stage_solutions=tuple(q + 5.0 for q in trace.stage_solutions),
        stage_derivatives=trace.stage_derivatives,
        shifted_states=tuple(q + 5.0 for q in trace.shifted_states),
        q_rk=trace.q_rk + 5.0,
        grid=trace.grid,
    )
    original = [(v.passed, v.delta) for v in check_step_criterion(monitor, trace)]
    moved = [(v.passed, v.delta) for v in check_step_criterion(monitor, shifted)]
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
    rec = simulate(preset_config("dissipative", "rk44", 2.1), early_stop=True)
    assert not rec.verdict.step_pass


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
        field = cfg.ic.build(cfg.grid)
        state = field.stack() if cfg.scheme.is_euler else field.q
        monitor = cfg.monitor
        if monitor.kind != "positivity":
            monitor = bind_scale(monitor, evaluate_functional(monitor, state, cfg.grid))
        for tr in traced_run(cfg):
            if all(v.passed for v in check_shifted_criterion(monitor, tr)):
                assert all(v.passed for v in check_step_criterion(monitor, tr))
                checked += 1
    assert checked > 100


@pytest.mark.parametrize(
    "preset, c, kw",
    [
        ("dissipative", 2.1, {"t_final": 0.05}),
        ("upwind", 1.5, {"t_final": 0.5}),
        ("muscl2", 1.5, {"t_final": 10.0}),
        ("leblanc_n2", 0.6, {"n_cells": 120, "t_final": 0.05}),
        ("leblanc_n5", 0.6, {"n_cells": 120, "t_final": 0.05}),
    ],
)
def test_history_worst_deltas_come_from_the_verdicts(preset, c, kw):
    """The recorded worst deltas are exactly the worst verdict deltas of each
    step, on runs where some steps fail."""
    cfg = preset_config(preset, "rk44", c, **kw)
    traces = list(traced_run(cfg))
    record = simulate(cfg)
    monitor = cfg.monitor
    worst = min if monitor.kind == "positivity" else max
    if monitor.kind != "positivity":
        monitor = bound_monitor(cfg, traces[0].q_n)
    assert len(traces) == record.n_steps > 0
    for i, tr in enumerate(traces):
        step = worst(v.delta for v in check_step_criterion(monitor, tr))
        shifted = worst(v.delta for v in check_shifted_criterion(monitor, tr))
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
