"""The test-side step oracles against the library and the textbook step.

Acceptance criterion 7 judges the traces of ``traced_run``; these tests keep
that a check of the product's stepping: a traced run must give the history
of ``simulate`` bit for bit, and a traced step must equal ``rk_step_rows``,
the textbook step of ``tests/kernel_oracles.py``.
"""

from dataclasses import replace

import numpy as np
import pytest

from rkstab.fields import euler_minima
from rkstab.integrator import simulate
from rkstab.monitors import state_values
from rkstab.presets import PRESET_IDS, preset_config
from rkstab.tableau import BUILTIN_SCHEME_IDS, builtin_scheme

from kernel_oracles import rk_step_rows
import step_oracles
from step_oracles import check_shifted_criterion, check_step_criterion, traced_run, traced_step
from test_acceptance import _short_run_traces


def bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


def test_traced_run_gives_the_history_of_simulate_on_the_criterion_7_runs():
    """On each of criterion 7's eight runs, the history rebuilt from the
    traces (times, G of q_rk, the worst delta of each family and, for Euler,
    the minima of q_rk) equals every column of ``simulate``'s, bit for bit."""
    for cfg, monitor, traces in _short_run_traces():
        record = simulate(cfg)
        assert len(traces) == record.n_steps > 0
        worst = min if monitor.kind == "positivity" else max
        t, times = 0.0, []
        for tr in traces:
            t += tr.dt
            times.append(t)
        columns = {
            "times": times,
            "monitor_step_values": [state_values(monitor, cfg.grid, tr.q_rk) for tr in traces],
            "monitor_stage_worst": [worst(v.delta for v in check_step_criterion(monitor, tr)) for tr in traces],
            "monitor_shifted_worst": [worst(v.delta for v in check_shifted_criterion(monitor, tr)) for tr in traces],
        }
        if cfg.scheme.is_euler:
            columns["min_rho"], columns["min_rhoe"] = zip(*(euler_minima(tr.q_rk) for tr in traces))
        else:
            assert record.min_rho is None and record.min_rhoe is None
        for name, column in columns.items():
            np.testing.assert_array_equal(bits(column), bits(getattr(record, name)), err_msg=name)


#: Tolerance of the comparison with the textbook step: none.  The measured
#: worst residual over these 930 states (five presets, five tableaux, three
#: multipliers, one state and a stack of three) is 0: every state is equal
#: bit for bit, NaN in the same cells.
@pytest.mark.parametrize("preset", PRESET_IDS)
@pytest.mark.parametrize("name", BUILTIN_SCHEME_IDS)
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # c = 1.4 takes Leblanc's stages out of the admissible set
def test_traced_step_equals_the_textbook_step(preset, name):
    """Every stage, q_rk and shifted state of ``traced_step`` equals
    ``rk_step_rows``: on one state with a float dt, and on a stack of rows
    with a column of dt, which the traced step spreads over the cells."""
    base = preset_config(preset, "rk44", 1.0)
    tab = builtin_scheme(name)
    f0 = base.ic.build(base.grid)
    q0 = f0.stack() if base.scheme.is_euler else f0.q
    rhs = lambda x: base.scheme.rhs_array(x, base.grid)  # noqa: E731
    cs = np.array([0.3, 0.9, 1.4])
    q = np.repeat(q0[None], len(cs), axis=0)
    dts = np.broadcast_to(cs * base.scheme.dt_fe_array(q, base.grid), cs.shape)
    steps = rk_step_rows([tab] * len(cs), rhs, q, dts.tolist())
    stacked = traced_step(tab, rhs, q, dts.reshape((-1,) + (1,) * q0.ndim))
    for k, (stages, q_rk, shifted) in enumerate(steps):
        alone = traced_step(tab, rhs, q0, float(dts[k]))
        want = (*stages, q_rk, *shifted)
        for trace, row in ((alone, ...), (stacked, k)):
            got = (*trace.stage_solutions, trace.q_rk, *trace.shifted_states)
            assert len(got) == len(want) == 2 * tab.s + 1
            for x, y in zip(got, want):
                np.testing.assert_array_equal(x[row], y)


@pytest.mark.parametrize(
    "preset, c, kw",
    [
        ("dissipative", 2.1, {"t_final": 0.05}),
        ("dissipative", 0.5, {"t_final": 0.05, "tolerance": 0.0}),
        ("upwind", 1.5, {"t_final": 0.5}),
        ("upwind", 1.2, {"t_final": 0.5, "tolerance": 0.0}),
        ("muscl2", 1.5, {"t_final": 10.0}),
        ("muscl2", 1.0, {"t_final": 10.0, "tolerance": 0.0}),
        ("leblanc_n2", 0.6, {"n_cells": 120, "t_final": 0.05}),
    ],
)
def test_the_loop_fails_a_criterion_where_the_verdict_oracles_do(preset, c, kw):
    """``simulate``'s first failure of each criterion is the first traced
    rk44 step whose oracle verdicts do not all pass, at the preset's
    tolerance and at zero tolerance, where a state whose delta is exactly 0
    (q^n itself, a shifted state of equal TV) passes.  The oracles judge
    apart from ``rkstab.monitors``, so a wrong rule there fails here."""
    cfg = preset_config(preset, "rk44", c, **kw)
    traces = list(traced_run(cfg))
    monitor = cfg.monitor
    if monitor.kind != "positivity":  # the run's slack scale, max(1, |G(q^0)|)
        monitor = replace(monitor, scale=max(1.0, abs(step_oracles._value(monitor, cfg.grid, traces[0].q_n))))
    record = simulate(cfg)
    assert len(traces) == record.n_steps > 0
    first = {}
    for step, tr in enumerate(traces):
        for name, check in (("step", check_step_criterion), ("shifted", check_shifted_criterion)):
            if not all(v.passed for v in check(monitor, tr)):
                first.setdefault(name, step)
    verdict = record.verdict
    assert (verdict.first_step_failure, verdict.first_shifted_failure) == (first.get("step"), first.get("shifted"))
