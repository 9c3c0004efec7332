import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from rkstab.fields import EulerField, Grid1D, NonPhysicalStateError, Periodic, ScalarField
from rkstab.fields import admissibility_error, euler_minima
from rkstab.integrator import (
    END_TIME_TOLERANCE,
    SimulationConfig,
    check_record_every,
    run_batch,
    simulate,
)
from rkstab.monitors import Monitor
from rkstab.presets import preset_config
from rkstab.spatial import LaxFriedrichsEuler
from rkstab.tableau import BUILTIN_SCHEME_IDS, ButcherTableau, builtin_scheme

from step_oracles import modified_representation_stage, traced_run, traced_step


def modified_representation_solution(tableau, trace):
    """Step solution rebuilt as sum_j b_j (q^n + dt R^j)."""
    acc = 0.0 * trace.q_n
    for j in range(tableau.s):
        w = tableau.b[j]
        if w != 0.0:
            acc = acc + w * trace.shifted_states[j]
    return acc


def scalar_ode(tableau, rhs, q0, dt, n_steps):
    q = np.array([q0])
    for _ in range(n_steps):
        q = traced_step(tableau, rhs, q, dt).q_rk
    return float(q[0])


# ---------------------------------------------------------------------------
# single steps on scalar ODEs

def test_forward_euler_step_decay():
    trace = traced_step(builtin_scheme("forward_euler"), lambda q: -q, np.array([1.0]), 0.1)
    assert trace.q_rk[0] == pytest.approx(0.9, rel=1e-15)


def test_rk44_step_matches_degree4_taylor():
    # oracle for q' = q over one unit step: 1 + 1 + 1/2 + 1/6 + 1/24
    taylor4 = sum(1.0 / math.factorial(k) for k in range(5))
    trace = traced_step(builtin_scheme("rk44"), lambda q: q, np.array([1.0]), 1.0)
    assert trace.q_rk[0] == pytest.approx(taylor4, rel=1e-15)


def test_midpoint_step_on_growth():
    trace = traced_step(builtin_scheme("midpoint"), lambda q: q, np.array([1.0]), 1.0)
    assert trace.q_rk[0] == pytest.approx(2.5, rel=1e-15)


# ---------------------------------------------------------------------------
# trace structure

def test_trace_invariants(any_builtin):
    rng = np.random.default_rng(1)
    M = rng.normal(size=(6, 6))
    rhs = lambda q: M @ q  # noqa: E731
    q_n = rng.normal(size=6)
    dt = 0.37
    trace = traced_step(any_builtin, rhs, q_n, dt)
    s = any_builtin.s
    assert len(trace.stage_solutions) == s
    assert len(trace.stage_derivatives) == s
    assert len(trace.shifted_states) == s
    # first stage is the step start itself
    np.testing.assert_array_equal(trace.stage_solutions[0], q_n)
    # shifted states satisfy their defining relation bit-exactly
    for r_j, shifted in zip(trace.stage_derivatives, trace.shifted_states):
        np.testing.assert_array_equal(shifted, q_n + dt * r_j)
    # step solution matches the weighted sum of derivatives
    expected = q_n + dt * sum(
        b * r for b, r in zip(any_builtin.b, trace.stage_derivatives)
    )
    np.testing.assert_allclose(trace.q_rk, expected, rtol=1e-13)


# ---------------------------------------------------------------------------
# modified representation

def test_modified_representation_first_stage_is_start():
    trace = traced_step(builtin_scheme("rk44"), lambda q: q, np.array([2.0]), 0.3)
    np.testing.assert_array_equal(
        modified_representation_stage(builtin_scheme("rk44"), trace, 0), trace.q_n
    )


def test_modified_representation_rk44_stage2():
    """(1 - 1/2) q^n + 1/2 (q^n + dt R^1) is exactly the standard stage."""
    t = builtin_scheme("rk44")
    trace = traced_step(t, lambda q: np.sin(q), np.array([0.7, -0.2]), 0.25)
    np.testing.assert_allclose(
        modified_representation_stage(t, trace, 1), trace.stage_solutions[1], rtol=1e-15
    )


def random_consistent_tableau(rng, s):
    A = np.zeros((s, s))
    for i in range(1, s):
        A[i, :i] = rng.uniform(0.0, 1.0 / s, size=i)
    b = rng.uniform(0.1, 1.0, size=s)
    b /= b.sum()
    return ButcherTableau("random", A, b)


def test_modified_representation_random_tableaux():
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = int(rng.integers(1, 6))
        t = random_consistent_tableau(rng, s)
        M = rng.normal(size=(4, 4))
        d = rng.normal(size=4)
        rhs = lambda q: M @ q + d  # noqa: E731
        trace = traced_step(t, rhs, rng.normal(size=4), 0.2)
        for i in range(s):
            np.testing.assert_allclose(
                modified_representation_stage(t, trace, i),
                trace.stage_solutions[i],
                rtol=1e-13,
                atol=1e-13,
            )
        np.testing.assert_allclose(
            modified_representation_solution(t, trace), trace.q_rk, rtol=1e-13, atol=1e-13
        )


# ---------------------------------------------------------------------------
# convergence order on q' = q

EXPECTED_ORDER = {
    "forward_euler": 1,
    "midpoint": 2,
    "ssprk33": 3,
    "rk31": 3,
    "rk44": 4,
}


@pytest.mark.parametrize("scheme_id", BUILTIN_SCHEME_IDS)
def test_observed_convergence_order(scheme_id):
    t = builtin_scheme(scheme_id)
    errors = []
    dts = [2.0 ** -k for k in range(3, 8)]
    for dt in dts:
        value = scalar_ode(t, lambda q: q, 1.0, dt, int(round(1.0 / dt)))
        errors.append(abs(value - math.e))
    slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
    assert slope == pytest.approx(EXPECTED_ORDER[scheme_id], abs=0.1)


# ---------------------------------------------------------------------------
# simulate

def test_simulate_dissipative_energy_decreases():
    cfg = preset_config("dissipative", "forward_euler", 1.0, t_final=0.01)
    rec = simulate(cfg)
    assert rec.verdict.passed
    g = rec.monitor_step_values
    assert np.all(np.diff(g) < 0.0)
    assert rec.n_steps == len(rec.times)


def test_simulate_upwind_tv_non_increasing():
    cfg = preset_config("upwind", "rk44", 1.0)
    rec = simulate(cfg)
    assert rec.verdict.passed
    tv = rec.monitor_step_values
    assert np.all(np.diff(tv) <= 1e-12)
    # smooth final profile: no cell-to-cell oscillation beyond the data range
    assert rec.final_field.q.min() >= 0.25 - 1e-8
    assert rec.final_field.q.max() <= 0.75 + 1e-8


def test_simulate_truncates_last_step_to_t_final():
    cfg = preset_config("dissipative", "forward_euler", 1.0, t_final=0.025)
    rec = simulate(cfg)
    # dt_FE = 0.006 * 0.04 = 2.4e-4; 0.025 / 2.4e-4 = 104.2: 104 whole steps
    # plus one truncated step landing exactly on t_final
    assert rec.n_steps == 105
    assert rec.times[-1] == pytest.approx(0.025, abs=1e-14)
    assert np.all(np.diff(rec.times) > 0.0)


def test_simulate_records_every_step():
    cfg = preset_config("upwind", "midpoint", 1.0, t_final=0.5)
    rec = simulate(cfg)
    assert (
        len(rec.times)
        == len(rec.monitor_step_values)
        == len(rec.monitor_stage_worst)
        == len(rec.monitor_shifted_worst)
        == rec.n_steps
    )


def test_simulate_gradient_descent_direction_on_dissipative():
    """q^T R(q^n) < 0 along the energy-dissipative trajectory (descent proxy)."""
    cfg = preset_config("dissipative", "rk44", 1.0, t_final=0.005)
    dots = [float(tr.q_n @ tr.stage_derivatives[0]) for tr in traced_run(cfg)]
    assert dots and all(d < 0.0 for d in dots)


def test_simulate_positivity_run_leblanc_midpoint():
    cfg = preset_config("leblanc_n2", "midpoint", 1.0)
    rec = simulate(cfg)
    assert rec.verdict.passed
    assert rec.min_rho is not None and np.all(rec.min_rho > 0.0)
    assert np.all(rec.min_rhoe > 0.0)
    assert rec.times[-1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_simulate_aborts_on_nonphysical_state():
    cfg = preset_config("leblanc_n2", "forward_euler", 4.5)
    rec = simulate(cfg)
    v = rec.verdict
    assert not v.passed and not v.step_pass and not v.shifted_pass
    assert v.aborted_step is not None or v.first_step_failure is not None


def test_abort_after_lost_positivity_names_quantity_and_cell():
    """ssprk33 at c = 1 leaves a negative density in the step-0 solution; the
    next dt_FE is NaN and the abort reason locates the bad cell."""
    rec = simulate(preset_config("leblanc_n2", "ssprk33", 1.0))
    v = rec.verdict
    assert (v.aborted_step, rec.n_steps) == (1, 1)
    assert (v.first_step_failure, v.first_shifted_failure) == (0, 0)
    assert not v.step_pass and not v.shifted_pass
    error = admissibility_error(rec.final_field.stack())  # the last recorded step solution
    assert str(error).startswith("non-positive density") and error.cell is not None
    assert v.abort_reason.startswith("degenerate_dt")
    assert "density" in v.abort_reason
    assert f"(cell {error.cell})" in v.abort_reason


def test_simulate_early_stop_shortens_failed_runs():
    """``run_batch``'s ``early_stop``, which sweeps use and ``simulate`` does
    not, stops a run once both criteria failed and keeps its verdict."""
    cfg = preset_config("upwind", "forward_euler", 3.0)
    full = simulate(cfg).verdict
    (stopped,) = run_batch(cfg, [cfg.dt_factor], early_stop=True)
    stopped = stopped.verdict
    assert not full.passed and not stopped.passed
    assert stopped.n_steps < full.n_steps
    assert (stopped.first_step_failure, stopped.first_shifted_failure) == (
        full.first_step_failure,
        full.first_shifted_failure,
    )


@pytest.mark.parametrize("field", ["t_final", "dt_factor"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
def test_config_rejects_non_finite_or_non_positive_times(field, value):
    """An infinite t_final would end the run before its first step and
    report a pass."""
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        preset_config("upwind", "rk44", **{field: value})


@pytest.mark.parametrize("field", ["t_final", "dt_factor"])
@pytest.mark.parametrize("value", [True, False, np.True_, "1.0"])
def test_config_rejects_a_time_that_is_not_a_real_number(field, value):
    """A bool is an int to Python, so preset_config("upwind", "rk44", True)
    used to run at dt_factor 1."""
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {value!r}")):
        preset_config("upwind", "rk44", **{field: value})
    assert getattr(preset_config("upwind", "rk44", **{field: np.float32(0.5)}), field) == 0.5


@pytest.mark.parametrize("record_every", [2.0, True, None, "2"])
def test_config_rejects_a_record_every_that_is_not_an_integer(record_every, tmp_path):
    """The history stride is the writer's setting, checked by
    ``check_record_every`` (``rkstab run`` calls it before the run): 2.0
    used to run the whole simulation and then fail in write_csv."""
    message = re.escape(f"record_every must be an integer, got {record_every!r}")
    with pytest.raises(ValueError, match=message):
        check_record_every(record_every)
    record = simulate(preset_config("upwind", "rk44", t_final=0.1))
    with pytest.raises(ValueError, match=message):
        record.write_csv(tmp_path / "history.csv", record_every)
    assert not (tmp_path / "history.csv").exists()
    record.write_csv(tmp_path / "history.csv", np.int64(2))
    n = record.n_steps  # every other step and the last, under a header
    assert len((tmp_path / "history.csv").read_text().splitlines()) == 1 + len(range(0, n, 2)) + ((n - 1) % 2 != 0)


def test_a_record_without_history_writes_none(tmp_path):
    """A run_batch row that was not recorded keeps its verdict only."""
    (record,) = run_batch(preset_config("upwind", "rk44", t_final=0.1), [0.5])
    assert record.verdict.passed and record.n_steps > 0
    assert record.times is None and record.min_rho is None and record.final_field is None
    with pytest.raises(ValueError, match="no history was recorded"):
        record.write_csv(tmp_path / "history.csv")
    assert not (tmp_path / "history.csv").exists()


def test_an_euler_initial_field_must_have_the_scheme_gamma():
    """An initial field built with another gamma than the scheme's used to
    run: its energy made with 1.4, its steps with 5/3."""
    base = preset_config("leblanc_n2", "rk44", t_final=0.01, n_cells=8)
    cfg = dataclasses.replace(base, ic=dataclasses.replace(base.ic, gamma=1.4))
    message = "the initial field's gamma 1.4 differs from the scheme's gamma 1.6666666666666667"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_batch(cfg, [0.5, 1.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate(cfg)
    assert simulate(base).final_field.gamma == base.scheme.gamma


@pytest.mark.parametrize("t_final", [1e-13, END_TIME_TOLERANCE])
def test_config_rejects_a_t_final_the_end_tolerance_swallows(t_final):
    """A run ends once t_final - t is within the end-time tolerance, so such a
    t_final used to end the run before its first step, with a pass."""
    with pytest.raises(ValueError, match="t_final must be positive and finite"):
        preset_config("leblanc_n2", "rk44", t_final=t_final)
    rec = simulate(preset_config("leblanc_n2", "rk44", t_final=2 * END_TIME_TOLERANCE, n_cells=8))
    assert rec.n_steps == 1 and rec.times[-1] == 2 * END_TIME_TOLERANCE


@dataclasses.dataclass(frozen=True)
class RaisingEuler(LaxFriedrichsEuler):
    """The LLF scheme with a kernel that raises from its ``raise_at``-th call
    on; ``calls`` holds each call's ``with_dt_fe``."""

    raise_at: int = 1
    calls: list = dataclasses.field(default_factory=list)

    def rhs_array(self, U, grid, *, with_dt_fe=False):
        self.calls.append(with_dt_fe)
        if len(self.calls) >= self.raise_at:
            raise NonPhysicalStateError("kernel refused", cell=3)
        return super().rhs_array(U, grid, with_dt_fe=with_dt_fe)


def assert_is_the_kernel_error(error):
    """The kernel's own error, unconverted: its type, message and cell."""
    assert type(error) is NonPhysicalStateError
    assert str(error) == "kernel refused (cell 3)" and error.cell == 3


@pytest.mark.parametrize("n_rows", [1, 2])
def test_a_raising_kernel_raises_out_of_run_batch_at_any_batch_size(n_rows):
    """The loop, not the kernel, judges admissibility: a kernel that raises is
    a fault, and its error leaves run_batch at one row as at two (one row
    used to turn it into an abort verdict), from the stage-0 call that gives
    the step bound, as the kernel raised it."""
    cfg = dataclasses.replace(preset_config("leblanc_n2", n_cells=8, t_final=0.01), scheme=RaisingEuler())
    with pytest.raises(NonPhysicalStateError) as err:
        run_batch(cfg, [1.0, 0.5][:n_rows])
    assert_is_the_kernel_error(err.value)


@pytest.mark.parametrize("where", ["traced_step", 1, 2])
def test_an_rhs_error_inside_a_step_leaves_it_unconverted(where):
    """A step used to re-raise an RHS error as an error of its own carrying
    the stage index.  An error raised at stage 2 of the first step now leaves
    traced_step, and run_batch at one row and at two, as the kernel raised it."""
    scheme = RaisingEuler(raise_at=3)
    cfg = dataclasses.replace(preset_config("leblanc_n2", n_cells=8, t_final=0.01), scheme=scheme)
    with pytest.raises(NonPhysicalStateError) as err:
        if where == "traced_step":
            rhs = lambda U: scheme.rhs_array(U, cfg.grid)  # noqa: E731
            traced_step(builtin_scheme("rk44"), rhs, cfg.ic.build(cfg.grid).stack(), 1e-4)
        else:
            run_batch(cfg, [1.0, 0.5][:where])
    assert_is_the_kernel_error(err.value)
    # stage 0's call (which gives the step bound in run_batch), then stages 1 and 2
    assert scheme.calls == [where != "traced_step", False, False]


def test_preset_lf_accepts_local_or_global_only():
    assert preset_config("leblanc_n2", lf="global").scheme.local is False
    for lf in ("Local", "glob", ""):
        with pytest.raises(ValueError, match="lf must be 'local' or 'global'"):
            preset_config("leblanc_n2", lf=lf)


def test_simulate_rejects_positivity_monitor_on_scalar_problem():
    cfg = preset_config("upwind", "rk44", 1.0)
    with pytest.raises(ValueError, match="positivity"):
        SimulationConfig(
            scheme=cfg.scheme,
            tableau=cfg.tableau,
            grid=cfg.grid,
            ic=cfg.ic,
            t_final=cfg.t_final,
            dt_factor=1.0,
            monitor=Monitor(kind="positivity"),
        )


def bits(x):
    """Float bits, with every NaN alike: signed zeros differ, NaN equals NaN."""
    x = np.asarray(x, dtype=float)
    return np.where(np.isnan(x), np.nan, x).view(np.int64)


@pytest.mark.parametrize(
    "scheme, c, lf, abort",
    [
        ("rk44", 0.7, "local", None),
        ("rk31", 1.0, "global", "RHS evaluation failed at stage 2"),
        ("midpoint", 2.5, "local", "RHS evaluation failed at stage 0"),
    ],
)
def test_history_minima_are_those_of_each_step_solution(scheme, c, lf, abort):
    """The Euler history's min_rho/min_rhoe come from the monitor's pass over
    the step's states; they must be euler_minima of each step's q_rk, also
    in a run that aborts on an inadmissible stage (whose step is not kept),
    and a batched row must keep the same history."""
    cfg = preset_config("leblanc_n2", scheme, c, t_final=0.02, lf=lf)
    q_rk = [trace.q_rk for trace in traced_run(cfg)]
    record = simulate(cfg)
    if abort is None:
        assert record.verdict.aborted_step is None and record.n_steps > 3
    else:
        assert record.verdict.abort_reason.startswith(abort)
    assert len(q_rk) == len(record.times) == record.n_steps > 0
    want = np.array([euler_minima(q) for q in q_rk])
    np.testing.assert_array_equal(bits(record.min_rho), bits(want[:, 0]))
    np.testing.assert_array_equal(bits(record.min_rhoe), bits(want[:, 1]))
    rows = run_batch(cfg, [0.3, c, 0.5], tableaux=[builtin_scheme("ssprk33"), cfg.tableau, cfg.tableau], record=True)
    np.testing.assert_array_equal(bits(rows[1].min_rho), bits(record.min_rho))
    np.testing.assert_array_equal(bits(rows[1].min_rhoe), bits(record.min_rhoe))
    assert rows[1].verdict == record.verdict


def traced_outcome(cfg):
    """Steps, times and final state of the traced run of ``cfg``, and the
    bits of every stage-0 derivative it took from the kernel call that gave
    the step bound, with those of a plain kernel call on the same state."""
    traces = list(traced_run(cfg))
    times = list(itertools.accumulate(trace.dt for trace in traces))  # t += dt, as the loop adds
    final = traces[-1].q_rk if traces else cfg.ic.build(cfg.grid).stack()
    stage_0 = [(bits(tr.stage_derivatives[0]), bits(cfg.scheme.rhs_array(tr.q_n, cfg.grid))) for tr in traces]
    return len(traces), times, final, stage_0


@pytest.mark.parametrize("lf", ["local", "global"])
@pytest.mark.parametrize(
    "scheme_id, c, abort",
    [
        ("rk44", 0.6, None),
        ("rk44", 1.6, "RHS evaluation failed at stage 2"),
        ("midpoint", 2.5, "RHS evaluation failed at stage 0"),
        ("forward_euler", 2.5, "degenerate_dt"),
    ],
    ids=["rk44-0.6", "rk44-1.6-stage_2", "midpoint-2.5-stage_0", "forward_euler-2.5-bad_dt"],
)
def test_runs_and_batches_equal_the_traced_run(lf, scheme_id, c, abort):
    """A run, and every row of a batch of one tableau and of a batch of the
    five built-ins, equals the traced run of its tableau and multiplier bit
    for bit (steps, times and final state), also when a run aborts; each
    traced stage-0 derivative, taken from the call that gave the step
    bound, is the kernel's derivative of that state."""
    cfg = preset_config("leblanc_n2", scheme_id, c, t_final=0.02, lf=lf)
    record = simulate(cfg)
    if abort is None:
        assert record.verdict.aborted_step is None
    else:
        assert record.verdict.abort_reason.startswith(abort)
    cs = [0.3, 0.9, c, 1.6, 2.5]
    # At c >= 1.6 a forward Euler row leaves on a degenerate dt_FE while the low-c rows step on.
    runs = [(record, cfg.tableau, c)] + [
        (row, tableau, row_c)
        for tableaux in ([cfg.tableau] * 5, [builtin_scheme(name) for name in BUILTIN_SCHEME_IDS])
        for row, tableau, row_c in zip(run_batch(cfg, cs, tableaux=tableaux, record=True), tableaux, cs)
    ]
    traced = {}
    for row, tableau, row_c in runs:
        key = (tableau.name, row_c)
        if key not in traced:
            traced[key] = traced_outcome(dataclasses.replace(cfg, tableau=tableau, dt_factor=row_c))
        n_steps, times, final, stage_0 = traced[key]
        assert row.n_steps == n_steps
        np.testing.assert_array_equal(bits(row.times), bits(times))
        np.testing.assert_array_equal(bits(row.final_field.stack()), bits(final))
        for got, want in stage_0:
            np.testing.assert_array_equal(got, want)


def test_run_batch_rejects_a_tableau_count_off_the_rows():
    cfg = preset_config("upwind", "rk44", t_final=0.1)
    with pytest.raises(ValueError, match="run_batch needs one tableau per row"):
        run_batch(cfg, [0.5, 1.0], tableaux=[cfg.tableau])
    with pytest.raises(ValueError, match="run_batch needs one tableau per row"):
        run_batch(cfg, [0.5], tableaux=[cfg.tableau] * 2)
    assert run_batch(cfg, []) == [] and run_batch(cfg, [], tableaux=[]) == []


class _Unbuilt:
    """An initial condition that fails if built: a run that reaches it has begun."""

    def build(self, grid):
        raise AssertionError("run_batch built the initial field")


@pytest.mark.parametrize(
    "cs, bad",
    [([math.inf], math.inf), ([True], True), (["0.5"], "0.5"), ([0], 0), ([-1], -1), ([math.nan], math.nan),
     ([0.5, math.inf], math.inf)],
)
def test_run_batch_rejects_a_multiplier_the_config_rejects(cs, bad):
    """Each multiplier keeps the rule of ``SimulationConfig.dt_factor``: c = inf
    used to run one step of length t_final, True and "0.5" ran as 1.0 and
    0.5, and 0, -1 and NaN came back as degenerate_dt aborts."""
    cfg = preset_config("upwind", "rk44", t_final=0.1)
    with pytest.raises(ValueError) as rejected:
        dataclasses.replace(cfg, dt_factor=bad)
    with pytest.raises(ValueError, match=f"^{re.escape(str(rejected.value))}$"):
        run_batch(dataclasses.replace(cfg, ic=_Unbuilt()), cs)


def test_run_batch_accepts_numpy_multipliers():
    cfg = preset_config("upwind", "rk44", t_final=0.1)
    assert [r.verdict for r in run_batch(cfg, [np.float64(0.5), np.float32(1.5)])] == [
        r.verdict for r in run_batch(cfg, [0.5, 1.5])
    ]
