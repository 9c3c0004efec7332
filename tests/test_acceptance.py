"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The sweep-backed criteria (1-4) share module-scoped limit tables; every
tolerance is pinned here explicitly.
"""

import math

import numpy as np
import pytest

from rkstab.integrator import simulate
from rkstab.limits import limits_table
from rkstab.presets import preset_config
from rkstab.tableau import BUILTIN_SCHEME_IDS, builtin_scheme, check_assumption1, ssp_coefficient

from conftest import SWEEP_WORKERS
from step_oracles import (
    check_shifted_criterion,
    check_step_criterion,
    quadratic_energy,
    rhs_muscl_burgers,
    rhs_upwind_burgers,
    run_slack,
    total_variation,
    traced_run,
    traced_step,
)
from test_leblanc_evidence import LEBLANC_LIMITS
from test_spatial import muscl_rhs_reference, _extremum_signs_ok

SCHEMES = list(BUILTIN_SCHEME_IDS)


class Criterion:
    """Collects named checks and prints one overall pass/fail line."""

    def __init__(self, number, label):
        self.number = number
        self.label = label
        self.failures = []

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self, extra=""):
        status = "PASS" if not self.failures else "FAIL"
        line = f"[acceptance] criterion {self.number} ({self.label}): {status}"
        if extra:
            line += f" | {extra}"
        print(line)
        for msg in self.failures:
            print(f"    - {msg}")
        assert not self.failures, f"criterion {self.number}: " + "; ".join(self.failures)


def rows_by_scheme(table):
    return {r.scheme: r for r in table.rows}


def fmt_rows(table):
    return "; ".join(
        f"{r.scheme}: c_s={r.c_s} c_p={r.c_p}" for r in table.rows
    )


@pytest.fixture(scope="module")
def dissipative_table():
    return limits_table("dissipative", SCHEMES, workers=SWEEP_WORKERS)


@pytest.fixture(scope="module")
def upwind_table():
    return limits_table("upwind", SCHEMES, workers=SWEEP_WORKERS)


@pytest.fixture(scope="module")
def muscl_table():
    return limits_table("muscl2", SCHEMES, workers=SWEEP_WORKERS)


@pytest.fixture(scope="module")
def leblanc_tables():
    return {
        preset: limits_table(preset, SCHEMES, workers=SWEEP_WORKERS)
        for preset in ("leblanc_n2", "leblanc_n5")
    }


def test_criterion_1_dissipative_table(dissipative_table):
    expected_cp = {
        "forward_euler": 1.0,
        "midpoint": 2.0,
        "ssprk33": 1.0,
        "rk31": 1.5,
        "rk44": 2.0,
    }
    crit = Criterion(1, "dissipative Burgers table")
    rows = rows_by_scheme(dissipative_table)
    for scheme in SCHEMES:
        row = rows[scheme]
        crit.check(
            row.c_s is not None and abs(row.c_s - 1.0) <= 0.2 + 1e-12,
            f"{scheme}: c_s={row.c_s}, expected 1.0 +- 0.2",
        )
        crit.check(
            row.c_p is not None and abs(row.c_p - expected_cp[scheme]) <= 0.2 + 1e-12,
            f"{scheme}: c_p={row.c_p}, expected {expected_cp[scheme]} +- 0.2",
        )
    crit.finish(fmt_rows(dissipative_table))


def test_criterion_2_upwind_table(upwind_table):
    expected_cp = {
        "forward_euler": 1.3,
        "midpoint": 1.6,
        "ssprk33": 1.3,
        "rk31": 2.0,
        "rk44": 2.2,
    }
    crit = Criterion(2, "upwind Burgers table")
    rows = rows_by_scheme(upwind_table)
    for scheme in SCHEMES:
        row = rows[scheme]
        crit.check(
            row.c_s is not None and abs(row.c_s - 1.3) <= 0.1 + 1e-12,
            f"{scheme}: c_s={row.c_s}, expected 1.3 +- 0.1",
        )
        crit.check(
            row.c_p is not None and abs(row.c_p - expected_cp[scheme]) <= 0.2 + 1e-12,
            f"{scheme}: c_p={row.c_p}, expected {expected_cp[scheme]} +- 0.2",
        )
    crit.finish(fmt_rows(upwind_table))


def test_criterion_3_muscl_table(muscl_table):
    expected_cp = {
        "forward_euler": 1.3,
        "midpoint": 1.7,
        "ssprk33": 1.3,
        "rk31": 2.0,
        "rk44": 1.7,
    }
    crit = Criterion(3, "MUSCL Burgers table")
    rows = rows_by_scheme(muscl_table)
    for scheme in SCHEMES:
        row = rows[scheme]
        crit.check(
            row.c_p is not None and abs(row.c_p - expected_cp[scheme]) <= 0.2 + 1e-12,
            f"{scheme}: c_p={row.c_p}, expected {expected_cp[scheme]} +- 0.2",
        )
        if scheme != "ssprk33":
            crit.check(
                row.c_s is not None and abs(row.c_s - 1.3) <= 0.2 + 1e-12,
                f"{scheme}: c_s={row.c_s}, expected 1.3 +- 0.2",
            )
    outlier = rows["ssprk33"].c_s
    crit.check(
        outlier is not None and outlier > 0.0,
        f"ssprk33: c_s={outlier}, required > 0",
    )
    crit.finish(f"measured ssprk33 c_s = {outlier} | " + fmt_rows(muscl_table))


def test_criterion_4_leblanc_positivity(leblanc_tables):
    # Both presets are local LF on the uniform 600-cell grid with
    # dt_FE = dx / a(q^n); the expected limits and the evidence for each
    # live in test_leblanc_evidence.py.
    crit = Criterion(4, "Leblanc positivity limits")
    crit.check(
        leblanc_tables["leblanc_n2"].rows == leblanc_tables["leblanc_n5"].rows,
        "leblanc_n2 and leblanc_n5 tables differ: derive leblanc_n5's expected limits anew",
    )
    for preset, table in leblanc_tables.items():
        rows = rows_by_scheme(table)
        for scheme in SCHEMES:
            row = rows[scheme]
            c_s = row.c_s if row.c_s is not None else 0.0
            c_p = row.c_p if row.c_p is not None else 0.0
            exp_s, exp_p = LEBLANC_LIMITS[scheme]
            crit.check(abs(c_s - exp_s) <= 1e-12, f"{preset}/{scheme}: c_s={row.c_s}, expected {exp_s}")
            crit.check(abs(c_p - exp_p) <= 1e-12, f"{preset}/{scheme}: c_p={row.c_p}, expected {exp_p}")
            crit.check(c_p >= c_s - 1e-12, f"{preset}/{scheme}: c_p={row.c_p} < c_s={row.c_s}")
        fe_cp = rows["forward_euler"].c_p or 0.0
        crit.check(
            any(r.c_ssp <= 1e-6 and (r.c_p or 0.0) >= fe_cp - 1e-12 for r in table.rows),
            f"{preset}: no scheme with c_ssp = 0 reaches forward Euler's c_p={fe_cp}",
        )
    extra = " || ".join(f"{p}: {fmt_rows(t)}" for p, t in leblanc_tables.items())
    crit.finish(extra)


def test_criterion_5_ssp_coefficients():
    expected = {
        "forward_euler": 1.0,
        "midpoint": 0.0,
        "ssprk33": 1.0,
        "rk31": 0.0,
        "rk44": 0.0,
    }
    crit = Criterion(5, "formal SSP coefficients")
    for scheme in SCHEMES:
        value = ssp_coefficient(builtin_scheme(scheme), tol=1e-9).ssp_coefficient
        crit.check(
            abs(value - expected[scheme]) <= 1e-6,
            f"{scheme}: c_ssp={value}, expected {expected[scheme]} +- 1e-6",
        )
    crit.finish()


def test_criterion_6a_dissipative_figure():
    crit = Criterion("6a", "dissipative RK44 run at dt_FE")
    cfg = preset_config("dissipative", "rk44", 1.0)
    g0 = quadratic_energy(cfg.ic.build(cfg.grid))
    slack = 1e-12 * max(1.0, g0)
    rec = simulate(cfg)
    crit.check(rec.verdict.passed, "run recorded a stability violation")
    crit.check(
        bool(np.all(np.diff(rec.monitor_step_values) < 0.0)),
        "G(q_RK) not strictly decreasing at every step",
    )
    crit.check(
        bool(np.all(rec.monitor_shifted_worst <= slack)),
        f"worst shifted energy delta exceeds {slack:.2e}",
    )
    crit.finish(f"steps={rec.n_steps}")


def test_criterion_6b_upwind_figure():
    crit = Criterion("6b", "upwind RK44 run at dt_FE")
    cfg = preset_config("upwind", "rk44", 1.0)
    tv0 = total_variation(cfg.ic.build(cfg.grid))
    slack = 1e-12 * max(1.0, tv0)
    rec = simulate(cfg)
    crit.check(rec.verdict.passed, "run recorded a stability violation")
    crit.check(
        bool(np.all(np.diff(rec.monitor_step_values) <= slack)),
        "TV(q_RK) increased during the run",
    )
    crit.check(
        bool(np.all(rec.monitor_shifted_worst <= slack)),
        f"worst shifted TV delta exceeds {slack:.2e}",
    )
    crit.finish(f"steps={rec.n_steps}")


def test_criterion_6c_muscl_figure():
    crit = Criterion("6c", "MUSCL RK44 run at dt_FE")
    cfg = preset_config("muscl2", "rk44", 1.0)
    field0 = cfg.ic.build(cfg.grid)
    tv0 = total_variation(field0)
    rec = simulate(cfg)
    crit.check(rec.verdict.passed, "run recorded a stability violation")
    crit.check(
        bool(np.all(np.abs(rec.monitor_step_values - tv0) <= 1e-10)),
        "TV drifted beyond 1e-10 from its initial value",
    )
    # shock position: midpoint crossing of the final profile; the exact
    # Riemann shock speed is (q_L + q_R)/2 = 0.25, so x = 0.25 * 200 = 50
    q = rec.final_field.q
    x = cfg.grid.points()
    mid = 0.5 * (1.0 + (-0.5))
    below = np.flatnonzero(q < mid)
    crit.check(below.size > 0, "no shock crossing found in the final profile")
    if below.size:
        i = below[0]
        position = 0.5 * (x[i - 1] + x[i]) if i > 0 else x[0]
        crit.check(
            abs(position - 50.0) <= 2.0 * cfg.grid.dx,
            f"shock at x={position}, expected 50 +- {2 * cfg.grid.dx}",
        )
    crit.finish(f"TV drift max={np.abs(rec.monitor_step_values - tv0).max():.2e}")


def _short_run_traces():
    """Traces from short runs of all four experiments, with each run's slack."""
    cases = [
        ("dissipative", "rk44", 1.0, {"t_final": 0.05}),
        ("dissipative", "rk31", 1.4, {"t_final": 0.05}),
        ("upwind", "rk44", 1.0, {}),
        ("upwind", "midpoint", 1.5, {}),
        ("muscl2", "ssprk33", 1.0, {"t_final": 50.0}),
        ("muscl2", "rk44", 1.6, {"t_final": 50.0}),
        ("leblanc_n2", "rk44", 0.5, {"n_cells": 150}),
        ("leblanc_n5", "ssprk33", 0.7, {"n_cells": 150}),
    ]
    for preset, scheme, c, kw in cases:
        cfg = preset_config(preset, scheme, c, **kw)
        yield cfg, run_slack(cfg), list(traced_run(cfg))


def test_criterion_7_property_suites():
    crit = Criterion(7, "property suites")
    rng = np.random.default_rng(2024)

    # modified-representation identity on every trace of every experiment
    from step_oracles import modified_representation_stage

    worst_rel = 0.0
    implication_checked = 0
    for cfg, slack, traces in _short_run_traces():
        tableau = cfg.tableau
        assert check_assumption1(tableau)
        for tr in traces:
            for i in range(tableau.s):
                rebuilt = modified_representation_stage(tableau, tr, i)
                scale = max(1.0, float(np.max(np.abs(tr.stage_solutions[i]))))
                rel = float(np.max(np.abs(rebuilt - tr.stage_solutions[i]))) / scale
                worst_rel = max(worst_rel, rel)
            # convex-combination implication: shifted all pass => step passes
            if all(v.passed for v in check_shifted_criterion(cfg.monitor, tr, slack)):
                crit.check(
                    all(v.passed for v in check_step_criterion(cfg.monitor, tr, slack)),
                    "shifted criterion passed but step criterion failed",
                )
                implication_checked += 1
    crit.check(worst_rel <= 1e-13, f"modified representation residual {worst_rel:.2e} > 1e-13")
    crit.check(implication_checked > 200, f"only {implication_checked} traces exercised the implication")

    # conservation on periodic grids for every scheme
    from rkstab.fields import EulerField, Grid1D, Periodic, ScalarField
    from step_oracles import rhs_dissipative_burgers, rhs_llf_euler

    grid = Grid1D(64, 0.0, 2.0, Periodic())
    for _ in range(25):
        q = rng.normal(size=64)
        for r in (
            rhs_dissipative_burgers(ScalarField(grid, q), 1e-3).q,
            rhs_upwind_burgers(ScalarField(grid, q)).q,
            rhs_muscl_burgers(ScalarField(grid, q)).q,
        ):
            crit.check(
                abs(r.sum()) <= 1e-12 * max(1.0, np.abs(r).max()),
                "Burgers RHS does not telescope to zero on a periodic grid",
            )
        rho = rng.uniform(0.5, 2.0, size=64)
        u = rng.uniform(-1.0, 1.0, size=64)
        p = rng.uniform(0.1, 2.0, size=64)
        f = EulerField(grid, rho, rho * u, p / 0.4 + 0.5 * rho * u * u, 1.4)
        R = rhs_llf_euler(f)[0].stack()
        crit.check(
            float(np.abs(R.sum(axis=1)).max()) <= 1e-12 * max(1.0, float(np.abs(R).max())),
            "Euler RHS does not telescope to zero on a periodic grid",
        )

    # observed convergence orders on q' = q
    expected_order = dict(zip(SCHEMES, (1, 2, 3, 3, 4)))
    for scheme in SCHEMES:
        tableau = builtin_scheme(scheme)
        errors = []
        dts = [2.0 ** -k for k in range(3, 8)]
        for dt in dts:
            q = np.array([1.0])
            for _ in range(int(round(1.0 / dt))):
                q = traced_step(tableau, lambda s: s, q, dt).q_rk
            errors.append(abs(float(q[0]) - math.e))
        slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
        crit.check(
            abs(slope - expected_order[scheme]) <= 0.1,
            f"{scheme}: observed order {slope:.3f}, expected {expected_order[scheme]} +- 0.1",
        )

    # local extremum sign property on 1000 random fields
    grid16 = Grid1D(16, 0.0, 16.0, Periodic())
    for _ in range(1000):
        q_up = rng.uniform(0.0, 1.0, size=16)
        crit.check(
            _extremum_signs_ok(q_up, rhs_upwind_burgers(ScalarField(grid16, q_up)).q),
            "upwind extremum sign property violated",
        )
        q_mu = rng.uniform(-1.0, 1.5, size=16)
        crit.check(
            _extremum_signs_ok(q_mu, rhs_muscl_burgers(ScalarField(grid16, q_mu)).q),
            "MUSCL extremum sign property violated",
        )

    # MUSCL kernel vs independent brute-force transcription
    grid24 = Grid1D(24, 0.0, 12.0, Periodic())
    for _ in range(100):
        q = rng.uniform(-1.5, 1.5, size=24)
        delta = np.abs(
            rhs_muscl_burgers(ScalarField(grid24, q)).q
            - muscl_rhs_reference(q, grid24.dx, Periodic())
        ).max()
        crit.check(delta <= 1e-14, f"MUSCL kernel deviates from transcription by {delta:.2e}")

    crit.finish(f"modified-representation worst rel residual {worst_rel:.2e}")
