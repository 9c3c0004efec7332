"""Evidence behind the Leblanc positivity limits pinned by acceptance criterion 4.

``LEBLANC_LIMITS`` is the measured (c_s, c_p) table of the discretization
the ``leblanc_n2`` preset defines: local Lax-Friedrichs on a uniform
600-cell grid with dt_FE = dx / a(q^n), the classical first-order LF
positivity bound.  The tests here show where and why the candidate one
sweep tick above each limit fails, that the failing states come from the
discretization itself (a per-interface rebuild from
``lax_friedrichs_flux_euler`` gives the same step), and why SSPRK33 falls
below its SSP coefficient.  A Gauss-Lobatto subcell prototype records that
the thresholds transcribed from such grids are not reached there either.

Run this file as a script to print the full prototype tables:
``PYTHONPATH=src python tests/test_leblanc_evidence.py``.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from numpy.polynomial import legendre

from kernel_oracles import lax_friedrichs_flux_euler
from rkstab.fields import admissibility_error
from rkstab.integrator import run_batch, simulate
from rkstab.monitors import Monitor
from rkstab.presets import preset_config
from rkstab.spatial import LaxFriedrichsEuler
from step_oracles import check_shifted_criterion, check_step_criterion, traced_step

#: scheme -> (c_s, c_p) of both Leblanc presets, at sweep granularity 0.1.
LEBLANC_LIMITS = {
    "forward_euler": (1.0, 1.0),
    "midpoint": (1.0, 1.0),
    "ssprk33": (0.7, 0.9),
    "rk31": (0.6, 1.0),
    "rk44": (0.5, 0.7),
}

#: scheme -> step at which the candidate one tick above c_s (resp. c_p)
#: first fails the shifted (resp. step) criterion or aborts.
FAILURE_ONSET = {
    "forward_euler": (10, 10),
    "midpoint": (387, 387),
    "ssprk33": (0, 0),
    "rk31": (0, 0),
    "rk44": (0, 1),
}

TICK = 0.1
POSITIVITY = Monitor("positivity")


def _above(c):
    return round(c + TICK, 12)


def llf_oracle_rhs(U, dx, gamma):
    """LLF right-hand side rebuilt interface by interface, edge ghost cells."""
    Ue = np.concatenate([U[:, :1], U, U[:, -1:]], axis=1)
    h = np.stack(
        [lax_friedrichs_flux_euler(Ue[:, k], Ue[:, k + 1], gamma)[0] for k in range(U.shape[1] + 1)],
        axis=1,
    )
    return -(h[:, 1:] - h[:, :-1]) / dx


def _first_step(cfg, rhs=None):
    """One instrumented step from the initial condition at dt = c * dt_FE(q^0)."""
    grid = cfg.grid
    U0 = cfg.ic.build(grid).stack()
    if rhs is None:
        rhs = lambda U: cfg.scheme.rhs_array(U, grid)  # noqa: E731
    dt = cfg.dt_factor * cfg.scheme.dt_fe_array(U0, grid)
    return traced_step(cfg.tableau, rhs, U0, dt, grid)


def _onset(first_failure, verdict):
    return first_failure if first_failure is not None else verdict.aborted_step


@pytest.mark.parametrize("scheme", list(LEBLANC_LIMITS))
def test_limits_bracketed_by_full_runs(scheme):
    """Each limit passes over the whole run; one tick above fails at a known step."""
    c_s, c_p = LEBLANC_LIMITS[scheme]
    onset_s, onset_p = FAILURE_ONSET[scheme]
    runs = {
        c: run_batch(preset_config("leblanc_n2", scheme, c), [c], early_stop=True)[0].verdict
        for c in {c_s, _above(c_s), c_p, _above(c_p)}
    }
    assert runs[c_s].shifted_pass and runs[c_p].step_pass
    above_s, above_p = runs[_above(c_s)], runs[_above(c_p)]
    assert not above_s.shifted_pass
    assert _onset(above_s.first_shifted_failure, above_s) == onset_s
    assert not above_p.step_pass
    assert _onset(above_p.first_step_failure, above_p) == onset_p


@pytest.mark.parametrize(
    "scheme, family, cell",
    [("ssprk33", 1, 198), ("rk31", 2, 199), ("rk44", 3, 200)],
)
def test_shifted_limit_locus_matches_oracle(scheme, family, cell):
    """Step 0 at c_s keeps every shifted state positive; one tick above, the
    first failing family loses density at the named cell, and the kernel
    agrees with the interface-by-interface oracle on both steps."""
    c_s = LEBLANC_LIMITS[scheme][0]
    for c in (c_s, _above(c_s)):
        cfg = preset_config("leblanc_n2", scheme, c)
        trace = _first_step(cfg)
        oracle = _first_step(cfg, lambda U: llf_oracle_rhs(U, cfg.grid.dx, cfg.scheme.gamma))
        for got, want in zip(
            trace.stage_solutions + trace.shifted_states + (trace.q_rk,),
            oracle.stage_solutions + oracle.shifted_states + (oracle.q_rk,),
        ):
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)
        failing = [v.index for v in check_shifted_criterion(POSITIVITY, trace) if not v.passed]
        if c == c_s:
            assert failing == []
        else:
            assert failing[0] == family
            error = admissibility_error(trace.shifted_states[family])
            assert str(error) == f"non-positive density in Euler state (cell {cell})"
        assert all(v.passed for v in check_step_criterion(POSITIVITY, trace))


def test_ssprk33_stages_outrun_the_forward_euler_bound():
    """At c = 1 the SSPRK33 stages see wavespeeds far above a(q^0).

    dt = c dx / a(q^0), so stage i runs forward Euler at the effective
    multiplier c a(q^i) / a(q^0), past the bound of 1 at c = 1, the first
    failing c_p candidate.  SSP theory (c_ssp = 1) promises nothing there;
    with a ratio above 1/0.9 its guarantee would not even reach the measured
    c_p = 0.9.  The step solution loses positivity on this very step.
    """
    cfg = preset_config("leblanc_n2", "ssprk33", 1.0)
    trace = _first_step(cfg)
    dt_fe = [cfg.scheme.dt_fe_array(q, cfg.grid) for q in trace.stage_solutions]
    ratios = [dt_fe[0] / d for d in dt_fe]
    assert max(ratios) > 1.0 / 0.9
    assert np.round(ratios, 2).tolist() == [1.0, 1.49, 1.85]
    verdicts = check_step_criterion(POSITIVITY, trace)
    assert [v.where for v in verdicts if not v.passed] == ["step"]


# ---------------------------------------------------------------------------
# Gauss-Lobatto subcell prototype (test-side; the presets keep the uniform grid)

def lgl_subcell_widths(n_elements, n_nodes):
    """Subcell widths on [0, 1]: the Legendre-Gauss-Lobatto weights per element."""
    N = n_nodes - 1
    P = legendre.Legendre.basis(N)
    nodes = np.concatenate([[-1.0], P.deriv().roots(), [1.0]])
    weights = 2.0 / (N * (N + 1) * P(nodes) ** 2)
    return np.tile(weights / (2.0 * n_elements), n_elements)


@dataclass(frozen=True, eq=False)
class SubcellLaxFriedrichsEuler:
    """Local LF on cells of the given widths, dt_FE = min(width) / a(q^n).

    Reuses the uniform kernel, R_i = -(h_{i+1/2} - h_{i-1/2}) / dx, rescaled
    to the cell width.  In both layouts an element boundary falls on the
    Leblanc jump at x = 0.33 after cell 197, as on the uniform grid, so the
    preset's initial data carries over cell for cell.
    """

    widths: np.ndarray
    gamma: float = 5.0 / 3.0
    is_euler = True

    def rhs_array(self, U, grid, *, with_dt_fe=False):
        r = LaxFriedrichsEuler(self.gamma).rhs_array(U, grid) * (grid.dx / self.widths)
        return (r, self.dt_fe_array(U, grid)) if with_dt_fe else r

    def dt_fe_array(self, U, grid):
        return LaxFriedrichsEuler(self.gamma).dt_fe_array(U, grid) * (self.widths.min() / grid.dx)


GL_LAYOUTS = [(200, 3), (100, 6)]


def gauss_lobatto_config(n_elements, n_nodes, scheme, c):
    widths = lgl_subcell_widths(n_elements, n_nodes)
    cfg = preset_config("leblanc_n2", scheme, c)
    return replace(cfg, scheme=SubcellLaxFriedrichsEuler(widths, cfg.scheme.gamma))


@pytest.mark.parametrize("n_elements, n_nodes", GL_LAYOUTS)
def test_gauss_lobatto_prototype_stays_below_transcribed_thresholds(n_elements, n_nodes):
    """Forward Euler tops out at c = 1.2, not 2.5; SSPRK33 and RK44 lose a
    shifted state on step 0 at c = 0.8 < 1."""
    widths = lgl_subcell_widths(n_elements, n_nodes)
    assert widths.size == 600 and widths.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.cumsum(widths)[197] == pytest.approx(0.33, abs=1e-14)
    fe_pass = simulate(gauss_lobatto_config(n_elements, n_nodes, "forward_euler", 1.2)).verdict
    (fe_fail,) = run_batch(gauss_lobatto_config(n_elements, n_nodes, "forward_euler", 1.3), [1.3], early_stop=True)
    fe_fail = fe_fail.verdict
    assert fe_pass.passed
    assert (fe_fail.first_step_failure, fe_fail.first_shifted_failure) == (1, 1)
    for scheme in ("ssprk33", "rk44"):
        trace = _first_step(gauss_lobatto_config(n_elements, n_nodes, scheme, 0.8))
        assert not all(v.passed for v in check_shifted_criterion(POSITIVITY, trace))


if __name__ == "__main__":
    from rkstab.limits import LimitSearchConfig, find_limits

    for n_elements, n_nodes in GL_LAYOUTS:
        print(f"Gauss-Lobatto subcells {n_elements}x{n_nodes}")
        for scheme in LEBLANC_LIMITS:
            base = gauss_lobatto_config(n_elements, n_nodes, scheme, 1.0)
            result = find_limits(LimitSearchConfig(base=base, workers=2))
            print(f"  {scheme:<15}c_s={result.c_s}  c_p={result.c_p}", flush=True)
