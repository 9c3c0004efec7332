import math
import re

import numpy as np
import pytest

from kernel_oracles import dt_fe, godunov_flux_burgers, lax_friedrichs_flux_euler, minmod
from rkstab.fields import (
    Dirichlet,
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    Outflow,
    Periodic,
    ScalarField,
)
from rkstab.spatial import (
    DissipativeBurgers,
    LaxFriedrichsEuler,
    MusclBurgers,
    UnsupportedBoundaryError,
    UpwindBurgers,
)

from step_oracles import (
    check_step_criterion,
    rhs_dissipative_burgers,
    rhs_llf_euler,
    rhs_muscl_burgers,
    rhs_upwind_burgers,
    run_slack,
    traced_step,
)

GAMMA = 5.0 / 3.0


def scalar(q, boundary=None, x_max=None):
    q = np.asarray(q, dtype=float)
    n = q.size
    grid = Grid1D(n, 0.0, float(n) if x_max is None else x_max, boundary or Periodic())
    return ScalarField(grid, q)


def leblanc_field(n=600):
    grid = Grid1D(n, 0.0, 1.0, Outflow(), "center")
    x = grid.points()
    left = x < 0.33
    rho = np.where(left, 1.0, 1e-3)
    E = np.where(left, 0.1, 1e-10)
    return EulerField(grid, rho, np.zeros(n), E, GAMMA)


# ---------------------------------------------------------------------------
# dissipative Burgers

def test_dissipative_constant_field_is_quiescent():
    f = scalar(np.full(6, 2.5))
    np.testing.assert_array_equal(rhs_dissipative_burgers(f, 1e-3).q, np.zeros(6))


def test_dissipative_spike_example():
    # interface fluxes for [0, 1, 0] with dx=1: 1/6 - mu, 1/6 + mu, 0
    mu = 1e-3
    f = scalar([0.0, 1.0, 0.0])
    expected = [-(1 / 6 - mu), -2 * mu, 1 / 6 + mu]
    np.testing.assert_allclose(rhs_dissipative_burgers(f, mu).q, expected, rtol=1e-14)


def test_dissipative_conserves_mass():
    rng = np.random.default_rng(5)
    for _ in range(50):
        f = scalar(rng.normal(size=64))
        r = rhs_dissipative_burgers(f, 1e-3).q
        assert abs(r.sum()) <= 1e-12 * max(1.0, np.abs(r).max())


def test_dissipative_requires_periodic():
    f = scalar([1.0, 2.0, 3.0], boundary=Dirichlet(1.0, 3.0))
    with pytest.raises(UnsupportedBoundaryError):
        rhs_dissipative_burgers(f, 1e-3)


@pytest.mark.parametrize(
    "mu, message",
    [
        (math.nan, "mu must be finite, got nan"),
        (math.inf, "mu must be finite, got inf"),
        (True, "mu must be a real number, got True"),
        (-1.0, "mu must be non-negative"),
    ],
)
def test_dissipative_mu_must_be_a_finite_non_negative_number(mu, message):
    """NaN, inf and True used to be accepted as viscosities."""
    with pytest.raises(ValueError, match=re.escape(message)):
        DissipativeBurgers(mu=mu)
    assert DissipativeBurgers(mu=0).mu == 0


# ---------------------------------------------------------------------------
# upwind Burgers

def test_upwind_constant_field_is_quiescent():
    f = scalar(np.full(5, 0.7))
    np.testing.assert_array_equal(rhs_upwind_burgers(f).q, np.zeros(5))


def test_upwind_three_point_example():
    f = scalar([0.5, 1.0, 0.5])
    np.testing.assert_allclose(rhs_upwind_burgers(f).q, [0.0, -0.375, 0.375], rtol=1e-14)


def test_upwind_alternating_example():
    # dx = 0.5; flux differences of f = q^2/2 alternate between +-0.5
    grid = Grid1D(4, 0.0, 2.0, Periodic())
    f = ScalarField(grid, np.array([0.0, 1.0, 0.0, 1.0]))
    np.testing.assert_allclose(rhs_upwind_burgers(f).q, [1.0, -1.0, 1.0, -1.0], rtol=1e-14)


def test_upwind_requires_periodic():
    f = scalar([0.1, 0.2, 0.3], boundary=Outflow())
    with pytest.raises(UnsupportedBoundaryError):
        rhs_upwind_burgers(f)


# ---------------------------------------------------------------------------
# minmod and Godunov flux

@pytest.mark.parametrize(
    "a,b,expected",
    [(1.0, 2.0, 1.0), (-1.0, 2.0, 0.0), (-3.0, -2.0, -2.0), (0.0, 5.0, 0.0), (2.0, 1.0, 1.0)],
)
def test_minmod(a, b, expected):
    assert minmod(a, b) == expected


@pytest.mark.parametrize(
    "qm,qp,expected",
    [
        (1.0, 2.0, 0.5),    # increasing, interval right of the sonic point
        (-1.0, 1.0, 0.0),   # interval straddles the sonic point
        (1.0, -0.5, 0.5),   # decreasing: max of endpoint values
        (-2.0, -1.0, 0.5),  # increasing, left of sonic point: min at q = -1
        (0.5, 0.5, 0.125),  # consistency
    ],
)
def test_godunov_flux(qm, qp, expected):
    assert godunov_flux_burgers(qm, qp) == pytest.approx(expected, rel=1e-15)


# ---------------------------------------------------------------------------
# MUSCL

def test_muscl_constant_field_is_quiescent():
    f = scalar(np.full(6, -0.3), boundary=Dirichlet(-0.3, -0.3))
    np.testing.assert_array_equal(rhs_muscl_burgers(f).q, np.zeros(6))


def test_muscl_step_example():
    """Interface fluxes 0.5, 0.5, 0.5, 0.125, 0.125 for the two-level step.

    The cell just right of the jump fills at rate -(0.125 - 0.5)/dx = +0.375:
    the shock (speed 0.25) moves right into it.
    """
    grid = Grid1D(4, 0.0, 4.0, Dirichlet(1.0, -0.5))
    f = ScalarField(grid, np.array([1.0, 1.0, -0.5, -0.5]))
    np.testing.assert_allclose(rhs_muscl_burgers(f).q, [0.0, 0.0, 0.375, 0.0], atol=1e-15)


def muscl_rhs_reference(q, dx, boundary):
    """Independent scalar-loop transcription of the reconstruction and flux."""
    n = len(q)
    periodic = isinstance(boundary, Periodic)

    def val(i):
        if periodic:
            return q[i % n]
        if i < 0:
            return boundary.left
        if i >= n:
            return boundary.right
        return q[i]

    def mm(a, b):
        if a > 0 and b > 0:
            return min(a, b)
        if a < 0 and b < 0:
            return max(a, b)
        return 0.0

    def q_minus(i):  # left state at interface i+1/2
        return val(i) + 0.5 * mm(val(i + 1) - val(i), val(i) - val(i - 1))

    def q_plus(i):  # right state at interface i+1/2
        return val(i + 1) - 0.5 * mm(val(i + 2) - val(i + 1), val(i + 1) - val(i))

    def flux(i):
        qm, qp = q_minus(i), q_plus(i)
        if qm <= qp:
            if qm <= 0.0 <= qp:
                return 0.0
            return min(0.5 * qm * qm, 0.5 * qp * qp)
        return max(0.5 * qm * qm, 0.5 * qp * qp)

    return np.array([-(flux(i) - flux(i - 1)) / dx for i in range(n)])


@pytest.mark.parametrize("boundary", [Periodic(), Dirichlet(0.8, -0.3)])
def test_muscl_matches_brute_force_on_random_fields(boundary):
    rng = np.random.default_rng(17)
    grid = Grid1D(24, 0.0, 12.0, boundary)
    for _ in range(100):
        q = rng.uniform(-1.5, 1.5, size=24)
        f = ScalarField(grid, q)
        np.testing.assert_allclose(
            rhs_muscl_burgers(f).q,
            muscl_rhs_reference(q, grid.dx, boundary),
            rtol=0,
            atol=1e-14,
        )


def test_muscl_linear_data_matches_brute_force():
    grid = Grid1D(4, 0.0, 4.0, Periodic())
    q = np.array([0.0, 1.0, 2.0, 3.0])
    np.testing.assert_allclose(
        rhs_muscl_burgers(ScalarField(grid, q)).q,
        muscl_rhs_reference(q, 1.0, Periodic()),
        atol=1e-14,
    )


def test_muscl_rejects_outflow():
    f = scalar([1.0, 0.5, 0.0], boundary=Outflow())
    with pytest.raises(UnsupportedBoundaryError):
        rhs_muscl_burgers(f)


# ---------------------------------------------------------------------------
# local extremum sign property (TVD building block)

def _extremum_signs_ok(q, r):
    """At strict interior local minima R >= 0, at strict maxima R <= 0."""
    n = len(q)
    ok = True
    for i in range(n):
        left, right = q[(i - 1) % n], q[(i + 1) % n]
        if q[i] < left and q[i] < right:
            ok = ok and r[i] >= 0.0
        elif q[i] > left and q[i] > right:
            ok = ok and r[i] <= 0.0
    return ok


def test_upwind_extremum_sign_property():
    """Data in [0, 1]: the flux is monotone there, so extrema relax."""
    rng = np.random.default_rng(23)
    grid = Grid1D(16, 0.0, 16.0, Periodic())
    for _ in range(1000):
        q = rng.uniform(0.0, 1.0, size=16)
        r = rhs_upwind_burgers(ScalarField(grid, q)).q
        assert _extremum_signs_ok(q, r)


def test_muscl_extremum_sign_property():
    rng = np.random.default_rng(29)
    grid = Grid1D(16, 0.0, 16.0, Periodic())
    for _ in range(1000):
        q = rng.uniform(-1.0, 1.5, size=16)
        r = rhs_muscl_burgers(ScalarField(grid, q)).q
        assert _extremum_signs_ok(q, r)


# ---------------------------------------------------------------------------
# Lax-Friedrichs Euler

def test_lf_flux_consistency():
    state = (1.3, 0.4, 2.1)
    flux, a = lax_friedrichs_flux_euler(state, state, 1.4)
    u = 0.4 / 1.3
    p = 0.4 * (2.1 - 0.5 * 0.4 * u)
    np.testing.assert_allclose(flux, [0.4, 0.4 * u + p, u * (2.1 + p)], rtol=1e-14)
    assert a == pytest.approx(abs(u) + math.sqrt(1.4 * p / 1.3), rel=1e-14)


def test_lf_flux_leblanc_wavespeed():
    left = (1.0, 0.0, 0.1)
    right = (1e-3, 0.0, 1e-10)
    _, a = lax_friedrichs_flux_euler(left, right, GAMMA)
    assert a == pytest.approx(1.0 / 3.0, rel=1e-12)
    # the right state alone is nearly quiescent
    _, a_r = lax_friedrichs_flux_euler(right, right, GAMMA)
    assert a_r == pytest.approx(math.sqrt(GAMMA * (GAMMA - 1.0) * 1e-10 / 1e-3), rel=1e-12)
    assert a_r == pytest.approx(3.3333e-4, rel=1e-4)


def test_lf_flux_rest_state_is_pressure_only():
    state = (2.0, 0.0, 3.0)
    flux, _ = lax_friedrichs_flux_euler(state, state, 1.4)
    p = 0.4 * 3.0
    np.testing.assert_allclose(flux, [0.0, p, 0.0], atol=1e-15)


def test_lf_flux_rejects_bad_states():
    good = (1.0, 0.0, 1.0)
    with pytest.raises(NonPhysicalStateError, match="left"):
        lax_friedrichs_flux_euler((-1.0, 0.0, 1.0), good, 1.4)
    with pytest.raises(NonPhysicalStateError, match="right"):
        lax_friedrichs_flux_euler(good, (1.0, 3.0, 1.0), 1.4)


def test_llf_rhs_uniform_rest_state_is_quiescent():
    grid = Grid1D(8, 0.0, 1.0, Outflow())
    f = EulerField(grid, np.ones(8), np.zeros(8), np.ones(8), 1.4)
    rhs, a_max = rhs_llf_euler(f)
    np.testing.assert_array_equal(rhs.stack(), np.zeros((3, 8)))
    assert a_max == pytest.approx(math.sqrt(1.4 * 0.4), rel=1e-14)


def test_llf_rhs_leblanc_support_near_jump_only():
    f = leblanc_field()
    rhs, a_max = rhs_llf_euler(f)
    R = rhs.stack()
    nonzero_cells = np.flatnonzero(np.any(R != 0.0, axis=0))
    # jump sits between cells 197 and 198
    assert nonzero_cells.tolist() == [197, 198]
    assert a_max == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_llf_rhs_periodic_conservation():
    rng = np.random.default_rng(31)
    grid = Grid1D(32, 0.0, 1.0, Periodic())
    for _ in range(20):
        rho = rng.uniform(0.5, 2.0, size=32)
        u = rng.uniform(-1.0, 1.0, size=32)
        p = rng.uniform(0.1, 2.0, size=32)
        f = EulerField(grid, rho, rho * u, p / 0.4 + 0.5 * rho * u * u, 1.4)
        R = rhs_llf_euler(f)[0].stack()
        scale = np.abs(R).max()
        assert np.abs(R.sum(axis=1)).max() <= 1e-12 * max(1.0, scale)


def test_llf_rhs_local_vs_global_dissipation():
    """The global variant applies the worst wavespeed at every interface."""
    grid = Grid1D(16, 0.0, 1.0, Periodic())
    x = grid.points()
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * x)
    u = 0.3 * np.cos(2 * np.pi * x)
    p = 1.0 + 0.2 * np.sin(4 * np.pi * x)
    f = EulerField(grid, rho, rho * u, p / 0.4 + 0.5 * rho * u * u, 1.4)
    r_local, a_l = rhs_llf_euler(f, local=True)
    r_global, a_g = rhs_llf_euler(f, local=False)
    assert a_l == a_g  # the reported max wavespeed is variant independent
    assert not np.array_equal(r_local.stack(), r_global.stack())


def test_llf_rhs_variants_agree_on_piecewise_constant_data():
    """Dissipation multiplies the state jump, so only the IC jump interface
    matters, and there the local speed already is the global maximum."""
    f = leblanc_field(24)
    r_local = rhs_llf_euler(f, local=True)[0].stack()
    r_global = rhs_llf_euler(f, local=False)[0].stack()
    np.testing.assert_array_equal(r_local, r_global)


def test_llf_rhs_rejects_inadmissible_field():
    f = leblanc_field(12)
    rho = f.rho.copy()
    rho[3] = -1e-12
    bad = EulerField(f.grid, rho, f.m, f.E, f.gamma)
    with pytest.raises(NonPhysicalStateError) as err:
        rhs_llf_euler(bad)
    assert err.value.cell == 3


# ---------------------------------------------------------------------------
# forward-Euler step bounds

def test_dt_fe_dissipative():
    grid = Grid1D(200, -1.0, 1.0, Periodic(), "node")
    f = ScalarField(grid, np.zeros(200))
    assert dt_fe(DissipativeBurgers(mu=1e-3), f) == pytest.approx(6e-5, rel=1e-12)


def test_dt_fe_upwind_is_dx():
    grid = Grid1D(100, 0.0, 2.0, Periodic(), "node")
    f = ScalarField(grid, np.zeros(100))
    assert dt_fe(UpwindBurgers(), f) == pytest.approx(0.02, rel=1e-12)


def test_dt_fe_muscl_adaptive():
    grid = Grid1D(80, -10.0, 70.0, Dirichlet(1.0, -0.5))
    f = ScalarField(grid, np.where(grid.points() <= 0.0, 1.0, -0.5))
    assert dt_fe(MusclBurgers(), f) == pytest.approx(0.5, rel=1e-12)
    f2 = ScalarField(grid, np.full(80, 0.0))
    assert dt_fe(MusclBurgers(), f2) == math.inf


def test_dt_fe_llf_leblanc():
    f = leblanc_field()
    assert dt_fe(LaxFriedrichsEuler(gamma=GAMMA), f) == pytest.approx(0.005, rel=1e-9)


def test_dt_fe_llf_quiescent_zero_pressure_is_infinite():
    grid = Grid1D(4, 0.0, 1.0, Outflow())
    f = EulerField(grid, np.ones(4), np.zeros(4), np.zeros(4), 1.4)
    assert dt_fe(LaxFriedrichsEuler(gamma=1.4), f) == math.inf


# ---------------------------------------------------------------------------
# the forward-Euler contract of each experiment

def test_forward_euler_contract_on_presets():
    """One FE step at dt_FE from each preset's IC satisfies its monitor."""
    from rkstab.presets import preset_config
    from rkstab.tableau import builtin_scheme

    fe = builtin_scheme("forward_euler")
    for preset in ("dissipative", "upwind", "muscl2", "leblanc_n2"):
        cfg = preset_config(preset, "forward_euler", 1.0)
        field = cfg.ic.build(cfg.grid)
        state = field.stack() if cfg.scheme.is_euler else field.q
        dt = cfg.scheme.dt_fe_array(state, cfg.grid)
        trace = traced_step(
            fe, lambda s: cfg.scheme.rhs_array(s, cfg.grid), state, dt, cfg.grid
        )
        verdicts = check_step_criterion(cfg.monitor, trace, run_slack(cfg))
        assert all(v.passed for v in verdicts), preset


@pytest.mark.parametrize(
    "gamma, message",
    [
        (math.inf, "gamma must be finite, got inf"),
        (math.nan, "gamma must be finite, got nan"),
        (True, "gamma must be a real number, got True"),
        (1.0, "gamma must exceed 1"),
    ],
)
def test_llf_gamma_must_be_a_finite_number_above_one(gamma, message):
    """gamma = inf used to be accepted; the field's gamma follows the same rule."""
    with pytest.raises(ValueError, match=re.escape(message)):
        LaxFriedrichsEuler(gamma=gamma)
    grid = Grid1D(3, 0.0, 1.0, Outflow())
    with pytest.raises(ValueError, match=re.escape(message)):
        EulerField(grid, np.ones(3), np.zeros(3), np.ones(3), gamma)


def test_llf_rejects_a_dirichlet_grid():
    grid = Grid1D(4, 0.0, 1.0, Dirichlet(1.0, 1.0))
    U = np.stack([np.ones(4), np.zeros(4), np.ones(4)])
    with pytest.raises(UnsupportedBoundaryError, match="outflow or periodic boundaries only"):
        LaxFriedrichsEuler().rhs_array(U, grid)
