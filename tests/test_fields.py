import csv
import numbers
import pickle
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from rkstab.fields import (
    Dirichlet,
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    Periodic,
    ScalarField,
    admissibility_error,
    euler_minima,
    field_to_csv,
    operand,
    require_number,
    write_csv_columns,
)

from kernel_oracles import lax_friedrichs_flux_euler
from step_oracles import quadratic_energy, total_variation

GAMMA_LEBLANC = 5.0 / 3.0


def periodic_grid(n, x_min=0.0, x_max=1.0, sampling="center"):
    return Grid1D(n, x_min, x_max, Periodic(), sampling)


# ---------------------------------------------------------------------------
# grid

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(2, 0.0, 1.0)
    with pytest.raises(ValueError):
        Grid1D(10, 1.0, 1.0)
    for n in (40.5, 40.0, True, "40"):
        with pytest.raises(ValueError, match="n_cells must be an integer"):
            Grid1D(n, 0.0, 1.0)
    assert Grid1D(np.int64(40), 0.0, 1.0).n_cells == 40
    with pytest.raises(ValueError, match="unknown sampling 'edge'"):
        Grid1D(10, 0.0, 1.0, sampling="edge")


@pytest.mark.parametrize(
    "bounds, message",
    [
        ((0.0, np.inf), "x_max must be finite, got inf"),
        ((-np.inf, 1.0), "x_min must be finite, got -inf"),
        ((np.nan, 1.0), "x_min must be finite, got nan"),
        ((0.0, True), "x_max must be a real number, got True"),
        (("0", 1.0), "x_min must be a real number, got '0'"),
    ],
)
def test_grid_bounds_must_be_finite_real_numbers(bounds, message):
    """An infinite x_max used to give a grid of infinite dx."""
    with pytest.raises(ValueError, match=re.escape(message)):
        Grid1D(10, *bounds)


@pytest.mark.parametrize(
    "states, message",
    [
        ((True, -0.5), "left must be a real number, got True"),
        (("1", -0.5), "left must be a real number, got '1'"),
        ((1.0, None), "right must be a real number, got None"),
        ((np.nan, -0.5), "left must be finite, got nan"),
        ((1.0, -np.inf), "right must be finite, got -inf"),
    ],
    ids=["bool", "str", "none", "nan", "inf"],
)
def test_dirichlet_states_must_be_finite_real_numbers(states, message):
    """True and "1" used to run as 1.0, None to fail mid-run with a TypeError
    and NaN to run to a degenerate_dt abort."""
    with pytest.raises(ValueError, match=re.escape(message)):
        Dirichlet(*states)


@pytest.mark.parametrize(
    "value, kind, finite",
    [
        (10**400, numbers.Real, False),
        (10**400, numbers.Real, True),
        (-(10**400), numbers.Real, True),
        (Fraction(10**400, 3), numbers.Real, False),
        (10**400, numbers.Integral, False),
    ],
    ids=["real", "finite", "negative", "fraction", "integer"],
)
def test_a_number_a_float_cannot_hold_is_refused_by_name(value, kind, finite):
    """10**400 passed the type rule and then raised an OverflowError, from
    math.isfinite with ``finite`` or from the first float() of it later."""
    with pytest.raises(ValueError, match=re.escape(f"width must be within the float range, got {value!r}")):
        require_number("width", value, kind, finite=finite)


def test_a_number_at_the_edge_of_the_float_range_is_kept():
    for value in (2**1023, -(2**1023), 1.7976931348623157e308, Fraction(1, 10**400)):
        require_number("width", value, finite=True)


def test_the_module_constants_of_the_hot_path_are_read_only_0d_arrays():
    """Every 0-d array a module binds for the ufunc calls of a step refuses
    to be written, so an ``out=`` argument cannot change it for every later
    call; ``operand`` makes each of them."""
    import rkstab.fields
    import rkstab.integrator
    import rkstab.monitors
    import rkstab.spatial

    found = {}  # each constant once, under the first name that binds it
    for module in (rkstab.fields, rkstab.spatial, rkstab.monitors, rkstab.integrator):
        for name, value in vars(module).items():
            if isinstance(value, np.ndarray) and all(value is not v for v in found.values()):
                found[f"{module.__name__}.{name}"] = value
    assert {name: float(value) for name, value in found.items()} == {
        "rkstab.fields.ZERO": 0.0,
        "rkstab.fields.HALF": 0.5,
        "rkstab.spatial._TWO": 2.0,
        "rkstab.spatial._SIX": 6.0,
    }
    for name, value in found.items():
        assert value.shape == () and value.dtype == np.float64, name
        with pytest.raises(ValueError, match="read-only"):
            np.add(value, 1.0, out=value)
        with pytest.raises(ValueError, match="read-only"):
            value[...] = 1.0
    made = operand(3)
    assert made.shape == () and made.dtype == np.float64 and not made.flags.writeable


def test_fields_reject_a_wrong_length():
    grid = Grid1D(4, 0.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("q must have length 4, got (3,)")):
        ScalarField(grid, np.zeros(3))
    with pytest.raises(ValueError, match=re.escape("m must have length 4, got (5,)")):
        EulerField(grid, np.ones(4), np.zeros(5), np.ones(4), 1.4)


def test_grid_points_conventions():
    g_node = Grid1D(4, 0.0, 2.0, Periodic(), "node")
    np.testing.assert_allclose(g_node.points(), [0.0, 0.5, 1.0, 1.5])
    g_cent = Grid1D(4, 0.0, 2.0, Periodic(), "center")
    np.testing.assert_allclose(g_cent.points(), [0.25, 0.75, 1.25, 1.75])


def test_grid_dx_is_computed_once_and_is_no_field():
    """dx is kept on the grid once read; a grid that has read it equals,
    hashes, prints, replaces and pickles as one that has not."""
    fresh, used = Grid1D(600, -0.5, 0.8), Grid1D(600, -0.5, 0.8)
    assert used.dx == (0.8 - -0.5) / 600
    assert used.__dict__["dx"] is used.dx  # no second division
    assert "dx" not in fresh.__dict__
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    wider = replace(used, x_max=1.3)
    assert wider.dx == 1.8 / 600
    for grid in (fresh, used):
        copy = pickle.loads(pickle.dumps(grid))
        assert copy == grid and copy.dx == used.dx


# ---------------------------------------------------------------------------
# thermodynamics

def written_primitive(tmp_path, rho, m, E, gamma):
    """(u, p) of a conserved triple as field_to_csv writes them."""
    path = tmp_path / "field.csv"
    field_to_csv(EulerField(Grid1D(3, 0.0, 1.0), np.full(3, rho), np.full(3, m), np.full(3, E), gamma), path)
    with open(path, newline="") as fh:
        row = next(csv.DictReader(fh))
    return float(row["u"]), float(row["p"])


def test_the_csv_writer_writes_every_float_as_its_repr(tmp_path):
    """Field snapshots, histories and tables share one writer; a float
    array's value and a Python float's are written alike, as ``repr``,
    special values included, as the field writer's per-value ``repr`` did."""
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1e-310, np.finfo(float).max, 0.1, 1.0 / 3.0]
    path = tmp_path / "columns.csv"
    write_csv_columns(path, ["a", "b", "name"], [np.array(values), values[::-1], ["x"] * len(values)])
    rows = [f"{float(a)!r},{float(b)!r},x" for a, b in zip(values, values[::-1])]
    assert path.read_bytes() == "".join(f"{row}\r\n" for row in ["a,b,name", *rows]).encode()


def euler_flux(state, gamma):
    """The physical flux: the oracle's LF interface flux between equal states."""
    return lax_friedrichs_flux_euler(state, state, gamma)[0]


def test_conserved_to_primitive_leblanc_left(tmp_path):
    u, p = written_primitive(tmp_path, 1.0, 0.0, 0.1, GAMMA_LEBLANC)
    assert u == 0.0
    assert p == pytest.approx((GAMMA_LEBLANC - 1.0) * 0.1, rel=1e-12)


def test_conserved_to_primitive_zero_energy(tmp_path):
    assert written_primitive(tmp_path, 1.0, 0.0, 0.0, 1.4) == (0.0, 0.0)


def test_conserved_to_primitive_moving_state(tmp_path):
    u, p = written_primitive(tmp_path, 2.0, 2.0, 3.0, 1.4)
    assert u == pytest.approx(1.0)
    assert p == pytest.approx(0.8)  # rho*e = 3 - 1 = 2, p = 0.4 * 2


def test_primitive_round_trip_random(tmp_path):
    rng = np.random.default_rng(42)
    for _ in range(200):
        rho = rng.uniform(0.05, 10.0)
        u = rng.uniform(-5.0, 5.0)
        p = rng.uniform(1e-3, 10.0)
        gamma = rng.uniform(1.1, 2.0)
        m = rho * u
        E = p / (gamma - 1.0) + 0.5 * rho * u * u
        got_u, got_p = written_primitive(tmp_path, rho, m, E, gamma)
        assert got_u == pytest.approx(u, rel=1e-13, abs=1e-15)
        assert got_p == pytest.approx(p, rel=1e-13)


def test_euler_flux_leblanc_left():
    f = euler_flux((1.0, 0.0, 0.1), GAMMA_LEBLANC)
    np.testing.assert_allclose(f, [0.0, (GAMMA_LEBLANC - 1.0) * 0.1, 0.0], atol=1e-15)


def test_euler_flux_at_rest_is_pressure_only():
    f = euler_flux((2.0, 0.0, 5.0), 1.4)
    assert f[0] == 0.0 and f[2] == 0.0
    assert f[1] == pytest.approx(0.4 * 5.0)


def test_euler_flux_moving_state():
    # rho*e = 1 - 0.5 = 0.5, p = 0.2
    np.testing.assert_allclose(euler_flux((1.0, 1.0, 1.0), 1.4), [1.0, 1.2, 1.2], rtol=1e-14)


def test_euler_flux_nonpositive_density_raises():
    with pytest.raises(NonPhysicalStateError):
        euler_flux((-1.0, 0.0, 1.0), 1.4)


# ---------------------------------------------------------------------------
# total variation

def test_tv_constant_field_is_zero():
    f = ScalarField(periodic_grid(8), np.full(8, 3.7))
    assert total_variation(f) == 0.0


def test_tv_spike_periodic():
    f = ScalarField(periodic_grid(3), np.array([0.0, 1.0, 0.0]))
    assert total_variation(f) == pytest.approx(2.0)


def test_tv_counts_the_wrap_pair_on_periodic_grids_only():
    g_dir = Grid1D(4, 0.0, 1.0, Dirichlet(0.0, 1.0), "center")
    q = np.array([0.0, 1.0, 0.0, 1.0])
    assert total_variation(ScalarField(g_dir, q)) == pytest.approx(3.0)
    g_per = periodic_grid(4)
    assert total_variation(ScalarField(g_per, q)) == pytest.approx(4.0)


def test_tv_upwind_initial_condition():
    """Sine extrema fall on nodes, so the discrete TV equals the exact 1.0."""
    grid = Grid1D(100, 0.0, 2.0, Periodic(), "node")
    x = grid.points()
    f = ScalarField(grid, 0.5 - 0.25 * np.sin(np.pi * x))
    # independent oracle: direct summation including the wrap pair
    tv_direct = sum(abs(f.q[(i + 1) % 100] - f.q[i]) for i in range(100))
    assert total_variation(f) == pytest.approx(tv_direct, abs=1e-15)
    assert total_variation(f) == pytest.approx(1.0, abs=1e-12)


def test_tv_translation_invariance():
    rng = np.random.default_rng(3)
    q = rng.normal(size=32)
    f = ScalarField(periodic_grid(32), q)
    g = ScalarField(periodic_grid(32), q + 17.25)
    assert total_variation(f) == pytest.approx(total_variation(g), rel=1e-14)


# ---------------------------------------------------------------------------
# quadratic energy

def test_energy_examples():
    g = periodic_grid(3)
    assert quadratic_energy(ScalarField(g, np.zeros(3))) == 0.0
    assert quadratic_energy(ScalarField(g, np.ones(3))) == pytest.approx(1.5)
    g2 = Grid1D(3, 0.0, 1.0, Periodic())
    assert quadratic_energy(ScalarField(g2, np.array([3.0, -4.0, 0.0]))) == pytest.approx(12.5)


def test_energy_strict_convexity():
    rng = np.random.default_rng(7)
    g = periodic_grid(16)
    for _ in range(100):
        u = rng.normal(size=16)
        v = rng.normal(size=16)
        theta = rng.uniform(0.05, 0.95)
        mid = quadratic_energy(ScalarField(g, theta * u + (1 - theta) * v))
        chord = theta * quadratic_energy(ScalarField(g, u)) + (1 - theta) * quadratic_energy(
            ScalarField(g, v)
        )
        assert mid < chord


# ---------------------------------------------------------------------------
# positivity

def leblanc_ic(n=600):
    grid = Grid1D(n, 0.0, 1.0, Periodic(), "center")
    x = grid.points()
    left = x < 0.33
    rho = np.where(left, 1.0, 1e-3)
    E = np.where(left, 0.1, 1e-10)
    return EulerField(grid, rho, np.zeros(n), E, GAMMA_LEBLANC)


def test_positivity_leblanc_ic_passes():
    U = leblanc_ic().stack()
    assert admissibility_error(U) is None
    min_rho, min_rhoe = euler_minima(U)
    assert min_rho == pytest.approx(1e-3)
    assert min_rhoe == pytest.approx(1e-10)


def test_positivity_tiny_negative_density_fails():
    U = leblanc_ic().stack()
    U[0, 5] = -1e-16
    error = admissibility_error(U)
    assert str(error) == "non-positive density in Euler state (cell 5)"
    assert error.cell == 5


def test_positivity_negative_internal_energy():
    U = np.stack([np.ones(3), np.array([0.0, 2.0, 0.0]), np.ones(3)])
    error = admissibility_error(U)
    assert str(error) == "non-positive internal energy in Euler state (cell 1)"
    assert error.cell == 1
    assert euler_minima(U)[1] == pytest.approx(-1.0)  # 1 - 4/2


def test_positivity_exact_zero_fails():
    U = np.stack([np.array([1.0, 0.0, 1.0]), np.zeros(3), np.ones(3)])
    assert admissibility_error(U) is not None
