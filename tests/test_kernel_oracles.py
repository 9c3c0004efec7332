"""The MUSCL and LLF kernels against their reference oracles, bit for bit.

Every non-NaN value must have the oracle's bits (compared as ``int64``, so
that -0.0 and +0.0 differ) and NaN must sit in the same cells, for single
states and stacks, on both boundaries each kernel supports, with NaN,
infinities, signed zeros and 1e-300 in the data.
"""

import numpy as np
import pytest

from kernel_oracles import llf_dt_fe, llf_rhs, muscl_dt_fe, muscl_rhs
from rkstab.fields import Dirichlet, Grid1D, Outflow, Periodic
from rkstab.spatial import LaxFriedrichsEuler, MusclBurgers

# 1.234e-161 squares into the subnormals, where (0.5 * x) * x and 0.5 * (x * x) differ.
SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 1.234e-161, -1.234e-161, 1.0, -0.5, 0.5])
GAMMA = 5.0 / 3.0


@pytest.fixture(autouse=True)
def quiet_floating_point():
    with np.errstate(all="ignore"):
        yield


def assert_bitwise(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def sprinkle(rng, x, share):
    """``x`` with a ``share`` of its entries replaced by special values."""
    x = x.copy()
    hit = rng.random(x.shape) < share
    x[hit] = rng.choice(SPECIAL, size=int(hit.sum()))
    return x


def stacks(rng, cell_shape):
    """Random data shaped (n,)-like, (1, ...) and (5, ...), with and without special values."""
    for lead in ((), (1,), (5,)):
        for share in (0.0, 0.1, 0.5):
            yield sprinkle(rng, rng.uniform(-1.5, 1.5, size=lead + cell_shape), share)


@pytest.mark.parametrize(
    "boundary",
    [Periodic(), Dirichlet(1.0, -0.5), Dirichlet(-0.0, 1e-300), Dirichlet(np.inf, np.nan)],
    ids=["periodic", "dirichlet", "dirichlet-zeros", "dirichlet-special"],
)
def test_muscl_kernel_equals_oracle_bitwise(boundary):
    rng = np.random.default_rng(41)
    grid = Grid1D(13, 0.0, 6.5, boundary)
    scheme = MusclBurgers()
    for q in stacks(rng, (13,)):
        assert_bitwise(scheme.rhs_array(q, grid), muscl_rhs(q, grid.dx, boundary))
        assert_bitwise(np.asarray(scheme.dt_fe_array(q, grid)), muscl_dt_fe(q, grid.dx))
    # every pair of special values as neighbours, and the zero-slope cases
    pairs = np.array(np.meshgrid(SPECIAL, SPECIAL)).reshape(2, -1).T
    q = np.concatenate([pairs, rng.choice(SPECIAL, size=(len(pairs), 11))], axis=1)
    assert_bitwise(scheme.rhs_array(q, grid), muscl_rhs(q, grid.dx, boundary))
    for value in SPECIAL:
        for q in (np.full(13, value), np.where(np.arange(13) % 3 == 0, value, 0.0)):
            assert_bitwise(scheme.rhs_array(q, grid), muscl_rhs(q, grid.dx, boundary))


def euler_stacks(rng, n):
    """Admissible random states, then with special values in rho, m and E."""
    for lead in ((), (1,), (4,)):
        rho = rng.uniform(1e-3, 2.0, size=lead + (n,))
        u = rng.uniform(-1.0, 1.0, size=lead + (n,))
        p = rng.uniform(1e-10, 1.0, size=lead + (n,))
        U = np.stack([rho, rho * u, p / (GAMMA - 1.0) + 0.5 * rho * u * u], axis=-2)
        yield U
        for share in (0.05, 0.3):
            yield sprinkle(rng, U, share)


@pytest.mark.parametrize("boundary", [Outflow(), Periodic()], ids=["outflow", "periodic"])
@pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
def test_llf_kernel_equals_oracle_bitwise(boundary, local):
    rng = np.random.default_rng(43)
    grid = Grid1D(17, 0.0, 1.0, boundary)
    scheme = LaxFriedrichsEuler(GAMMA, local)
    for U in euler_stacks(rng, 17):
        assert_bitwise(scheme.rhs_array(U, grid), llf_rhs(U, grid.dx, GAMMA, boundary, local))
    # the Leblanc jump, with a zero, a negative zero and a tiny density behind it
    x = grid.points()
    for rho_r in (1e-3, 0.0, -0.0, 1e-300):
        U = np.stack([np.where(x < 0.33, 1.0, rho_r), np.zeros(17), np.where(x < 0.33, 0.1, 1e-10)])
        assert_bitwise(scheme.rhs_array(U, grid), llf_rhs(U, grid.dx, GAMMA, boundary, local))


def test_llf_step_bound_equals_oracle_bitwise():
    rng = np.random.default_rng(47)
    grid = Grid1D(17, 0.0, 1.0, Outflow())
    scheme = LaxFriedrichsEuler(GAMMA)
    for U in euler_stacks(rng, 17):
        assert_bitwise(np.asarray(scheme.dt_fe_array(U, grid)), llf_dt_fe(U, grid.dx, GAMMA))
    U = np.stack([np.ones(17), np.zeros(17), np.zeros(17)])  # at rest, no pressure: speed 0
    assert_bitwise(np.asarray(scheme.dt_fe_array(U, grid)), np.asarray(np.inf))
