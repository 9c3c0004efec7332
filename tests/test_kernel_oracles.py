"""The four kernels against their reference oracles, bit for bit.

Every non-NaN value must have the oracle's bits (compared as ``int64``, so
that -0.0 and +0.0 differ) and NaN must sit in the same cells, for single
states and stacks, on every boundary each kernel supports, with NaN,
infinities, signed zeros and 1e-300 in the data.  The kernels work on
flattened rows, whose lanes at the first and the last cells pair a row with
the next: special values sit there too.  The scalar kernels compute in
views of one per-process scratch, bound per stack shape: each meets a run
of shapes that grows, shrinks and comes back, and no result may change
after later calls.  ``euler_minima`` is checked against a
per-cell oracle, and the one admissibility rule (the state floor judges,
``admissibility_error`` locates) against another.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import (
    dissipative_rhs,
    euler_minima_per_cell,
    first_inadmissible_cell,
    llf_dt_fe,
    llf_rhs,
    muscl_dt_fe,
    muscl_rhs,
    upwind_rhs,
)
from rkstab.fields import Dirichlet, Grid1D, Outflow, Periodic, admissibility_error, euler_minima
from rkstab import spatial
from rkstab.monitors import euler_state_floor
from rkstab.spatial import DissipativeBurgers, LaxFriedrichsEuler, MusclBurgers, UpwindBurgers

# 1.234e-161 squares into the subnormals, where (0.5 * x) * x and 0.5 * (x * x) differ.
SPECIAL = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, -1e-300, 1.234e-161, -1.234e-161, 1.0, -0.5, 0.5])
# ... and subnormals themselves.
EDGE = np.concatenate([SPECIAL, [5e-324, -5e-324, 1e-310, -1e-310]])
# Dirichlet states are finite; the largest float overflows when squared in the flux.
HUGE = np.finfo(float).max
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


#: Leading axes of the stacks, in call order, on which the scalar kernels
#: meet a scratch that grows, shrinks and comes back.
SHAPE_RUN = ((), (1,), (5,), (81,), (2, 3), (5,))


def assert_over_shape_run(monkeypatch, rng, scheme, grid, oracle):
    """From a new scratch, the kernel on stacks shaped by ``SHAPE_RUN`` equals
    the oracle bit for bit, and each result keeps its bits through the later
    calls: a result that viewed the scratch would not."""
    monkeypatch.setattr(spatial, "_SCRATCH", spatial._Scratch())
    results = []
    for lead in SHAPE_RUN:
        q = sprinkle(rng, rng.uniform(-1.5, 1.5, size=lead + (grid.n_cells,)), 0.1)
        r = scheme.rhs_array(q, grid)
        assert r.flags.c_contiguous
        assert_bitwise(r, oracle(q, grid.dx))
        results.append((r, r.copy()))
    for r, kept in results:
        assert_bitwise(r, kept)


@pytest.mark.parametrize(
    "boundary",
    [Periodic(), Dirichlet(1.0, -0.5), Dirichlet(-0.0, 1e-300), Dirichlet(HUGE, -1.234e-161)],
    ids=["periodic", "dirichlet", "dirichlet-zeros", "dirichlet-special"],
)
def test_muscl_kernel_equals_oracle_bitwise(monkeypatch, boundary):
    rng = np.random.default_rng(41)
    grid = Grid1D(13, 0.0, 6.5, boundary)
    scheme = MusclBurgers()
    assert_over_shape_run(monkeypatch, rng, scheme, grid, lambda q, dx: muscl_rhs(q, dx, boundary))
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


@pytest.mark.parametrize(
    "boundary",
    [Periodic(), Dirichlet(1.0, -0.5), Dirichlet(-5e-324, -HUGE)],
    ids=["periodic", "dirichlet", "dirichlet-special"],
)
def test_muscl_scratch_lanes_do_not_reach_the_cells(boundary):
    """The MUSCL kernel works on flattened rows, whose last lanes pair a row's
    last two cells and ghost cells with the next row's first ones: stacks of
    2-5 rows with special values in cells 0, 1, n-2 and n-1 of every row
    equal the oracle bit for bit."""
    rng = np.random.default_rng(53)
    grid = Grid1D(9, 0.0, 4.5, boundary)
    scheme = MusclBurgers()
    for rows in (2, 3, 4, 5):
        for _ in range(40):
            q = rng.uniform(-1.5, 1.5, size=(rows, 9))
            q[:, [0, 1, -2, -1]] = rng.choice(EDGE, size=(rows, 4))
            r = scheme.rhs_array(q, grid)
            assert r.flags.c_contiguous
            assert_bitwise(r, muscl_rhs(q, grid.dx, boundary))
    # every pair of special values in the two first and the two last cells
    pairs = np.array(np.meshgrid(EDGE, EDGE)).reshape(2, -1).T
    q = rng.uniform(-1.5, 1.5, size=(len(pairs), 9))
    q[:, :2], q[:, -2:] = pairs, pairs[::-1]
    assert_bitwise(scheme.rhs_array(q, grid), muscl_rhs(q, grid.dx, boundary))


BURGERS_FLUX = {
    "dissipative": (DissipativeBurgers(0.3), lambda q, dx: dissipative_rhs(q, dx, 0.3)),
    "upwind": (UpwindBurgers(), upwind_rhs),
}
# ... and values whose squares overflow.
BURGERS_EDGE = np.concatenate([EDGE, [1e308, -1e308]])


@pytest.mark.parametrize("kernel", sorted(BURGERS_FLUX))
def test_burgers_flux_kernel_equals_oracle_bitwise(monkeypatch, kernel):
    """The dissipative and upwind kernels work on flattened, periodically
    extended rows, whose last lanes pair a row's last cell with the next
    row's first: special values anywhere, then in cells 0 and n-1 of every
    row of stacks of 2-5 rows, equal the per-interface oracle bit for bit."""
    rng = np.random.default_rng(61)
    scheme, oracle = BURGERS_FLUX[kernel]
    grid = Grid1D(9, 0.0, 4.5, Periodic())
    assert_over_shape_run(monkeypatch, rng, scheme, grid, oracle)
    for q in stacks(rng, (9,)):
        assert_bitwise(scheme.rhs_array(q, grid), oracle(q, grid.dx))
    for rows in (2, 3, 4, 5):
        for _ in range(40):
            q = rng.uniform(-1.5, 1.5, size=(rows, 9))
            q[:, [0, -1]] = rng.choice(BURGERS_EDGE, size=(rows, 2))
            r = scheme.rhs_array(q, grid)
            assert r.flags.c_contiguous
            assert_bitwise(r, oracle(q, grid.dx))
    # every pair of special values in the first and the last cell
    pairs = np.array(np.meshgrid(BURGERS_EDGE, BURGERS_EDGE)).reshape(2, -1).T
    q = rng.uniform(-1.5, 1.5, size=(len(pairs), 9))
    q[:, [0, -1]] = pairs
    assert_bitwise(scheme.rhs_array(q, grid), oracle(q, grid.dx))
    for value in BURGERS_EDGE:
        assert_bitwise(scheme.rhs_array(np.full(9, value), grid), oracle(np.full(9, value), grid.dx))


def admissible(rng, lead, n):
    """Random admissible states shaped lead + (3, n)."""
    rho = rng.uniform(1e-3, 2.0, size=lead + (n,))
    u = rng.uniform(-1.0, 1.0, size=lead + (n,))
    p = rng.uniform(1e-10, 1.0, size=lead + (n,))
    return np.stack([rho, rho * u, p / (GAMMA - 1.0) + 0.5 * rho * u * u], axis=-2)


def euler_stacks(rng, n):
    """Admissible random states, then with special values in rho, m and E."""
    for lead in ((), (1,), (4,)):
        U = admissible(rng, lead, n)
        yield U
        for share in (0.05, 0.3):
            yield sprinkle(rng, U, share)


def edge_stacks(rng, n):
    """Admissible states with special values in cells 0 and n-1 of every row
    and component: every pair of them, then random draws per row."""
    pairs = np.array(np.meshgrid(EDGE, EDGE)).reshape(2, -1).T
    for lead, edges in (
        ((len(pairs),), np.stack([pairs, pairs[:, ::-1], pairs], axis=1)),
        ((), rng.choice(EDGE, size=(3, 2))),
        ((1,), rng.choice(EDGE, size=(1, 3, 2))),
        ((5,), rng.choice(EDGE, size=(5, 3, 2))),
    ):
        U = admissible(rng, lead, n)
        U[..., 0], U[..., -1] = edges[..., 0], edges[..., 1]
        yield U


@pytest.mark.parametrize("boundary", [Outflow(), Periodic()], ids=["outflow", "periodic"])
@pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
def test_llf_kernel_equals_oracle_bitwise(boundary, local):
    """The kernel, and its stage-0 pass, which also returns the scheme's
    step bound, bit for bit, also with special values in the scratch lanes."""
    rng = np.random.default_rng(43)
    grid = Grid1D(17, 0.0, 1.0, boundary)
    scheme = LaxFriedrichsEuler(GAMMA, local)
    for U in [*euler_stacks(rng, 17), *edge_stacks(rng, 17)]:
        R = scheme.rhs_array(U, grid)
        assert_bitwise(R, llf_rhs(U, grid.dx, GAMMA, boundary, local))
        R0, bound = scheme.rhs_array(U, grid, with_dt_fe=True)
        assert R0.flags.c_contiguous
        assert_bitwise(R0, R)
        assert_bitwise(np.asarray(bound), llf_dt_fe(U, grid.dx, GAMMA))
        assert type(bound) is type(scheme.dt_fe_array(U, grid))  # a float for one state
    # the Leblanc jump, with a zero, a negative zero and a tiny density behind it
    x = grid.points()
    for rho_r in (1e-3, 0.0, -0.0, 1e-300):
        U = np.stack([np.where(x < 0.33, 1.0, rho_r), np.zeros(17), np.where(x < 0.33, 0.1, 1e-10)])
        assert_bitwise(scheme.rhs_array(U, grid), llf_rhs(U, grid.dx, GAMMA, boundary, local))


def layouts(U):
    """The stack ``U`` (B, 3, n) laid out as the kernel may meet it."""
    component_major = np.empty((3,) + U.shape[:1] + U.shape[2:]).swapaxes(0, 1)
    component_major[...] = U
    workspace = np.full((2 * len(U),) + U.shape[1:], np.nan)
    workspace[: len(U)] = U
    yield np.ascontiguousarray(U)
    yield component_major
    yield np.asfortranarray(U)
    yield workspace[: len(U)]  # a row prefix, as run_batch steps its live rows
    yield U[0].copy()  # a single (3, n) state
    if len(U) % 2 == 0:
        yield U.reshape((2, -1) + U.shape[1:])  # two batch axes


@pytest.mark.parametrize("boundary", [Outflow(), Periodic()], ids=["outflow", "periodic"])
@pytest.mark.parametrize("local", [True, False], ids=["local", "global"])
def test_llf_kernel_does_not_depend_on_the_layout(boundary, local):
    """The kernel stores its extended state component-major: a C stack, a
    component-major view, a Fortran-ordered stack, a workspace row prefix, a
    single state and a stack with two batch axes give the oracle's bits, in
    a new C-contiguous array, with and without the step bound."""
    rng = np.random.default_rng(67)
    grid = Grid1D(17, 0.0, 1.0, boundary)
    scheme = LaxFriedrichsEuler(GAMMA, local)
    for stack in [*euler_stacks(rng, 17), *edge_stacks(rng, 17)]:
        if stack.ndim != 3:
            continue
        for U in layouts(stack):
            want = llf_rhs(U, grid.dx, GAMMA, boundary, local)
            R = scheme.rhs_array(U, grid)
            R0, bound = scheme.rhs_array(U, grid, with_dt_fe=True)
            for got in (R, R0):
                assert got.flags.c_contiguous
                assert_bitwise(got, want)
            assert_bitwise(np.asarray(bound), llf_dt_fe(U, grid.dx, GAMMA))
            assert type(bound) is type(scheme.dt_fe_array(U, grid))


def test_llf_step_bound_equals_oracle_bitwise():
    rng = np.random.default_rng(47)
    grid = Grid1D(17, 0.0, 1.0, Outflow())
    scheme = LaxFriedrichsEuler(GAMMA)
    for U in euler_stacks(rng, 17):
        assert_bitwise(np.asarray(scheme.dt_fe_array(U, grid)), llf_dt_fe(U, grid.dx, GAMMA))
    U = np.stack([np.ones(17), np.zeros(17), np.zeros(17)])  # at rest, no pressure: speed 0
    assert_bitwise(np.asarray(scheme.dt_fe_array(U, grid)), np.asarray(np.inf))
    assert scheme.rhs_array(U, grid, with_dt_fe=True)[1] == np.inf


@pytest.mark.parametrize(
    "scheme",
    [DissipativeBurgers(), UpwindBurgers(), MusclBurgers(), LaxFriedrichsEuler(GAMMA)],
    ids=["dissipative", "upwind", "muscl", "llf"],
)
def test_the_stage_0_call_is_the_kernel_with_its_bound(monkeypatch, scheme):
    """The stepping loop's one stage-0 call, ``rhs_array(q, grid,
    with_dt_fe=True)``, is ``(rhs_array(q, grid), dt_fe_array(q, grid))`` bit
    for bit, the bound's type included (a float for one state), on stacks
    shaped by ``SHAPE_RUN`` from a new scratch."""
    monkeypatch.setattr(spatial, "_SCRATCH", spatial._Scratch())
    rng = np.random.default_rng(71)
    grid = Grid1D(13, 0.0, 6.5, Periodic())
    for lead in SHAPE_RUN:
        if scheme.is_euler:
            q = sprinkle(rng, admissible(rng, lead, 13), 0.1)
        else:
            q = sprinkle(rng, rng.uniform(-1.5, 1.5, size=lead + (13,)), 0.1)
        r, bound = scheme.rhs_array(q, grid, with_dt_fe=True)
        want = scheme.dt_fe_array(q, grid)
        assert r.flags.c_contiguous
        assert_bitwise(r, scheme.rhs_array(q, grid))
        assert type(bound) is type(want)
        assert lead or type(bound) is float
        assert_bitwise(np.asarray(bound), np.asarray(want))


ROW_KINDS = ("mixed", "all_good", "all_bad")
CELL = st.one_of(
    st.floats(-3.0, 3.0),
    st.sampled_from([float(x) for x in EDGE]),
    st.floats(allow_nan=True, allow_infinity=True),
)
GOOD_RHO = st.one_of(st.floats(1e-3, 3.0), st.sampled_from([1e-300, 1.234e-161, 5e-324, 1e-310, np.inf]))
BAD_RHO = st.sampled_from([0.0, -0.0, -1.0, -1e-300, -5e-324, -np.inf, np.nan])


@st.composite
def euler_rows(draw):
    """A stack (B, 3, n) of rows that are mixed, all rho > 0 or all rho <= 0 / NaN."""
    n = draw(st.integers(1, 9))
    rows = []
    for kind in draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5)):
        rho = {"mixed": st.one_of(CELL, GOOD_RHO, BAD_RHO), "all_good": GOOD_RHO, "all_bad": BAD_RHO}[kind]
        rows.append([draw(st.lists(rho, min_size=n, max_size=n))] + [draw(st.lists(CELL, min_size=n, max_size=n)) for _ in "mE"])
    return np.array(rows)


def assert_same_value(got, want):
    """Equal as values (-0.0 == 0.0: a minimum over signed zeros may take
    either), NaN alike."""
    assert (np.isnan(got) and np.isnan(want)) or got == want, (got, want)


@settings(max_examples=400, deadline=None)
@given(U=euler_rows())
def test_euler_minima_equal_a_per_cell_oracle(U):
    stacked = euler_minima(U)
    for k, row in enumerate(U):
        want = euler_minima_per_cell(row)
        single = euler_minima(row)
        assert all(type(x) is float for x in single)
        for got in (single, (stacked[0][k], stacked[1][k])):
            assert_same_value(got[0], want[0])
            assert_same_value(got[1], want[1])


SPRINKLED = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-300, -1e-300, 1e308])


@st.composite
def sprinkled_stacks(draw):
    """A stack (B, 3, n) of ordinary values with special ones sprinkled in."""
    b, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    U = np.array(draw(st.lists(st.floats(-0.2, 3.0), min_size=3 * b * n, max_size=3 * b * n))).reshape(b, 3, n)
    for _ in range(draw(st.integers(0, 6))):
        U[draw(st.integers(0, b - 1)), draw(st.integers(0, 2)), draw(st.integers(0, n - 1))] = draw(SPRINKLED)
    return U


@settings(max_examples=400, deadline=None)
@given(U=sprinkled_stacks())
def test_state_floor_and_locator_are_one_rule(U):
    """A row's floor is positive exactly when it has no admissibility error,
    and the error names the oracle's quantity and cell."""
    floors = euler_state_floor(U)
    for k, row in enumerate(U):
        error, want = admissibility_error(row), first_inadmissible_cell(row)
        assert (floors[k] > 0.0) == (error is None) == (want is None)
        if want is not None:
            quantity, cell = want
            assert error.cell == cell
            assert str(error) == f"non-positive {quantity} in Euler state (cell {cell})"
