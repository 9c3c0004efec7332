"""Semi-discrete right-hand sides for the model problems.

Four schemes: an energy-dissipative flux for Burgers, first-order upwind for
Burgers, minmod MUSCL with a Godunov flux for Burgers, and (local)
Lax-Friedrichs for the 1D Euler equations.  Each scheme carries the step
size dt_FE below which a single forward Euler step is guaranteed (or, for
the dissipative flux, reported) to preserve its stability property.

A scheme's ``rhs_array`` and ``dt_fe_array`` kernels operate on bare numpy
arrays.  Kernels take a state, ``(n,)`` for Burgers and ``(3, n)`` for
Euler, or a stack of states with leading batch axes, ``(..., n)`` or
``(..., 3, n)``: every row is advanced independently, and ``dt_fe_array``
returns one step bound per row (a float for a single state), or one float
when the bound does not depend on the state.  ``rhs_array(q, grid,
with_dt_fe=True)`` returns ``(R, dt_fe_array(q, grid))``, which is the one
call the time integrator makes for a step's stage 0 (the LLF kernel takes
the bound from the wavespeeds of the same pass).  Kernels do not check
admissibility; the stepping loop does, once per row and stage.  A kernel's
result is always a fresh array.  The three Burgers kernels compute in
views of one per-process scratch buffer, cut once per stack shape (see
:class:`_Scratch`), so a kernel call is not re-entrant across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Dirichlet,
    Grid1D,
    Outflow,
    Periodic,
    per_row,
    require_number,
)

__all__ = [
    "UnsupportedBoundaryError",
    "DissipativeBurgers",
    "UpwindBurgers",
    "MusclBurgers",
    "LaxFriedrichsEuler",
]


class UnsupportedBoundaryError(ValueError):
    """The scheme does not implement the grid's boundary treatment."""


# ---------------------------------------------------------------------------
# scheme descriptors

@dataclass(frozen=True)
class DissipativeBurgers:
    """Energy-dissipative Burgers flux with viscosity-like parameter mu."""

    mu: float = 1e-3
    is_euler = False

    def __post_init__(self):
        require_number("mu", self.mu, finite=True)
        if self.mu < 0:
            raise ValueError("mu must be non-negative")

    def rhs_array(self, q: np.ndarray, grid: Grid1D, *, with_dt_fe: bool = False):
        _require_periodic(grid, "dissipative Burgers")
        r = _SCRATCH.kernel(_dissipative, 2, 3, q.shape, grid.dx, self.mu)(q)
        return (r, self.dt_fe_array(q, grid)) if with_dt_fe else r

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return 0.006 * grid.dx


@dataclass(frozen=True)
class UpwindBurgers:
    """First-order upwind Burgers scheme; TVD for data in [0, 1] up to dt = dx."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D, *, with_dt_fe: bool = False):
        _require_periodic(grid, "upwind Burgers")
        r = _SCRATCH.kernel(_upwind, 1, 2, q.shape, grid.dx)(q)
        return (r, self.dt_fe_array(q, grid)) if with_dt_fe else r

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return grid.dx


@dataclass(frozen=True)
class MusclBurgers:
    """Second-order minmod MUSCL reconstruction with the Godunov flux."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D, *, with_dt_fe: bool = False):
        r = _SCRATCH.kernel(_muscl, 4, 4, q.shape, grid.dx, grid.boundary)(q)
        return (r, self.dt_fe_array(q, grid)) if with_dt_fe else r

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return _bound_over(grid.dx, 2.0 * np.maximum.reduce(np.abs(q), axis=-1))


@dataclass(frozen=True)
class LaxFriedrichsEuler:
    """(Local) Lax-Friedrichs discretization of the 1D Euler equations.

    ``local=True`` uses per-interface wavespeeds; ``local=False`` applies the
    global maximum wavespeed at every interface.
    """

    gamma: float = 5.0 / 3.0
    local: bool = True
    is_euler = True

    def __post_init__(self):
        require_number("gamma", self.gamma, finite=True)
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")

    def rhs_array(self, U: np.ndarray, grid: Grid1D, *, with_dt_fe: bool = False):
        return _llf_rhs(U, grid.dx, self.gamma, grid.boundary, self.local, with_dt_fe)

    def dt_fe_array(self, U: np.ndarray, grid: Grid1D):
        return self.rhs_array(U, grid, with_dt_fe=True)[1]


def _require_periodic(grid: Grid1D, what: str) -> None:
    if not isinstance(grid.boundary, Periodic):
        raise UnsupportedBoundaryError(f"{what} requires a periodic grid")


def _bound_over(dx: float, speed):
    """dx / speed per row, +inf where the speed is zero (NaN stays NaN)."""
    with np.errstate(divide="ignore"):  # speeds are +0.0 or more, or NaN: never -0.0
        return per_row(dx / np.asarray(speed))


# ---------------------------------------------------------------------------
# Burgers kernels

class _Scratch:
    """The working memory of the scalar kernels: one float buffer per process.

    A kernel's form is bound once per stack shape, grid spacing and
    parameters.  It gets the ghost-extended stack and a few flat blocks as
    long as that stack, all cut from the head of the buffer, and returns a
    function of the state that fills the extended stack and runs the
    kernel's ufuncs on those views, cut once, leaving the flux difference
    ``F_{i+1/2} - F_{i-1/2}`` in the first n lanes of each extended row.
    The bound kernel divides those out by ``-dx`` into a fresh array, so a
    result never views the buffer.  The bindings of every kernel and shape
    share the buffer, which grows to the widest stack served and then drops
    the bindings cut from the old one.  A kernel call is therefore not
    re-entrant across threads; the sweep's pool runs processes, each with
    its own buffer.
    """

    LIMIT = 64  # bindings kept; one more starts the table again

    def __init__(self):
        self.buffer = np.empty(0)
        self.bound = {}

    def kernel(self, form, ghosts: int, blocks: int, shape: tuple, dx: float, *params):
        """``form(qe, *flat_blocks, *params)`` bound for stacks of ``shape``:
        ``qe`` has ``ghosts`` more cells per row, and ``blocks`` counts it
        with the flat blocks."""
        key = (form, shape, dx, params)
        kernel = self.bound.get(key)
        if kernel is None:
            extended = shape[:-1] + (shape[-1] + ghosts,)
            lanes = math.prod(extended)
            if blocks * lanes > self.buffer.size:
                self.buffer = np.empty(blocks * lanes)
                self.bound.clear()
            elif len(self.bound) >= self.LIMIT:
                self.bound.clear()
            cut = self.buffer[: blocks * lanes].reshape(blocks, lanes)
            qe = cut[0].reshape(extended)
            fill = form(qe, *cut[1:], *params)
            kernel = self.bound[key] = _divided(fill, qe[..., : shape[-1]], -dx)
        return kernel


def _divided(fill, cells, by):
    """``fill(q)``, then ``cells / by`` as a fresh C-ordered array."""
    divide = np.divide
    if cells.flags.c_contiguous:  # a single state, or a stack of one row

        def kernel(q):
            fill(q)
            return divide(cells, by)

    else:

        def kernel(q):
            fill(q)
            # A divide of strided rows into a new array costs more than a
            # copy divided in place.
            r = cells.copy()
            divide(r, by, r)
            return r

    return kernel


_SCRATCH = _Scratch()


# Each form runs on the flattened stack of extended rows, one contiguous
# pass per operation, as the LLF interfaces do: lane k pairs entries k and
# k+1.  The lanes that pair a row's last cells with the next row's first
# ones are scratch, computed and dropped.  The ghost cells are filled after
# the cells, from the cells they copy (periodic) or from the boundary
# values (Dirichlet), and the flux difference is written over the head of
# the extended stack, which nothing reads any more.

def _dissipative(qe, sq, flux, mu):
    n = qe.shape[-1] - 2
    cells, left, right = qe[..., 1:-1], qe[..., :1], qe[..., -1:]
    last, first = qe[..., n : n + 1], qe[..., 1:2]
    e = qe.reshape(-1)
    ql, qr, sq_l, sq_r = e[:-1], e[1:], sq[:-1], sq[1:]
    F = flux[:-1]
    F_r, F_l, head = F[1:], F[:-1], e[:-2]
    multiply, add, subtract, divide = np.multiply, np.add, np.subtract, np.divide

    def kernel(q):
        cells[...] = q  # one ghost cell per side, periodic
        left[...] = last
        right[...] = first
        multiply(e, e, sq)
        # F = (q^2 + q q_r + q_r^2) / 6 - mu (q_r - q), the flux through i+1/2
        multiply(ql, qr, F)
        add(sq_l, F, F)
        add(F, sq_r, F)
        divide(F, 6.0, F)
        subtract(qr, ql, sq_l)  # the jump
        multiply(mu, sq_l, sq_l)
        subtract(F, sq_l, F)
        subtract(F_r, F_l, head)

    return kernel


def _upwind(qe, f):
    n = qe.shape[-1] - 1
    cells, left, last = qe[..., 1:], qe[..., :1], qe[..., n:]
    e = qe.reshape(-1)
    f_r, f_l, head = f[1:], f[:-1], e[:-1]
    multiply, subtract = np.multiply, np.subtract

    def kernel(q):
        cells[...] = q  # one periodic ghost cell on the left
        left[...] = last
        multiply(0.5, e, f)  # the upwind flux f(q_i) through i+1/2
        multiply(f, e, f)
        subtract(f_r, f_l, head)

    return kernel


def _muscl(qe, a, b, c, boundary):
    n = qe.shape[-1] - 4
    cells, left, right = qe[..., 2:-2], qe[..., :2], qe[..., -2:]
    if isinstance(boundary, Periodic):
        ghost_l, ghost_r = qe[..., n : n + 2], qe[..., 2:4]
    elif isinstance(boundary, Dirichlet):
        ghost_l, ghost_r = float(boundary.left), float(boundary.right)
    else:  # so no binding exists for another boundary
        raise UnsupportedBoundaryError("MUSCL Burgers supports periodic or dirichlet boundaries only")
    e = qe.reshape(-1)
    # Each block holds one quantity at a time; a quantity's block is free
    # once every quantity it makes is made.
    dq, sign, half = a[:-1], b[:-1], c[:-2]
    signs, qm, qp, f, fp = a[:-2], b[:-3], a[:-3], c[:-3], b[:-3]
    e_r, e_l, dq_r, dq_l, sign_r, sign_l = e[1:], e[:-1], dq[1:], dq[:-1], sign[1:], sign[:-1]
    qe_m, qe_p, half_l, half_r = e[1:-2], e[2:-1], half[:-1], half[1:]
    f_r, f_l, head = f[1:], f[:-1], e[:-4]
    add, subtract, multiply, maximum, minimum = np.add, np.subtract, np.multiply, np.maximum, np.minimum
    sign_of, absolute = np.sign, np.abs

    def kernel(q):
        cells[...] = q  # two ghost cells per side
        left[...] = ghost_l
        right[...] = ghost_r
        subtract(e_r, e_l, dq)
        # half the minmod slope of extended cell k+1, k = 0 .. n+1:
        # 0.5 * (0.5 * (sign(a) + sign(b)) * min(|a|, |b|)), a = dq[k+1], b = dq[k]
        sign_of(dq, sign)
        absolute(dq, dq)
        minimum(dq_r, dq_l, out=half)
        add(sign_r, sign_l, signs)
        multiply(signs, 0.5, signs)
        multiply(half, signs, half)
        multiply(half, 0.5, half)
        add(qe_m, half_l, qm)  # q^- at interfaces -1/2 .. n-1/2
        subtract(qe_p, half_r, qp)  # q^+ at the same interfaces
        # Godunov flux of q^2/2: max(f(max(q^-, 0)), f(min(q^+, 0))), f(x) = (0.5 x) x,
        # which is 0 when q^- <= 0 <= q^+, else min or max of the endpoint fluxes.
        maximum(qm, 0.0, out=qm)
        minimum(qp, 0.0, out=qp)
        multiply(0.5, qm, f)
        multiply(f, qm, f)
        multiply(0.5, qp, fp)
        multiply(fp, qp, fp)
        maximum(f, fp, out=f)
        subtract(f_r, f_l, head)

    return kernel


# ---------------------------------------------------------------------------
# Euler kernels

def _primitive_parts(rho, m, E, gamma: float):
    """Velocity, pressure and maximal signal speed |u| + sqrt(gamma p / rho) per cell."""
    u = m / rho
    p = 0.5 * m  # p = (gamma - 1) * (E - 0.5 * m * u)
    p *= u
    np.subtract(E, p, out=p)
    p *= gamma - 1.0
    sound = gamma * p
    sound /= rho
    speed = np.abs(u)
    speed += np.sqrt(sound, out=sound)
    return u, p, speed


def _extend_euler(V: np.ndarray, boundary) -> np.ndarray:
    """The component-major state ``V`` (3, ..., n) with one ghost cell per
    side, as a new C-contiguous (3, ..., n+2) array."""
    if isinstance(boundary, Outflow):
        pieces = (V[..., :1], V, V[..., -1:])
    elif isinstance(boundary, Periodic):
        pieces = (V[..., -1:], V, V[..., :1])
    else:
        raise UnsupportedBoundaryError(
            "Lax-Friedrichs Euler supports outflow or periodic boundaries only"
        )
    # concatenate alone would lay the result out as its input is laid out
    return np.concatenate(pieces, axis=-1, out=np.empty(V.shape[:-1] + (V.shape[-1] + 2,)))


def _llf_rhs(U: np.ndarray, dx: float, gamma: float, boundary, local: bool, with_dt_fe: bool = False):
    # Every pass runs on one contiguous block: the extended state is stored
    # component-major, (3, ..., n+2), whatever the layout of U (a (..., 3, n)
    # stack's component rows are strided), and the result is copied back
    # into U's axis order.  For a single (3, n) state the order is the same.
    Ue = _extend_euler(U.swapaxes(0, -2), boundary)
    rho, m, E = Ue
    u, p, speed = _primitive_parts(rho, m, E, gamma)
    flux = np.empty_like(Ue)  # m, m * u + p, u * (E + p)
    flux[0] = m
    mom, ene = flux[1], flux[2]
    np.multiply(m, u, out=mom)
    mom += p
    np.add(E, p, out=ene)
    ene *= u
    del u, p, mom, ene
    # The interface arithmetic runs on the flattened (3, ..., n+2) arrays:
    # lane k pairs entries k and k+1, so the last lane of each row of cells
    # pairs it with the next row's (or component's) first cell.  Those lanes
    # are scratch, computed and dropped; the others are the interfaces -1/2
    # .. n+1/2.  The very last lane has no partner and is zeroed, so that no
    # uninitialized memory enters the broadcast product.
    if local:
        # The ghost cells copy real cells: this is the max over U's cells.
        top = np.maximum.reduce(speed, axis=-1) if with_dt_fe else None
        a_ifc = np.empty_like(speed)
        lanes, speed = a_ifc.reshape(-1), speed.reshape(-1)
        np.maximum(speed[:-1], speed[1:], out=lanes[:-1])
        lanes[-1:] = 0.0
    else:
        a_ifc = np.maximum.reduce(speed, axis=-1, keepdims=True)
        top = a_ifc[..., 0]
    del speed
    # h = 0.5 * (flux_l + flux_r - a * (U_r - U_l)) and -(h_r - h_l) / dx,
    # the same operations done in place, so that a row keeps fewer states
    # alive while a batch steps: a table's 10-row Leblanc chunk peaks at
    # about 11 states a row (see limits.CHUNK_BYTES).
    h = np.empty_like(Ue)
    lanes = h.reshape(-1)[:-1]
    fluxes = flux.reshape(-1)
    np.add(fluxes[:-1], fluxes[1:], out=lanes)
    del flux, fluxes
    jump = np.empty_like(Ue)
    cells, jumps = Ue.reshape(-1), jump.reshape(-1)
    np.subtract(cells[1:], cells[:-1], out=jumps[:-1])
    jumps[-1:] = 0.0
    jump *= a_ifc  # over every component
    lanes -= jumps[:-1]
    lanes *= 0.5
    np.subtract(lanes[1:], lanes[:-1], out=jumps[:-2])  # h_r - h_l
    del h, lanes
    r = np.empty(U.shape)  # C-ordered, whatever the layout of U
    r.swapaxes(0, -2)[...] = jump[..., :-2]
    r /= -dx
    if with_dt_fe:
        if U.ndim > 3:  # the swap put U's first batch axis last
            top = np.moveaxis(top, -1, 0)
        return r, _bound_over(dx, top)
    return r
