"""Semi-discrete right-hand sides for the model problems.

Four schemes: an energy-dissipative flux for Burgers, first-order upwind for
Burgers, minmod MUSCL with a Godunov flux for Burgers, and (local)
Lax-Friedrichs for the 1D Euler equations.  Each scheme carries the step
size dt_FE below which a single forward Euler step is guaranteed (or, for
the dissipative flux, reported) to preserve its stability property.

A scheme's ``rhs_array`` and ``dt_fe_array`` kernels operate on bare numpy
arrays and are what the time integrator drives.  Kernels take a state,
``(n,)`` for Burgers and ``(3, n)`` for Euler, or a stack of states with
leading batch axes, ``(..., n)`` or ``(..., 3, n)``: every row is advanced
independently, and ``dt_fe_array`` returns one step bound per row (a float
for a single state), or one float when the bound does not depend on the
state.  Kernels do not check admissibility; the stepping loop does, once
per row and stage.
"""

from __future__ import annotations

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

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        _require_periodic(grid, "dissipative Burgers")
        return _dissipative_rhs(q, grid.dx, self.mu)

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return 0.006 * grid.dx


@dataclass(frozen=True)
class UpwindBurgers:
    """First-order upwind Burgers scheme; TVD for data in [0, 1] up to dt = dx."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        _require_periodic(grid, "upwind Burgers")
        return _upwind_rhs(q, grid.dx)

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return grid.dx


@dataclass(frozen=True)
class MusclBurgers:
    """Second-order minmod MUSCL reconstruction with the Godunov flux."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        return _muscl_rhs(q, grid.dx, grid.boundary)

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
    #: ``rhs_array(U, grid, with_dt_fe=True)`` returns ``(R, dt_fe)``, the
    #: bound taken from the wavespeeds of the same pass; ``dt_fe_array`` is
    #: that bound.
    rhs_gives_dt_fe = True

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

def _dissipative_rhs(q: np.ndarray, dx: float, mu: float) -> np.ndarray:
    # One contiguous pass per operation over the flattened stack of extended
    # rows, as the LLF interfaces do: lane k pairs entries k and k+1, q_i and
    # q_{i+1} of cell i = k - 1 of its row.  The lanes that pair a row's last
    # cells with the next row's first ones are scratch, computed and dropped.
    qe = np.concatenate((q[..., -1:], q, q[..., :1]), axis=-1)
    e = qe.reshape(-1)
    sq = e * e
    ql, qr = e[:-1], e[1:]
    # F = (q^2 + q q_r + q_r^2) / 6 - mu (q_r - q), the flux through i+1/2
    F = ql * qr
    np.add(sq[:-1], F, F)
    F += sq[1:]
    F /= 6.0
    jump = np.subtract(qr, ql, sq[:-1])
    np.multiply(mu, jump, jump)
    F -= jump
    np.subtract(F[1:], F[:-1], e[:-2])  # into qe, whose first n lanes a row reads out
    # The rows are copied out, then divided in place: a divide of the strided
    # rows into a new array makes a temporary as large inside the call.
    r = qe[..., : q.shape[-1]].copy()
    r /= -dx
    return r


def _upwind_rhs(q: np.ndarray, dx: float) -> np.ndarray:
    f = 0.5 * q * q  # the upwind flux f(q_i) through i+1/2
    return np.divide(f - np.concatenate((f[..., -1:], f[..., :-1]), axis=-1), -dx)


def _extend_scalar(q: np.ndarray, boundary, width: int) -> np.ndarray:
    if isinstance(boundary, Periodic):
        return np.concatenate((q[..., -width:], q, q[..., :width]), axis=-1)
    if isinstance(boundary, Dirichlet):
        qe = np.empty(q.shape[:-1] + (q.shape[-1] + 2 * width,))
        qe[..., :width] = float(boundary.left)
        qe[..., width:-width] = q
        qe[..., -width:] = float(boundary.right)
        return qe
    raise UnsupportedBoundaryError(
        "MUSCL Burgers supports periodic or dirichlet boundaries only"
    )


def _muscl_rhs(q: np.ndarray, dx: float, boundary) -> np.ndarray:
    qe = _extend_scalar(q, boundary, 2)  # two ghost cells per side
    # The stencil runs on the flattened (..., n+4) extended stack as the
    # dissipative kernel's does; in row terms every index below is the one
    # of the row kernel.
    e = qe.reshape(-1)
    dq = e[1:] - e[:-1]
    # half the minmod slope of extended cell k+1, k = 0 .. n+1:
    # 0.5 * (0.5 * (sign(a) + sign(b)) * min(|a|, |b|)), a = dq[k+1], b = dq[k]
    sign = np.sign(dq)
    np.abs(dq, out=dq)
    half = np.minimum(dq[1:], dq[:-1])
    sign = sign[1:] + sign[:-1]
    sign *= 0.5
    half *= sign
    half *= 0.5
    qm = e[1:-2] + half[:-1]  # q^- at interfaces -1/2 .. n-1/2
    qp = e[2:-1] - half[1:]  # q^+ at the same interfaces
    # Godunov flux of q^2/2: max(f(max(q^-, 0)), f(min(q^+, 0))), f(x) = (0.5 x) x,
    # which is 0 when q^- <= 0 <= q^+, else min or max of the endpoint fluxes.
    np.maximum(qm, 0.0, out=qm)
    np.minimum(qp, 0.0, out=qp)
    f = 0.5 * qm
    f *= qm
    fp = 0.5 * qp
    fp *= qp
    np.maximum(f, fp, out=f)
    # f[k + 1] - f[k] into qe, whose first n lanes of each row are read out
    np.subtract(f[1:], f[:-1], e[:-4])
    r = qe[..., : q.shape[-1]].copy()
    r /= -dx
    return r


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
