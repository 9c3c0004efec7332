"""Semi-discrete right-hand sides for the model problems.

Four schemes: an energy-dissipative flux for Burgers, first-order upwind for
Burgers, minmod MUSCL with a Godunov flux for Burgers, and (local)
Lax-Friedrichs for the 1D Euler equations.  Each scheme carries the step
size dt_FE below which a single forward Euler step is guaranteed (or, for
the dissipative flux, reported) to preserve its stability property.

The public operations work on field objects; the ``*_array`` kernels they
wrap operate on bare numpy arrays and are what the time integrator drives.
Kernels take a state, ``(n,)`` for Burgers and ``(3, n)`` for Euler, or a
stack of states with leading batch axes, ``(..., n)`` or ``(..., 3, n)``:
every row is advanced independently, and ``dt_fe_array`` returns one step
bound per row (a float for a single state).  Kernels do not check
admissibility; the stepping loop does, once per row and stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    Dirichlet,
    EulerField,
    Grid1D,
    NonPhysicalStateError,
    Outflow,
    Periodic,
    ScalarField,
    internal_energy_density,
    per_row,
    require_admissible,
)

__all__ = [
    "UnsupportedBoundaryError",
    "DissipativeBurgers",
    "UpwindBurgers",
    "MusclBurgers",
    "LaxFriedrichsEuler",
    "minmod",
    "godunov_flux_burgers",
    "lax_friedrichs_flux_euler",
    "rhs_dissipative_burgers",
    "rhs_upwind_burgers",
    "rhs_muscl_burgers",
    "rhs_llf_euler",
    "dt_fe",
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
        if self.mu < 0:
            raise ValueError("mu must be non-negative")

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        _require_periodic(grid, "dissipative Burgers")
        return _dissipative_rhs(q, grid.dx, self.mu)

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return per_row(np.full(q.shape[:-1], 0.006 * grid.dx))


@dataclass(frozen=True)
class UpwindBurgers:
    """First-order upwind Burgers scheme; TVD for data in [0, 1] up to dt = dx."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        _require_periodic(grid, "upwind Burgers")
        return _upwind_rhs(q, grid.dx)

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return per_row(np.full(q.shape[:-1], grid.dx))


@dataclass(frozen=True)
class MusclBurgers:
    """Second-order minmod MUSCL reconstruction with the Godunov flux."""

    is_euler = False

    def rhs_array(self, q: np.ndarray, grid: Grid1D) -> np.ndarray:
        return _muscl_rhs(q, grid.dx, grid.boundary)

    def dt_fe_array(self, q: np.ndarray, grid: Grid1D):
        return _bound_over(grid.dx, 2.0 * np.max(np.abs(q), axis=-1))


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
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")

    def rhs_array(self, U: np.ndarray, grid: Grid1D) -> np.ndarray:
        return _llf_rhs(U, grid.dx, self.gamma, grid.boundary, self.local)

    def dt_fe_array(self, U: np.ndarray, grid: Grid1D):
        return _bound_over(grid.dx, _max_wavespeed(U, self.gamma))


SchemeSpec = DissipativeBurgers | UpwindBurgers | MusclBurgers | LaxFriedrichsEuler


def _require_periodic(grid: Grid1D, what: str) -> None:
    if not isinstance(grid.boundary, Periodic):
        raise UnsupportedBoundaryError(f"{what} requires a periodic grid")


def _bound_over(dx: float, speed):
    """dx / speed per row, +inf where the speed is zero (NaN stays NaN)."""
    speed = np.asarray(speed)
    return per_row(np.divide(dx, speed, out=np.full(speed.shape, math.inf), where=speed != 0.0))


def _next(a: np.ndarray) -> np.ndarray:
    """a[..., i + 1] with periodic wrap, i.e. ``np.roll(a, -1, axis=-1)``."""
    return np.concatenate((a[..., 1:], a[..., :1]), axis=-1)


def _prev(a: np.ndarray) -> np.ndarray:
    """a[..., i - 1] with periodic wrap, i.e. ``np.roll(a, 1, axis=-1)``."""
    return np.concatenate((a[..., -1:], a[..., :-1]), axis=-1)


# ---------------------------------------------------------------------------
# Burgers kernels

def _dissipative_rhs(q: np.ndarray, dx: float, mu: float) -> np.ndarray:
    qr = _next(q)
    # F[i] is the flux through interface i+1/2
    F = (q * q + q * qr + qr * qr) / 6.0 - mu * (qr - q)
    return -(F - _prev(F)) / dx


def _upwind_rhs(q: np.ndarray, dx: float) -> np.ndarray:
    f = 0.5 * q * q
    return -(f - _prev(f)) / dx


def minmod(a: float, b: float) -> float:
    """(sign(a) + sign(b))/2 * min(|a|, |b|), with sign(0) = 0."""
    return 0.5 * (np.sign(a) + np.sign(b)) * min(abs(a), abs(b))


def _minmod_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def godunov_flux_burgers(q_minus: float, q_plus: float) -> float:
    """Exact Riemann flux of f(q) = q^2/2 for left/right interface states.

    For q_minus <= q_plus the flux is the minimum of f over the interval
    (zero when it straddles the sonic point q = 0), otherwise the maximum of
    the endpoint values.
    """
    fm = 0.5 * q_minus * q_minus
    fp = 0.5 * q_plus * q_plus
    if q_minus <= q_plus:
        if q_minus <= 0.0 <= q_plus:
            return 0.0
        return min(fm, fp)
    return max(fm, fp)


def _godunov_arr(qm: np.ndarray, qp: np.ndarray) -> np.ndarray:
    fm = 0.5 * qm * qm
    fp = 0.5 * qp * qp
    return np.where(
        qm <= qp,
        np.where((qm <= 0.0) & (qp >= 0.0), 0.0, np.minimum(fm, fp)),
        np.maximum(fm, fp),
    )


def _extend_scalar(q: np.ndarray, boundary, width: int) -> np.ndarray:
    if isinstance(boundary, Periodic):
        return np.concatenate((q[..., -width:], q, q[..., :width]), axis=-1)
    if isinstance(boundary, Dirichlet):
        ghost = q.shape[:-1] + (width,)
        left = np.full(ghost, float(boundary.left))
        right = np.full(ghost, float(boundary.right))
        return np.concatenate((left, q, right), axis=-1)
    raise UnsupportedBoundaryError(
        "MUSCL Burgers supports periodic or dirichlet boundaries only"
    )


def _muscl_rhs(q: np.ndarray, dx: float, boundary) -> np.ndarray:
    qe = _extend_scalar(q, boundary, 2)  # two ghost cells per side
    dq = np.diff(qe, axis=-1)
    # slope of extended cell k+1 is slo[k], k = 0 .. n+1
    slo = _minmod_arr(dq[..., 1:], dq[..., :-1])
    qm = qe[..., 1:-2] + 0.5 * slo[..., :-1]  # q^- at interfaces -1/2 .. n-1/2
    qp = qe[..., 2:-1] - 0.5 * slo[..., 1:]  # q^+ at the same interfaces
    f = _godunov_arr(qm, qp)
    return -(f[..., 1:] - f[..., :-1]) / dx


# ---------------------------------------------------------------------------
# Euler kernels

def _primitive_parts(U: np.ndarray, gamma: float):
    """Velocity, pressure and maximal signal speed |u| + sqrt(gamma p / rho) per cell."""
    rho, m, E = U[..., 0, :], U[..., 1, :], U[..., 2, :]
    u = m / rho
    p = (gamma - 1.0) * (E - 0.5 * m * u)
    return u, p, np.abs(u) + np.sqrt(gamma * p / rho)


def _max_wavespeed(U: np.ndarray, gamma: float):
    return per_row(np.max(_primitive_parts(U, gamma)[2], axis=-1))


def lax_friedrichs_flux_euler(left, right, gamma: float):
    """Lax-Friedrichs interface flux and the interface wavespeed.

    h(l, r) = (f(l) + f(r) - a*(r - l)) / 2 with a the larger of the two
    one-sided maximal signal speeds |u| + sqrt(gamma p / rho).
    """
    parts = []
    for side, state in (("left", left), ("right", right)):
        rho, m, E = state
        if not rho > 0.0:
            raise NonPhysicalStateError(f"{side} state has non-positive density")
        u = m / rho
        p = (gamma - 1.0) * internal_energy_density(rho, m, E)
        if p < 0.0:
            raise NonPhysicalStateError(f"{side} state has negative pressure")
        flux = np.array([m, m * u + p, u * (E + p)])
        parts.append((flux, abs(u) + math.sqrt(gamma * p / rho)))
    (f_l, a_l), (f_r, a_r) = parts
    a = max(a_l, a_r)
    l_arr = np.asarray(left, dtype=float)
    r_arr = np.asarray(right, dtype=float)
    return 0.5 * (f_l + f_r - a * (r_arr - l_arr)), a


def _extend_euler(U: np.ndarray, boundary) -> np.ndarray:
    if isinstance(boundary, Outflow):
        return np.concatenate((U[..., :1], U, U[..., -1:]), axis=-1)
    if isinstance(boundary, Periodic):
        return np.concatenate((U[..., -1:], U, U[..., :1]), axis=-1)
    raise UnsupportedBoundaryError(
        "Lax-Friedrichs Euler supports outflow or periodic boundaries only"
    )


def _llf_rhs(U: np.ndarray, dx: float, gamma: float, boundary, local: bool) -> np.ndarray:
    Ue = _extend_euler(U, boundary)
    m, E = Ue[..., 1, :], Ue[..., 2, :]
    u, p, speed = _primitive_parts(Ue, gamma)
    flux = np.stack((m, m * u + p, u * (E + p)), axis=-2)
    del u, p
    if local:
        a_ifc = np.maximum(speed[..., :-1], speed[..., 1:])
    else:
        a_ifc = np.max(speed, axis=-1, keepdims=True)
    del speed
    # h = 0.5 * (flux_l + flux_r - a * (U_r - U_l)) and -(h_r - h_l) / dx,
    # the same operations done in place, so that a row keeps fewer states
    # alive while a batch steps (see limits.CHUNK_BYTES).
    h = flux[..., :-1] + flux[..., 1:]
    del flux
    jump = Ue[..., 1:] - Ue[..., :-1]
    jump *= a_ifc[..., None, :]
    h -= jump
    del jump
    h *= 0.5
    r = h[..., 1:] - h[..., :-1]
    del h
    np.negative(r, out=r)
    r /= dx
    return r


# ---------------------------------------------------------------------------
# field-level operations

def rhs_dissipative_burgers(f: ScalarField, mu: float) -> ScalarField:
    """RHS of the energy-dissipative Burgers discretization (periodic only)."""
    return ScalarField(f.grid, DissipativeBurgers(mu).rhs_array(f.q, f.grid))


def rhs_upwind_burgers(f: ScalarField) -> ScalarField:
    """RHS of the first-order upwind Burgers discretization (periodic only)."""
    return ScalarField(f.grid, UpwindBurgers().rhs_array(f.q, f.grid))


def rhs_muscl_burgers(f: ScalarField) -> ScalarField:
    """RHS of the minmod MUSCL Burgers discretization.

    Dirichlet grids use two ghost cells per side frozen at the boundary
    states; outflow is not supported.
    """
    return ScalarField(f.grid, MusclBurgers().rhs_array(f.q, f.grid))


def rhs_llf_euler(f: EulerField, local: bool = True):
    """RHS of the Lax-Friedrichs Euler discretization plus max wavespeed.

    The input field must be admissible; a non-positive density or internal
    energy raises :class:`NonPhysicalStateError` naming the first bad cell
    (limit searches treat that as a stability failure of the probed step).
    """
    U = f.stack()
    require_admissible(U)
    R = LaxFriedrichsEuler(f.gamma, local).rhs_array(U, f.grid)
    return EulerField.from_stack(f.grid, R, f.gamma), _max_wavespeed(U, f.gamma)


def dt_fe(scheme: SchemeSpec, f) -> float:
    """Forward-Euler stability step bound of ``scheme`` on the current field.

    Constant for the two fixed-rule Burgers schemes, adaptive (evaluated on
    the current data) for MUSCL and Lax-Friedrichs Euler.  Quiescent Euler
    flow (zero maximal wavespeed) yields +inf.
    """
    state = f.stack() if isinstance(f, EulerField) else f.q
    return scheme.dt_fe_array(state, f.grid)
