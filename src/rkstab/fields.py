"""Uniform 1D grids, solution fields, and the stability functionals.

Scalar fields carry one unknown per cell (Burgers), Euler fields carry the
conserved triple (density, momentum, total energy).  The functionals defined
here (quadratic energy, total variation, positivity diagnostics) are the
quantities whose decay or sign a run is judged against.
"""

from __future__ import annotations

import csv
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Periodic",
    "Outflow",
    "Dirichlet",
    "Grid1D",
    "ScalarField",
    "EulerField",
    "PrimitiveState",
    "PositivityReport",
    "NonPhysicalStateError",
    "conserved_to_primitive",
    "euler_flux",
    "per_row",
    "tv_includes_wrap",
    "total_variation_array",
    "quadratic_energy_array",
    "total_variation",
    "quadratic_energy",
    "euler_minima",
    "euler_floor",
    "require_admissible",
    "positivity_check",
    "energy_numerator_coefficients",
    "internal_energy_density",
    "field_to_csv",
]


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Outflow:
    pass


@dataclass(frozen=True)
class Dirichlet:
    """Frozen boundary states: scalars for Burgers, conserved triples for Euler."""

    left: object
    right: object


class NonPhysicalStateError(ValueError):
    """A conserved state with non-positive density or internal energy."""

    def __init__(self, message: str, cell: int | None = None):
        if cell is not None:
            message = f"{message} (cell {cell})"
        super().__init__(message)
        self.cell = cell


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid.

    ``sampling`` records where the unknowns live: ``"node"`` for
    finite-difference style points x_min + i*dx, ``"center"`` for finite
    volume cell centers x_min + (i + 1/2)*dx.
    """

    n_cells: int
    x_min: float
    x_max: float
    boundary: Periodic | Dirichlet | Outflow = Periodic()
    sampling: str = "center"

    def __post_init__(self):
        if isinstance(self.n_cells, bool) or not isinstance(self.n_cells, numbers.Integral):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 3:
            raise ValueError("n_cells must be at least 3")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.sampling not in ("node", "center"):
            raise ValueError(f"unknown sampling {self.sampling!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    def points(self) -> np.ndarray:
        """Coordinates of the unknowns, per the grid's sampling convention."""
        i = np.arange(self.n_cells)
        offset = 0.0 if self.sampling == "node" else 0.5
        return self.x_min + (i + offset) * self.dx


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid1D
    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.grid.n_cells,):
            raise ValueError(f"q must have length {self.grid.n_cells}, got {q.shape}")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True, eq=False)
class EulerField:
    """Conserved variables (rho, m, E) per cell.

    Admissibility (positive density and internal energy) is deliberately not
    enforced at construction: intermediate states of a run may violate it,
    and that violation is exactly what :func:`positivity_check` measures.
    """

    grid: Grid1D
    rho: np.ndarray
    m: np.ndarray
    E: np.ndarray
    gamma: float

    def __post_init__(self):
        n = self.grid.n_cells
        for name in ("rho", "m", "E"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")

    def stack(self) -> np.ndarray:
        """The (3, n) array [rho; m; E] used by the stepping kernels."""
        return np.stack([self.rho, self.m, self.E])

    @classmethod
    def from_stack(cls, grid: Grid1D, U: np.ndarray, gamma: float) -> "EulerField":
        return cls(grid=grid, rho=U[0], m=U[1], E=U[2], gamma=gamma)


@dataclass(frozen=True)
class PrimitiveState:
    rho: float
    u: float
    p: float


@dataclass(frozen=True)
class PositivityReport:
    passed: bool
    min_rho: float
    min_rhoe: float | None
    first_bad_cell: int | None
    reason: str | None  # None | "density" | "internal_energy"


def internal_energy_density(rho, m, E):
    """rho*e = E - m^2/(2 rho); works elementwise on arrays."""
    return E - 0.5 * m * m / rho


def conserved_to_primitive(rho: float, m: float, E: float, gamma: float) -> PrimitiveState:
    """Convert one conserved triple to (rho, u, p)."""
    if rho == 0.0:
        raise NonPhysicalStateError("cannot convert state with zero density")
    u = m / rho
    rhoe = internal_energy_density(rho, m, E)
    return PrimitiveState(rho=rho, u=u, p=(gamma - 1.0) * rhoe)


def euler_flux(state, gamma: float) -> np.ndarray:
    """Physical Euler flux [m, m*u + p, u*(E + p)] of one conserved triple."""
    rho, m, E = state
    if not rho > 0.0:
        raise NonPhysicalStateError(f"flux of non-physical state rho={rho}")
    u = m / rho
    p = (gamma - 1.0) * internal_energy_density(rho, m, E)
    return np.array([m, m * u + p, u * (E + p)])


def tv_includes_wrap(boundary, override: bool | None = None) -> bool:
    """Whether TV counts the wrap pair |q_0 - q_{n-1}|: by default on periodic
    grids only (that keeps TV of periodic data translation invariant)."""
    return isinstance(boundary, Periodic) if override is None else override


def per_row(values):
    """Values reduced over a state's axes: a float for one state, else the
    array over the leading (batch) axes of a stack of states."""
    return float(values) if np.ndim(values) == 0 else values


def total_variation_array(q: np.ndarray, wrap: bool):
    """Sum of |q_{i+1} - q_i|, plus |q_0 - q_{n-1}| when ``wrap``, along the
    last axis of ``q`` (one value per leading index, see :func:`per_row`)."""
    jumps = q[..., 1:] - q[..., :-1]
    tv = np.add.reduce(np.abs(jumps, out=jumps), axis=-1)
    if wrap:
        tv = tv + np.abs(q[..., 0] - q[..., -1])
    return per_row(tv)


def quadratic_energy_array(q: np.ndarray):
    """0.5 * sum(q_i^2) along the last axis of ``q``.

    ``vecdot`` rounds every row exactly as ``q @ q`` rounds that row alone,
    so a stacked evaluation gives the single-state value bit for bit.
    """
    return per_row(0.5 * np.vecdot(q, q))


def total_variation(f: ScalarField, include_wrap: bool | None = None) -> float:
    """Total variation of a field; see :func:`tv_includes_wrap` for the wrap pair."""
    return total_variation_array(f.q, tv_includes_wrap(f.grid.boundary, include_wrap))


def quadratic_energy(f: ScalarField) -> float:
    """0.5 * sum(q_i^2)."""
    return quadratic_energy_array(f.q)


def euler_minima(U):
    """Minima of rho and of rho*e of a conserved state (rows rho, m, E).

    rho*e counts only the cells with rho > 0 and is NaN when there are
    none.  ``U`` may be a stack ``(..., 3, n)``: one pair of minima per
    leading index (floats for a single state).  NaN propagates.
    """
    rho, m = U[..., 0, :], U[..., 1, :]
    min_rho = np.minimum.reduce(rho, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhoe = 0.5 * m  # internal_energy_density, E - ((0.5 m) m) / rho, in one buffer
        rhoe *= m
        rhoe /= rho
        np.subtract(U[..., 2, :], rhoe, out=rhoe)
    if np.count_nonzero(min_rho > 0.0) == min_rho.size:  # every rho > 0 (NaN is not)
        min_rhoe = np.minimum.reduce(rhoe, axis=-1)
    else:
        good = rho > 0.0
        rhoe[~good] = np.inf
        min_rhoe = np.where(np.any(good, axis=-1), np.minimum.reduce(rhoe, axis=-1), np.nan)
    return per_row(min_rho), per_row(min_rhoe)


def euler_floor(U):
    """Minima of rho and rho*e of one conserved state, and where it fails.

    Returns ``(min_rho, min_rhoe, failure)`` with the minima of
    :func:`euler_minima`, except that ``min_rhoe`` is None when no cell has
    rho > 0.  ``failure`` is None for an admissible state, else
    ``(quantity, cell)``: the first cell with rho <= 0 and quantity
    "density", or, when every density is positive, the first cell with
    rho*e <= 0 and quantity "internal_energy".  NaN counts as non-positive.
    """
    U = np.asarray(U)
    min_rho, min_rhoe = euler_minima(U)
    rho, m, E = U
    if min_rho > 0.0:
        if min_rhoe > 0.0:
            return min_rho, min_rhoe, None
        rhoe = internal_energy_density(rho, m, E)
        return min_rho, min_rhoe, ("internal_energy", int(np.argmax(~(rhoe > 0.0))))
    good = rho > 0.0
    return min_rho, min_rhoe if good.any() else None, ("density", int(np.argmax(~good)))


def require_admissible(U) -> None:
    """Raise :class:`NonPhysicalStateError` naming the first inadmissible cell."""
    failure = euler_floor(U)[2]
    if failure is not None:
        quantity, cell = failure
        raise NonPhysicalStateError(f"non-positive {quantity.replace('_', ' ')} in Euler state", cell)


def positivity_check(f: EulerField) -> PositivityReport:
    """Strict positivity of density and internal energy, with diagnostics.

    A cell with rho <= 0 fails with reason "density" and its internal energy
    is not evaluated; otherwise the minimum of rho*e decides.  Exactly zero
    counts as a failure.
    """
    min_rho, min_rhoe, failure = euler_floor((f.rho, f.m, f.E))
    if failure is None:
        return PositivityReport(True, min_rho, min_rhoe, None, None)
    reason, cell = failure
    return PositivityReport(False, min_rho, min_rhoe, cell, reason)


def energy_numerator_coefficients(state, rhs):
    """Quadratic coefficients (a, b, c) of the internal-energy numerator.

    For a state (rho, m, E) advanced by a frozen rate (R_rho, R_m, R_E), the
    numerator of rho*e after a step of size dt is c + b*dt + a*dt^2 with

        a = R_E*R_rho - 0.5*R_m^2
        b = E*R_rho + rho*R_E - m*R_m
        c = E*rho - 0.5*m^2
    """
    rho, m, E = state
    r_rho, r_m, r_E = rhs
    a = r_E * r_rho - 0.5 * r_m * r_m
    b = E * r_rho + rho * r_E - m * r_m
    c = E * rho - 0.5 * m * m
    return a, b, c


def field_to_csv(f, path) -> None:
    """Write a field snapshot: columns x,q (scalar) or x,rho,m,E,u,p (Euler)."""
    x = f.grid.points()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(f, ScalarField):
            writer.writerow(["x", "q"])
            for xi, qi in zip(x, f.q):
                writer.writerow([repr(float(xi)), repr(float(qi))])
        else:
            writer.writerow(["x", "rho", "m", "E", "u", "p"])
            u = f.m / f.rho
            p = (f.gamma - 1.0) * internal_energy_density(f.rho, f.m, f.E)
            for row in zip(x, f.rho, f.m, f.E, u, p):
                writer.writerow([repr(float(v)) for v in row])
