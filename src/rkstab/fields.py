"""Uniform 1D grids, solution fields, and the stability functionals.

Scalar fields carry one unknown per cell (Burgers), Euler fields carry the
conserved triple (density, momentum, total energy).  The functionals defined
here (quadratic energy, total variation, positivity diagnostics) are the
quantities whose decay or sign a run is judged against.
"""

from __future__ import annotations

import csv
import functools
import math
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
    "NonPhysicalStateError",
    "per_row",
    "require_number",
    "tv_includes_wrap",
    "total_variation_array",
    "quadratic_energy_array",
    "euler_minima",
    "admissibility_error",
    "internal_energy_density",
    "field_to_csv",
    "write_csv_columns",
]


@dataclass(frozen=True)
class Periodic:
    pass


@dataclass(frozen=True)
class Outflow:
    pass


@dataclass(frozen=True)
class Dirichlet:
    """Frozen scalar boundary states, for MUSCL Burgers; Euler takes outflow or periodic."""

    left: float
    right: float

    def __post_init__(self):
        require_number("left", self.left, finite=True)
        require_number("right", self.right, finite=True)


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
        require_number("n_cells", self.n_cells, numbers.Integral)
        if self.n_cells < 3:
            raise ValueError("n_cells must be at least 3")
        require_number("x_min", self.x_min, finite=True)
        require_number("x_max", self.x_max, finite=True)
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.sampling not in ("node", "center"):
            raise ValueError(f"unknown sampling {self.sampling!r}")

    @functools.cached_property
    def dx(self) -> float:
        # Kept in the instance __dict__, which the frozen dataclass has (no
        # slots): no field, so ==, hash, repr and replace() do not see it.
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
    and that violation is exactly what :func:`admissibility_error` locates.
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
        require_number("gamma", self.gamma, finite=True)
        if not self.gamma > 1.0:
            raise ValueError("gamma must exceed 1")

    def stack(self) -> np.ndarray:
        """The (3, n) array [rho; m; E] used by the stepping kernels."""
        return np.stack([self.rho, self.m, self.E])

    @classmethod
    def from_stack(cls, grid: Grid1D, U: np.ndarray, gamma: float) -> "EulerField":
        return cls(grid=grid, rho=U[0], m=U[1], E=U[2], gamma=gamma)


def internal_energy_density(rho, m, E):
    """rho*e = E - m^2/(2 rho); works elementwise on arrays."""
    return E - 0.5 * m * m / rho


def tv_includes_wrap(boundary, override: bool | None = None) -> bool:
    """Whether TV counts the wrap pair |q_0 - q_{n-1}|: by default on periodic
    grids only (that keeps TV of periodic data translation invariant)."""
    return isinstance(boundary, Periodic) if override is None else override


def require_number(name: str, value, kind=numbers.Real, *, finite: bool = False) -> None:
    """The one type rule of numeric settings: ``value`` must be a real (or,
    with ``kind=numbers.Integral``, an integer) number, and a bool is not;
    with ``finite``, neither is NaN or an infinity."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


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


def admissibility_error(U) -> NonPhysicalStateError | None:
    """The error naming where one conserved state (rows rho, m, E) is
    inadmissible, or None when it is admissible; built, not raised.

    The first cell with rho <= 0 fails on "density"; when every density is
    positive, the first cell with rho*e <= 0 fails on "internal energy".
    NaN counts as non-positive, so this fails exactly the states whose
    :func:`~rkstab.monitors.euler_state_floor` is not positive.
    """
    rho, m, E = U
    quantity, bad = "density", ~(rho > 0.0)
    if not bad.any():
        with np.errstate(over="ignore", invalid="ignore"):
            quantity, bad = "internal energy", ~(internal_energy_density(rho, m, E) > 0.0)
        if not bad.any():
            return None
    return NonPhysicalStateError(f"non-positive {quantity} in Euler state", int(np.argmax(bad)))


def field_to_csv(f, path) -> None:
    """Write a field snapshot: columns x,q (scalar) or x,rho,m,E,u,p (Euler)."""
    x = f.grid.points()
    if isinstance(f, ScalarField):
        write_csv_columns(path, ["x", "q"], [x, f.q])
    else:
        p = (f.gamma - 1.0) * internal_energy_density(f.rho, f.m, f.E)
        write_csv_columns(path, ["x", "rho", "m", "E", "u", "p"], [x, f.rho, f.m, f.E, f.m / f.rho, p])


def write_csv_columns(path, header, columns) -> None:
    """Write a CSV file: the ``header`` row, then row k of the equal-length
    ``columns`` (sequences or 1-D arrays).  A float is written as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(col).tolist() for col in columns)))
