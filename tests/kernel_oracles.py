"""Reference oracles for the kernels of ``rkstab.spatial``.

``dissipative_rhs`` and ``upwind_rhs`` are the Burgers kernels interface by
interface: the flux through i+1/2 from q_i and its periodic neighbour
``np.roll(q, -1)``, then ``-(F_{i+1/2} - F_{i-1/2}) / dx``.  ``muscl_rhs``
and ``llf_rhs`` are the straightforward forms of the other two kernels:
minmod slopes from two ``np.sign`` and two ``np.abs`` calls, the Godunov
flux as nested ``np.where``, the LLF flux from ``np.stack`` and
``-(h_r - h_l) / dx``; ``muscl_dt_fe`` and ``llf_dt_fe`` are the step bounds
dx / speed with +inf where the speed is zero.  The library's kernels make
fewer numpy calls and must return the same values bit for bit, NaN in the
same cells.  ``minmod`` and ``godunov_flux_burgers`` are the scalar
definitions the array forms follow, ``lax_friedrichs_flux_euler`` the one
interface flux of the LLF kernel, and ``dt_fe`` a scheme's step bound on a
field object.  ``rk_step_rows`` is the textbook RK step of each row of a
stack on its own, which the integrator's batched step must equal.
"""

import math

import numpy as np

from rkstab.fields import (
    Dirichlet,
    EulerField,
    NonPhysicalStateError,
    Outflow,
    Periodic,
    internal_energy_density,
)


def minmod(a: float, b: float) -> float:
    """(sign(a) + sign(b))/2 * min(|a|, |b|), with sign(0) = 0."""
    return 0.5 * (np.sign(a) + np.sign(b)) * min(abs(a), abs(b))


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


def dt_fe(scheme, f) -> float:
    """Forward-Euler stability step bound of ``scheme`` on the current field.

    Constant for the two fixed-rule Burgers schemes, adaptive (evaluated on
    the current data) for MUSCL and Lax-Friedrichs Euler.  Quiescent Euler
    flow (zero maximal wavespeed) yields +inf.
    """
    state = f.stack() if isinstance(f, EulerField) else f.q
    return scheme.dt_fe_array(state, f.grid)


def _minmod_arr(a, b):
    return 0.5 * (np.sign(a) + np.sign(b)) * np.minimum(np.abs(a), np.abs(b))


def _godunov_arr(qm, qp):
    fm = 0.5 * qm * qm
    fp = 0.5 * qp * qp
    return np.where(
        qm <= qp,
        np.where((qm <= 0.0) & (qp >= 0.0), 0.0, np.minimum(fm, fp)),
        np.maximum(fm, fp),
    )


def dissipative_rhs(q, dx, mu):
    q_r = np.roll(q, -1, axis=-1)
    flux = (q * q + q * q_r + q_r * q_r) / 6.0 - mu * (q_r - q)  # through i+1/2
    return -(flux - np.roll(flux, 1, axis=-1)) / dx


def upwind_rhs(q, dx):
    flux = 0.5 * q * q  # the upwind flux f(q_i) through i+1/2
    return -(flux - np.roll(flux, 1, axis=-1)) / dx


def _extend_scalar(q, boundary, width):
    if isinstance(boundary, Periodic):
        return np.concatenate((q[..., -width:], q, q[..., :width]), axis=-1)
    assert isinstance(boundary, Dirichlet)
    ghost = q.shape[:-1] + (width,)
    left = np.full(ghost, float(boundary.left))
    right = np.full(ghost, float(boundary.right))
    return np.concatenate((left, q, right), axis=-1)


def muscl_rhs(q, dx, boundary):
    qe = _extend_scalar(q, boundary, 2)  # two ghost cells per side
    dq = np.diff(qe, axis=-1)
    # slope of extended cell k+1 is slo[k], k = 0 .. n+1
    slo = _minmod_arr(dq[..., 1:], dq[..., :-1])
    qm = qe[..., 1:-2] + 0.5 * slo[..., :-1]  # q^- at interfaces -1/2 .. n-1/2
    qp = qe[..., 2:-1] - 0.5 * slo[..., 1:]  # q^+ at the same interfaces
    f = _godunov_arr(qm, qp)
    return -(f[..., 1:] - f[..., :-1]) / dx


def _primitive_parts(U, gamma):
    rho, m, E = U[..., 0, :], U[..., 1, :], U[..., 2, :]
    u = m / rho
    p = (gamma - 1.0) * (E - 0.5 * m * u)
    return u, p, np.abs(u) + np.sqrt(gamma * p / rho)


def _extend_euler(U, boundary):
    if isinstance(boundary, Outflow):
        return np.concatenate((U[..., :1], U, U[..., -1:]), axis=-1)
    assert isinstance(boundary, Periodic)
    return np.concatenate((U[..., -1:], U, U[..., :1]), axis=-1)


def llf_rhs(U, dx, gamma, boundary, local):
    Ue = _extend_euler(U, boundary)
    m, E = Ue[..., 1, :], Ue[..., 2, :]
    u, p, speed = _primitive_parts(Ue, gamma)
    flux = np.stack((m, m * u + p, u * (E + p)), axis=-2)
    if local:
        a_ifc = np.maximum(speed[..., :-1], speed[..., 1:])
    else:
        a_ifc = np.max(speed, axis=-1, keepdims=True)
    h = flux[..., :-1] + flux[..., 1:]
    jump = Ue[..., 1:] - Ue[..., :-1]
    jump *= a_ifc[..., None, :]
    h -= jump
    h *= 0.5
    r = h[..., 1:] - h[..., :-1]
    np.negative(r, out=r)
    r /= dx
    return r


def _bound_over(dx, speed):
    speed = np.asarray(speed)
    return np.divide(dx, speed, out=np.full(speed.shape, np.inf), where=speed != 0.0)


def muscl_dt_fe(q, dx):
    return _bound_over(dx, 2.0 * np.max(np.abs(q), axis=-1))


def llf_dt_fe(U, dx, gamma):
    return _bound_over(dx, np.max(_primitive_parts(U, gamma)[2], axis=-1))


def euler_minima_per_cell(U):
    """min(rho) and min(rho*e) over the cells with rho > 0 of one state
    (rows rho, m, E), cell by cell in Python floats: NaN when any term is
    NaN, rho*e NaN when no cell has rho > 0."""
    rho, m, E = ([float(x) for x in row] for row in U)
    min_rho = math.nan if any(map(math.isnan, rho)) else min(rho)
    rhoe = [e - 0.5 * mk * mk / r for r, mk, e in zip(rho, m, E) if r > 0.0]
    if not rhoe or any(map(math.isnan, rhoe)):
        return min_rho, math.nan
    return min_rho, min(rhoe)


def first_inadmissible_cell(U):
    """``(quantity, cell)`` of one state (rows rho, m, E), cell by cell in
    Python floats: the first cell whose rho is not > 0 ("density"), else the
    first whose rho*e is not > 0 ("internal energy"); None when neither."""
    rho, m, E = ([float(x) for x in row] for row in U)
    for k, r in enumerate(rho):
        if not r > 0.0:
            return "density", k
    for k, (r, mk, e) in enumerate(zip(rho, m, E)):
        if not e - 0.5 * mk * mk / r > 0.0:
            return "internal energy", k
    return None


def rk_step_rows(tableaux, rhs, q, dts):
    """One RK step of each row ``q[k]`` with ``tableaux[k]`` and ``dts[k]``,
    row by row: stage i is q^n + (dt a_ij) R^j summed over the nonzero
    a_ij in the order of j, q_rk likewise with the b_j, shifted state j is
    q^n + dt R^j.  Returns per row (stages 0..s-1, q_rk, shifted states)."""
    steps = []
    for tab, q_n, dt in zip(tableaux, q, dts):
        stages, derivs = [], []
        for i in range(tab.s):
            q_i = q_n
            for j in range(i):
                if tab.A[i, j] != 0.0:
                    q_i = q_i + (dt * tab.A[i, j]) * derivs[j]
            stages.append(q_i)
            derivs.append(rhs(q_i[None])[0])  # the kernel on a one-row stack
        q_rk = q_n
        for j in range(tab.s):
            if tab.b[j] != 0.0:
                q_rk = q_rk + (dt * tab.b[j]) * derivs[j]
        steps.append((stages, q_rk, [q_n + dt * r for r in derivs]))
    return steps
