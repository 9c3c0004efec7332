"""Butcher tableaux of explicit Runge-Kutta methods and their SSP coefficients.

A method is stored as the raw coefficients (A, b, c).  Classification helpers
check basic consistency, membership in the all-coefficients-in-[0,1] class,
and compute the SSP coefficient (radius of absolute monotonicity) by
bisection on the standard matrix feasibility conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import require_number

__all__ = [
    "ButcherTableau",
    "ConsistencyViolation",
    "ConsistencyReport",
    "SspAnalysis",
    "TableauFormatError",
    "BUILTIN_SCHEME_IDS",
    "builtin_scheme",
    "validate_consistency",
    "check_assumption1",
    "ssp_coefficient",
    "tableau_to_text",
    "tableau_from_text",
]

#: Absolute tolerance for the row-sum and weight-sum consistency checks.
CONSISTENCY_ATOL = 1e-14

#: Slack used when testing the elementwise feasibility conditions during the
#: SSP bisection.  Must be far below any bisection tolerance so that genuine
#: violations of size O(tol) are never masked.
_FEASIBILITY_SLACK = 1e-13


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of an explicit s-stage Runge-Kutta method.

    ``A`` is the s-by-s stage coefficient matrix (strictly lower triangular
    for an explicit method), ``b`` the weight vector and ``c`` the abscissae.
    When ``c`` is omitted it is filled with the row sums of ``A``, which is
    the standard consistency choice.

    Construction only enforces shapes; numeric invariants (explicitness, row
    sums, weight sum) are checked by :func:`validate_consistency` so that
    deliberately broken tableaux can still be represented.
    """

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float)
        if b.ndim != 1:
            raise ValueError("b must be a vector")
        s = b.size
        if s < 1:
            raise ValueError("a tableau needs at least one stage")
        if A.shape != (s, s):
            raise ValueError(f"A must be {s}x{s} to match b, got {A.shape}")
        c = np.sum(A, axis=1) if self.c is None else np.array(self.c, dtype=float)
        if c.shape != (s,):
            raise ValueError(f"c must have length {s}, got {c.shape}")
        for arr in (A, b, c):
            arr.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def s(self) -> int:
        """Number of stages."""
        return self.b.size


@dataclass(frozen=True)
class ConsistencyViolation:
    """One broken tableau invariant: which, where, and by how much."""

    kind: str  # "not_finite" | "not_explicit" | "row_sum" | "weight_sum"
    index: tuple | int | None
    residual: float


@dataclass(frozen=True)
class ConsistencyReport:
    violations: tuple[ConsistencyViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "consistent"
        return "; ".join(
            f"{v.kind}[{v.index}] residual={v.residual:.3e}" for v in self.violations
        )


@dataclass(frozen=True)
class SspAnalysis:
    """Result of the SSP coefficient computation for one tableau."""

    ssp_coefficient: float
    satisfies_assumption1: bool
    bisection_tolerance: float


class TableauFormatError(ValueError):
    """Raised when a plain-text tableau cannot be parsed; carries the line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# The five schemes exercised in the experiments.  RK31 is Nystrom's
# third-order method: three stages, all coefficients in [0, 1] (Kutta's
# variant has a negative entry and falls outside the class studied here),
# and it reproduces the measured step-size tables where Heun's and
# Ralston's third-order schemes do not.
_BUILTIN = {
    "forward_euler": ([[0.0]], [1.0]),
    "midpoint": ([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0]),
    "ssprk33": (
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.25, 0.25, 0.0]],
        [1 / 6, 1 / 6, 2 / 3],
    ),
    "rk31": (
        [[0.0, 0.0, 0.0], [2 / 3, 0.0, 0.0], [0.0, 2 / 3, 0.0]],
        [0.25, 0.375, 0.375],
    ),
    "rk44": (
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        [1 / 6, 1 / 3, 1 / 3, 1 / 6],
    ),
}

BUILTIN_SCHEME_IDS = tuple(_BUILTIN)


def builtin_scheme(scheme_id: str) -> ButcherTableau:
    """Return one of the built-in tableaux by identifier."""
    try:
        A, b = _BUILTIN[scheme_id]
    except KeyError:
        valid = ", ".join(BUILTIN_SCHEME_IDS)
        raise ValueError(f"unknown scheme {scheme_id!r}; valid ids: {valid}") from None
    return ButcherTableau(name=scheme_id, A=np.array(A), b=np.array(b))


def validate_consistency(t: ButcherTableau) -> ConsistencyReport:
    """Check explicitness, row-sum consistency and first-order consistency.

    Returns a report listing every violated invariant with the offending
    index and the residual; an empty report means the tableau is valid.  A
    NaN or infinite coefficient is reported alone, as ``not_finite`` with its
    array and index (e.g. ``("A", 1, 0)``) and its value as the residual.
    """
    violations = [
        ConsistencyViolation("not_finite", (name, *map(int, index)), float(arr[index]))
        for name, arr in (("A", t.A), ("b", t.b), ("c", t.c))
        for index in zip(*np.nonzero(~np.isfinite(arr)))
    ]
    if violations:  # sums of non-finite coefficients mean nothing
        return ConsistencyReport(tuple(violations))
    s = t.s
    for i in range(s):
        for j in range(i, s):
            if t.A[i, j] != 0.0:
                violations.append(
                    ConsistencyViolation("not_explicit", (i, j), float(t.A[i, j]))
                )
    row_residual = t.c - np.sum(t.A, axis=1)
    for i in range(s):
        if abs(row_residual[i]) > CONSISTENCY_ATOL:
            violations.append(ConsistencyViolation("row_sum", i, float(row_residual[i])))
    weight_residual = float(np.sum(t.b) - 1.0)
    if abs(weight_residual) > CONSISTENCY_ATOL:
        violations.append(ConsistencyViolation("weight_sum", None, weight_residual))
    return ConsistencyReport(tuple(violations))


def check_assumption1(t: ButcherTableau) -> bool:
    """True iff every a_ij, b_j and c_i lies in [0, 1] (NaN does not).

    Comparisons are exact: the coefficients of interest are rational
    constants and the classification must be deterministic.
    """
    return all(np.all((arr >= 0.0) & (arr <= 1.0)) for arr in (t.A, t.b, t.c))


def _absolutely_monotone(A: np.ndarray, b: np.ndarray, r: float) -> bool:
    """Feasibility of radius r: K(I + rA)^-1 conditions, elementwise."""
    s = b.size
    eye = np.eye(s)
    try:
        M = np.linalg.inv(eye + r * A)
    except np.linalg.LinAlgError:
        return False
    K = A @ M
    kb = b @ M
    e = np.ones(s)
    slack = _FEASIBILITY_SLACK
    return bool(
        K.min() >= -slack
        and kb.min() >= -slack
        and (r * (K @ e)).max() <= 1.0 + slack
        and r * float(kb @ e) <= 1.0 + slack
    )


def ssp_coefficient(t: ButcherTableau, tol: float = 1e-9) -> SspAnalysis:
    """Compute the SSP coefficient of an explicit method by bisection.

    The coefficient is the supremum of r >= 0 for which (I + rA) is
    invertible, A(I+rA)^-1 and b^T(I+rA)^-1 are elementwise non-negative,
    r*A(I+rA)^-1*e <= e elementwise and r*b^T(I+rA)^-1*e <= 1.  The bracket
    is [0, 2s] and the result is located to absolute tolerance ``tol`` (a
    finite positive number), or to adjacent floats when ``tol`` is finer than
    their spacing; any method with a negative a_ij or b_j has coefficient
    exactly 0.
    """
    require_number("tol", tol)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    report = validate_consistency(t)
    if not report.ok:
        raise ValueError(f"tableau {t.name!r} is inconsistent: {report}")
    assumption1 = check_assumption1(t)
    if t.A.min() < 0.0 or t.b.min() < 0.0:
        return SspAnalysis(0.0, assumption1, tol)

    lo = 0.0  # r = 0 is always feasible for non-negative A, b
    hi = 2.0 * t.s
    if _absolutely_monotone(t.A, t.b, hi):
        return SspAnalysis(hi, assumption1, tol)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # lo and hi are adjacent floats
            break
        if _absolutely_monotone(t.A, t.b, mid):
            lo = mid
        else:
            hi = mid
    return SspAnalysis(lo, assumption1, tol)


def tableau_to_text(t: ButcherTableau) -> str:
    """Serialize to the plain-text form: name, s, the rows of A, then b."""
    lines = [t.name, str(t.s)]
    for i in range(t.s):
        lines.append(" ".join(repr(float(v)) for v in t.A[i]))
    lines.append(" ".join(repr(float(v)) for v in t.b))
    return "\n".join(lines) + "\n"


def tableau_from_text(text: str) -> ButcherTableau:
    """Parse the plain-text tableau form produced by :func:`tableau_to_text`.

    Raises :class:`TableauFormatError` with a 1-based line number on any
    malformed content.  The abscissae are recomputed as row sums.
    """
    numbered = [
        (lineno, line.strip())
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.strip()
    ]
    if len(numbered) < 3:
        raise TableauFormatError("expected name, stage count, A rows and b", 1)
    name = numbered[0][1]
    lineno, raw_s = numbered[1]
    try:
        s = int(raw_s)
    except ValueError:
        raise TableauFormatError(f"stage count must be an integer, got {raw_s!r}", lineno) from None
    if s < 1:
        raise TableauFormatError("stage count must be positive", lineno)
    if len(numbered) != 2 + s + 1:
        last = numbered[-1][0]
        raise TableauFormatError(
            f"expected {2 + s + 1} non-empty lines for a {s}-stage tableau, got {len(numbered)}",
            last,
        )

    def parse_row(lineno: int, raw: str) -> list[float]:
        parts = raw.split()
        if len(parts) != s:
            raise TableauFormatError(f"expected {s} entries, got {len(parts)}", lineno)
        try:
            return [float(p) for p in parts]
        except ValueError as exc:
            raise TableauFormatError(str(exc), lineno) from None

    A = [parse_row(lineno, raw) for lineno, raw in numbered[2 : 2 + s]]
    b = parse_row(*numbered[2 + s])
    return ButcherTableau(name=name, A=np.array(A), b=np.array(b))
