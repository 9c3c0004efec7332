"""Butcher tableaux of explicit Runge-Kutta methods and their SSP coefficients.

A method is stored as its coefficients A and b; the abscissae c are the row
sums of A.  Classification helpers check basic consistency, membership in the
all-coefficients-in-[0,1] class, and compute the SSP coefficient (radius of
absolute monotonicity) by bisection on the standard matrix feasibility
conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ButcherTableau",
    "ConsistencyViolation",
    "ConsistencyReport",
    "TableauFormatError",
    "BUILTIN_SCHEME_IDS",
    "builtin_scheme",
    "validate_consistency",
    "check_assumption1",
    "ssp_coefficient",
    "tableau_from_text",
]

#: Absolute tolerance for the weight-sum consistency check.
CONSISTENCY_ATOL = 1e-14

#: Absolute tolerance to which the SSP bisection locates the coefficient.
SSP_TOLERANCE = 1e-9

#: Slack of the elementwise feasibility tests in the SSP bisection: far below
#: SSP_TOLERANCE, so that genuine violations of that size are never masked.
_FEASIBILITY_SLACK = 1e-13


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of an explicit s-stage Runge-Kutta method.

    ``A`` is the s-by-s stage coefficient matrix (strictly lower triangular
    for an explicit method) and ``b`` the weight vector.  The abscissae ``c``
    are not an input: they are the row sums of ``A``, set once here.

    Construction only enforces shapes; numeric invariants (finiteness,
    explicitness, weight sum) are checked by :func:`validate_consistency` so
    that deliberately broken tableaux can still be represented.
    """

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(init=False)

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
        c = np.sum(A, axis=1)
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

    kind: str  # "not_finite" | "not_explicit" | "weight_sum"
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
    if not isinstance(scheme_id, str) or scheme_id not in _BUILTIN:
        raise ValueError(f"unknown scheme {scheme_id!r}; valid ids: {', '.join(BUILTIN_SCHEME_IDS)}")
    A, b = _BUILTIN[scheme_id]
    return ButcherTableau(name=scheme_id, A=np.array(A), b=np.array(b))


def validate_consistency(t: ButcherTableau) -> ConsistencyReport:
    """Check finiteness, explicitness and first-order consistency (sum b = 1).

    Returns a report listing every violated invariant with the offending
    index and the residual; an empty report means the tableau is valid.  A
    NaN or infinite coefficient is reported alone, as ``not_finite`` with its
    array and index (e.g. ``("A", 1, 0)``) and its value as the residual.
    """
    violations = [
        ConsistencyViolation("not_finite", (name, *map(int, index)), float(arr[index]))
        for name, arr in (("A", t.A), ("b", t.b))
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
    """Feasibility of radius r: K(I + rA)^-1 conditions, elementwise (A is explicit, so I + rA inverts)."""
    s = b.size
    M = np.linalg.inv(np.eye(s) + r * A)
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


def ssp_coefficient(t: ButcherTableau) -> float:
    """Compute the SSP coefficient of an explicit method by bisection.

    The coefficient is the supremum of r >= 0 for which A(I+rA)^-1 and
    b^T(I+rA)^-1 are elementwise non-negative, r*A(I+rA)^-1*e <= e
    elementwise and r*b^T(I+rA)^-1*e <= 1.  The bracket is [0, 2s] and the
    result, the feasible end of the final bracket, is located to absolute
    tolerance :data:`SSP_TOLERANCE`; any method with a negative a_ij or b_j
    has coefficient exactly 0.  An inconsistent tableau is a ``ValueError``.
    """
    report = validate_consistency(t)
    if not report.ok:
        raise ValueError(f"tableau {t.name!r} is inconsistent: {report}")
    if t.A.min() < 0.0 or t.b.min() < 0.0:
        return 0.0
    lo = 0.0  # r = 0 is always feasible for non-negative A, b
    hi = 2.0 * t.s
    if _absolutely_monotone(t.A, t.b, hi):
        return hi
    while hi - lo > SSP_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if _absolutely_monotone(t.A, t.b, mid):
            lo = mid
        else:
            hi = mid
    return lo


def tableau_from_text(text: str) -> ButcherTableau:
    """Parse the plain-text tableau form: the name, the stage count s, the s
    rows of A, then b, one line each, entries separated by whitespace; blank
    lines are skipped.

    Raises :class:`TableauFormatError` with a 1-based line number on any
    malformed content.
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
