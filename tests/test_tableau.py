import re

import numpy as np
import pytest

from rkstab.tableau import (
    BUILTIN_SCHEME_IDS,
    SSP_TOLERANCE,
    ButcherTableau,
    TableauFormatError,
    _absolutely_monotone,
    builtin_scheme,
    check_assumption1,
    ssp_coefficient,
    tableau_from_text,
    validate_consistency,
)

# Kutta's third-order scheme: third order but with a negative coefficient,
# outside the all-coefficients-in-[0,1] class.
KUTTA3 = ButcherTableau(
    name="kutta3",
    A=np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]]),
    b=np.array([1 / 6, 2 / 3, 1 / 6]),
)


def test_builtin_ids_complete():
    assert BUILTIN_SCHEME_IDS == ("forward_euler", "midpoint", "ssprk33", "rk31", "rk44")


def test_unknown_scheme_error_lists_valid_ids():
    with pytest.raises(ValueError, match="forward_euler.*rk44"):
        builtin_scheme("rk99")


def test_forward_euler_definition():
    t = builtin_scheme("forward_euler")
    assert t.s == 1
    assert t.b.tolist() == [1.0]
    assert t.c.tolist() == [0.0]


def test_rk44_abscissae_are_row_sums():
    t = builtin_scheme("rk44")
    assert t.c.tolist() == [0.0, 0.5, 0.5, 1.0]


def test_ssprk33_weights():
    t = builtin_scheme("ssprk33")
    np.testing.assert_allclose(t.b, [1 / 6, 1 / 6, 2 / 3], rtol=0, atol=0)


def test_all_builtins_consistent(any_builtin):
    assert validate_consistency(any_builtin).ok


def test_validate_flags_bad_weight_sum():
    t = builtin_scheme("rk44")
    bad = ButcherTableau("bad", t.A, np.array([1 / 6, 1 / 3, 1 / 3, 1 / 3]))
    report = validate_consistency(bad)
    assert [(v.kind, v.index) for v in report.violations] == [("weight_sum", None)]
    assert report.violations[0].residual == pytest.approx(1 / 6, rel=1e-12)


def test_validate_flags_non_explicit_entry():
    t = builtin_scheme("rk44")
    A = t.A.copy()
    A.flags.writeable = True
    A[1, 0], A[0, 1] = 0.0, 0.5  # move a21 above the diagonal
    bad = ButcherTableau("bad", A, t.b)
    kinds = {v.kind for v in validate_consistency(bad).violations}
    assert "not_explicit" in kinds


def test_validate_lists_every_non_finite_coefficient_with_its_index():
    t = builtin_scheme("rk44")
    A, b = t.A.copy(), t.b.copy()
    A[2, 1], A[0, 3], b[3] = np.nan, -np.inf, np.nan
    report = validate_consistency(ButcherTableau("bad", A, b))
    found = [(v.kind, v.index) for v in report.violations]
    assert found == [("not_finite", ("A", 0, 3)), ("not_finite", ("A", 2, 1)), ("not_finite", ("b", 3))]
    assert report.violations[0].residual == -np.inf
    assert not check_assumption1(ButcherTableau("nan", A, t.b))
    assert not check_assumption1(ButcherTableau("nan", t.A, b))


def test_shape_mismatch_rejected_at_construction():
    with pytest.raises(ValueError):
        ButcherTableau("bad", np.zeros((2, 2)), np.array([1.0]))


def test_assumption1_builtins(any_builtin):
    assert check_assumption1(any_builtin)


def test_assumption1_rejects_kutta3():
    assert not check_assumption1(KUTTA3)


# The c_ssp column of the experiment tables, {FE, midpoint, SSPRK33, RK31,
# RK44} = {1, 0, 1, 0, 0}, as the exact floats the bisection returns: the
# golden c_ssp column depends on SSP_TOLERANCE through them.
EXPECTED_CSSP = {
    "forward_euler": "1.0",
    "midpoint": "0.0",
    "ssprk33": "0.9999999997671694",
    "rk31": "0.0",
    "rk44": "0.0",
}


@pytest.mark.parametrize("scheme_id", BUILTIN_SCHEME_IDS)
def test_ssp_coefficient_values(scheme_id):
    t = builtin_scheme(scheme_id)
    value = ssp_coefficient(t)
    assert type(value) is float and repr(value) == EXPECTED_CSSP[scheme_id]
    assert check_assumption1(t)


def test_ssp_coefficient_zero_for_negative_coefficients():
    value = ssp_coefficient(KUTTA3)
    assert type(value) is float and repr(value) == "0.0"
    assert not check_assumption1(KUTTA3)


@pytest.mark.parametrize("scheme_id", BUILTIN_SCHEME_IDS)
def test_ssp_feasibility_is_monotone_around_result(scheme_id):
    """Probes below the returned radius are feasible; just above, not."""
    t = builtin_scheme(scheme_id)
    tol = SSP_TOLERANCE
    r = ssp_coefficient(t)
    for probe in np.linspace(0.0, max(r - 2 * tol, 0.0), 7):
        assert _absolutely_monotone(t.A, t.b, probe)
    assert not _absolutely_monotone(t.A, t.b, r + 2 * tol)


def test_ssp_rejects_inconsistent_tableau():
    bad = ButcherTableau("bad", [[0.0]], [0.5])
    with pytest.raises(ValueError, match="inconsistent"):
        ssp_coefficient(bad)


def tableau_to_text(t: ButcherTableau) -> str:
    """Serialize to the plain-text form: name, s, the rows of A, then b."""
    lines = [t.name, str(t.s)]
    for i in range(t.s):
        lines.append(" ".join(repr(float(v)) for v in t.A[i]))
    lines.append(" ".join(repr(float(v)) for v in t.b))
    return "\n".join(lines) + "\n"


def test_text_round_trip(any_builtin):
    text = tableau_to_text(any_builtin)
    back = tableau_from_text(text)
    assert back.name == any_builtin.name
    np.testing.assert_array_equal(back.A, any_builtin.A)
    np.testing.assert_array_equal(back.b, any_builtin.b)
    for t in (any_builtin, back):  # the abscissae are the row sums, bit for bit
        np.testing.assert_array_equal(t.c, t.A.sum(axis=1), strict=True)


def test_parse_error_reports_line_number():
    text = "demo\n2\n0 0\n0.5 oops\n0 1\n"
    with pytest.raises(TableauFormatError, match="line 4"):
        tableau_from_text(text)


def test_parse_error_on_wrong_entry_count():
    text = "demo\n2\n0 0 0\n0.5 0\n0 1\n"
    with pytest.raises(TableauFormatError, match="line 3"):
        tableau_from_text(text)


def test_parse_error_on_bad_stage_count():
    with pytest.raises(TableauFormatError, match="line 2"):
        tableau_from_text("demo\ntwo\n0\n1\n")


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("demo\n1\n", 1, "expected name, stage count, A rows and b"),
        ("demo\n0\n0\n", 2, "stage count must be positive"),
        ("demo\n2\n0 0\n0.5 0\n", 4, "expected 5 non-empty lines for a 2-stage tableau, got 4"),
        ("demo\n1\n0\n1\n1\n", 5, "expected 4 non-empty lines for a 1-stage tableau, got 5"),
    ],
)
def test_parse_error_on_missing_or_extra_lines(text, line, message):
    with pytest.raises(TableauFormatError, match=re.escape(f"line {line}: {message}")):
        tableau_from_text(text)


@pytest.mark.parametrize(
    "A, b, c, message",
    [
        (np.zeros((1, 1)), np.ones((1, 1)), None, "b must be a vector"),
        (np.zeros((0, 0)), np.ones(0), None, "a tableau needs at least one stage"),
        (np.zeros((2, 2)), np.array([0.5, 0.5]), [0.0, 0.0], "takes 4 positional arguments but 5 were given"),
    ],
)
def test_malformed_tableau_rejected_at_construction(A, b, c, message):
    """The abscissae are the row sums of A, not an input: passing them is a TypeError."""
    args = (A, b) if c is None else (A, b, c)
    with pytest.raises(ValueError if c is None else TypeError, match=re.escape(message)):
        ButcherTableau("bad", *args)
