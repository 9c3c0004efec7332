"""Every table, CSV and run verdict of tests/golden stays byte-identical."""

import json
from pathlib import Path

from golden.make_golden import golden_names, write_golden
from rkstab.tableau import builtin_scheme, check_assumption1

GOLDEN = Path(__file__).parent / "golden"


def test_tables_and_verdicts_equal_the_golden_files_byte_for_byte(tmp_path, capsys):
    write_golden(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(golden_names())
    for name in golden_names():
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_no_golden_candidate_fails_the_step_criterion_before_the_shifted_one():
    """The paper's theorem on the measured tables.  With every coefficient
    in [0, 1] (``check_assumption1``), each stage and the step solution are
    convex combinations of q^n and the shifted states q^n + dt R^j, so under
    a convex monitor (energy, TV, positivity) a step-criterion failure never
    comes before a shifted one: every such candidate has no step failure, or
    a shifted failure at the same step or earlier."""
    checked = 0
    for path in sorted(GOLDEN.glob("table_*.json")):
        for row in json.loads(path.read_text())["rows"]:
            if not check_assumption1(builtin_scheme(row["scheme"])):
                continue
            for o in row["per_candidate"]:
                step, shifted = o["first_step_failure"], o["first_shifted_failure"]
                assert step is None or (shifted is not None and shifted <= step), (path.name, row["scheme"], o["c"])
                checked += 1
    assert checked == 1308  # every candidate of the ten tables: all five built-ins satisfy Assumption 1


def test_every_golden_candidate_keeps_the_verdict_rules():
    """A criterion passes exactly when it never failed and the run did not
    abort; a run aborts at the step it ends on, with a reason; every failure
    lies within the steps taken."""
    checked = 0
    for path in sorted(GOLDEN.glob("table_*.json")):
        for row in json.loads(path.read_text())["rows"]:
            for o in row["per_candidate"]:
                where = (path.name, row["scheme"], o["c"])
                aborted = o["aborted_step"] is not None
                assert o["step_pass"] == (o["first_step_failure"] is None and not aborted), where
                assert o["shifted_pass"] == (o["first_shifted_failure"] is None and not aborted), where
                assert (o["abort_reason"] is None) == (not aborted), where
                assert not aborted or o["aborted_step"] == o["n_steps"], where
                for failure in (o["first_step_failure"], o["first_shifted_failure"]):
                    assert failure is None or 0 <= failure < o["n_steps"], where
                checked += 1
    assert checked == 1308
