import csv
import json

import numpy as np
import pytest

from rkstab.cli import main


def read_history(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def test_run_upwind_rk44_passes(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "upwind", "--scheme", "rk44", "--dt-factor", "1.0", "--out", str(out)])
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is True
    assert verdict["monitor"] == "tv"
    rows = read_history(out / "history.csv")
    tv = np.array([float(r["G_step"]) for r in rows])
    assert np.all(np.diff(tv) <= 1e-12)
    # final field snapshot has the scalar columns
    header = (out / "final_field.csv").read_text().splitlines()[0]
    assert header == "x,q"


def test_run_records_violation_exit_code(tmp_path):
    out = tmp_path / "out"
    code = main(["run", "upwind", "--scheme", "rk44", "--dt-factor", "3.0", "--out", str(out)])
    assert code == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["passed"] is False


def test_run_unknown_scheme_lists_valid_ids(tmp_path, capsys):
    code = main(["run", "upwind", "--scheme", "rk99", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "rk99" in err
    for valid in ("forward_euler", "midpoint", "ssprk33", "rk31", "rk44"):
        assert valid in err


def test_run_unknown_target(tmp_path, capsys):
    code = main(["run", "no_such_preset", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "preset" in capsys.readouterr().err


def test_run_with_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "experiment": "upwind",
                "scheme": "forward_euler",
                "dt_factor": 2.0,
                "t_final": 0.4,
            }
        )
    )
    out = tmp_path / "out"
    # CLI flag overrides the file's dt_factor; 0.5 is well inside the limit
    code = main(["run", str(cfg), "--dt-factor", "0.5", "--out", str(out)])
    assert code == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["dt_factor"] == 0.5
    assert verdict["scheme"] == "forward_euler"


def test_run_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "upwind", "dt": 0.1}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "dt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"experiment": "upwind",', "malformed JSON config "),
        ('["upwind"]', "config file must hold a JSON object"),
        ('{"scheme": "rk44"}', "config file must name an 'experiment'"),
    ],
)
def test_run_rejects_a_config_file_that_names_no_experiment(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1
    assert not out.exists()


def test_run_output_is_bit_identical_across_repeats(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert (
            main(
                ["run", "upwind", "--scheme", "midpoint", "--dt-factor", "1.0", "--out", str(out)]
            )
            == 0
        )
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "final_field.csv").read_bytes() == (out2 / "final_field.csv").read_bytes()


def test_run_euler_history_columns(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "leblanc_n2",
            "--scheme",
            "midpoint",
            "--dt-factor",
            "1.0",
            "--n-cells",
            "150",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = read_history(out / "history.csv")
    assert {"t", "G_step", "worst_stage_delta", "worst_shifted_delta", "min_rho", "min_rhoe"} <= set(
        rows[0]
    )
    assert all(float(r["min_rho"]) > 0 for r in rows)
    header = (out / "final_field.csv").read_text().splitlines()[0]
    assert header == "x,rho,m,E,u,p"


def test_limits_command_writes_json_and_csv(tmp_path, capsys):
    out = tmp_path / "limits.json"
    code = main(
        [
            "limits",
            "upwind",
            "--schemes",
            "forward_euler",
            "--c-max",
            "2.0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["c_p"] == pytest.approx(1.3)
    assert (tmp_path / "limits.csv").exists()
    stdout = capsys.readouterr().out
    assert "forward_euler" in stdout and "1.3" in stdout


def test_limits_rejects_unknown_scheme(tmp_path, capsys):
    assert main(["limits", "upwind", "--schemes", "rk5"]) == 1
    assert "rk5" in capsys.readouterr().err


def test_limits_rejects_unknown_preset(capsys):
    assert main(["limits", "sod"]) == 1
    assert "sod" in capsys.readouterr().err


def test_coef_builtin_schemes(capsys):
    assert main(["coef", "rk44"]) == 0
    assert "c_ssp = 0.000000, assumption1 = true" in capsys.readouterr().out
    assert main(["coef", "ssprk33"]) == 0
    assert "c_ssp = 1.000000, assumption1 = true" in capsys.readouterr().out


def test_coef_tableau_file_kutta3(tmp_path, capsys):
    path = tmp_path / "kutta3.txt"
    path.write_text("kutta3\n3\n0 0 0\n0.5 0 0\n-1 2 0\n" + f"{1/6!r} {2/3!r} {1/6!r}\n")
    assert main(["coef", str(path)]) == 0
    assert "c_ssp = 0.000000, assumption1 = false" in capsys.readouterr().out


def test_coef_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("demo\n2\n0 0\nnot_a_number 0\n0 1\n")
    assert main(["coef", str(path)]) == 1
    assert "line 4" in capsys.readouterr().err


def test_coef_unknown_target(capsys):
    assert main(["coef", "rk99"]) == 1
    err = capsys.readouterr().err
    assert "rk99" in err and "forward_euler" in err


def test_usage_error_exit_code_is_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_limits_rejects_worker_count_below_one(tmp_path, capsys):
    out = tmp_path / "t.json"
    assert main(["limits", "upwind", "--schemes", "rk44", "--workers", "0", "--out", str(out)]) == 1
    assert "error: workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("schemes", [",", "forward_euler,forward_euler"])
def test_limits_rejects_empty_or_repeated_scheme_list(tmp_path, capsys, schemes):
    out = tmp_path / "t.json"
    assert main(["limits", "upwind", "--schemes", schemes, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_run_rejects_infinite_final_time(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["run", "upwind", "--t-final", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: t_final must be positive and finite")
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "leblanc_n2"], ["limits", "upwind", "--schemes", "rk44"]])
def test_a_final_time_within_the_end_tolerance_is_an_error(tmp_path, capsys, command):
    """t_final = 1e-13 used to end every run before its first step: run
    passed with 0 steps and limits reported the scan's top as both limits."""
    out = tmp_path / "o"
    assert main(command + ["--t-final", "1e-13", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: t_final must be positive and finite")
    assert not out.exists()


def test_run_rejects_fractional_cell_count_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "upwind", "n_cells": 40.5}))
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: n_cells must be an integer, got 40.5")


@pytest.mark.parametrize("flag", ["--c-min", "--c-max", "--granularity"])
def test_limits_rejects_non_finite_scan_bounds(tmp_path, capsys, monkeypatch, flag):
    """An infinite bound used to make the candidate list endless; it must be
    refused before any candidate runs."""
    import rkstab.limits

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(rkstab.limits, "run_batch", no_sweep)
    out = tmp_path / "t.json"
    assert main(["limits", "upwind", "--schemes", "rk44", flag, "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:].replace('-', '_')} must be finite")
    assert not out.exists()


@pytest.mark.parametrize(
    "granularity, message",
    [
        ("1e-13", "error: granularity must be at least 1e-11 (ticks are rounded to 12 decimals)"),
        ("1e-300", "error: granularity must be at least 1e-11"),
        ("1e-11", "error: granularity 1e-11 makes 1000000 or more ticks"),
    ],
)
def test_limits_rejects_a_granularity_that_makes_ticks_repeat_or_too_many(
    tmp_path, capsys, monkeypatch, granularity, message
):
    """Ticks are rounded to 12 decimals: below that unit consecutive ticks
    used to repeat, and the candidate list grew until memory ran out."""
    import rkstab.limits

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(rkstab.limits, "run_batch", no_sweep)
    out = tmp_path / "t.json"
    assert main(["limits", "upwind", "--schemes", "rk44", "--granularity", granularity, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_limits_rejects_csv_out_path(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["limits", "upwind", "--schemes", "rk44", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def no_work(*args, **kwargs):
    raise AssertionError("the work started")


@pytest.mark.parametrize(
    "command, out, message",
    [
        (["limits", "upwind"], "missing/t.json", "error: --out {tmp}/missing/t.json: {tmp}/missing is not a directory\n"),
        (["limits", "upwind"], "a_dir", "error: --out {tmp}/a_dir: {tmp}/a_dir is a directory\n"),
        (["limits", "upwind"], "t.json", "error: --out {tmp}/t.json: {tmp}/t.csv is a directory\n"),
        (["run", "upwind"], "a_file", "error: [Errno 17] File exists: '{tmp}/a_file'\n"),
        (["run", "upwind"], "a_file/o", "error: [Errno 20] Not a directory: '{tmp}/a_file/o'\n"),
    ],
    ids=["limits-missing-dir", "limits-dir", "limits-csv-dir", "run-file", "run-under-file"],
)
def test_an_out_path_that_cannot_be_written_fails_before_the_work(tmp_path, capsys, monkeypatch, command, out, message):
    """An --out in a missing directory, or one a directory or file stands
    in the way of, used to fail only after the whole sweep or run: limits
    checks its two paths first, and run makes its directory first."""
    import rkstab.cli

    monkeypatch.setattr(rkstab.cli, "limits_table", no_work)
    monkeypatch.setattr(rkstab.cli, "simulate", no_work)
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "t.csv").mkdir()
    (tmp_path / "a_file").write_text("")
    before = sorted(tmp_path.rglob("*"))
    assert main(command + ["--out", str(tmp_path / out)]) == 1
    assert capsys.readouterr().err == message.format(tmp=tmp_path)
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "a_file").read_text() == ""


@pytest.mark.parametrize(
    "key, value",
    [
        ("t_final", "1"),
        ("dt_factor", None),
        ("tolerance", "x"),
        ("experiment", ["upwind"]),
        ("n_cells", "40"),
        ("dt_factor", True),
        ("scheme", 4),
    ],
)
def test_run_rejects_config_values_of_the_wrong_type(tmp_path, capsys, key, value):
    """A config value of the wrong JSON type used to end in a TypeError
    traceback; it must give an error line naming the key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "upwind", key: value}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} must be ")
    assert not out.exists()


TOLERANCE_ON_POSITIVITY = "tolerance applies to the energy and tv monitors only, not to 'positivity'"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "upwind", "--lf", "global"], "error: lf='global' needs a Lax-Friedrichs preset"),
        (["run", "dissipative", "--lf", "global"], "error: lf='global' needs a Lax-Friedrichs preset"),
        (["run", "leblanc_n2", "--tv-wrap", "on"], "error: tv_wrap applies to the tv monitor only"),
        (["run", "dissipative", "--tv-wrap", "off"], "error: tv_wrap applies to the tv monitor only"),
        (["limits", "muscl2", "--schemes", "rk44", "--lf", "global"], "error: lf='global' needs"),
        (["run", "leblanc_n2", "--tolerance", "0.5"], f"error: {TOLERANCE_ON_POSITIVITY}\n"),
        (["limits", "leblanc_n2", "--schemes", "rk44", "--tolerance", "0.5"], f"error: {TOLERANCE_ON_POSITIVITY}\n"),
    ],
)
def test_flags_a_preset_would_ignore_are_errors(tmp_path, capsys, argv, message):
    """--lf global on a Burgers preset, --tv-wrap without the tv monitor and
    --tolerance with the positivity monitor, which reads none, used to exit 0
    with the default result."""
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


def test_flags_that_apply_are_accepted(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "upwind", "--tv-wrap", "off", "--t-final", "0.1", "--out", str(out / "u")]) == 0
    argv = ["run", "leblanc_n2", "--lf", "global", "--dt-factor", "0.5", "--t-final", "0.01", "--out", str(out / "l")]
    assert main(argv) in (0, 2)
    assert json.loads((out / "l" / "verdict.json").read_text())["n_steps"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "upwind", "--t-final", "0.1", "--tolerance", "nan"],
        ["run", "dissipative", "--t-final", "0.1", "--tolerance", "inf"],
        ["limits", "upwind", "--schemes", "rk44", "--t-final", "0.1", "--tolerance", "nan"],
    ],
)
def test_a_tolerance_that_is_not_finite_is_an_error(tmp_path, capsys, argv):
    """A NaN tolerance used to fail every energy/tv comparison: the run
    reported a stability violation and exited 2."""
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: tolerance must be non-negative and finite")
    assert not out.exists()


VALID_SCHEME_IDS = "forward_euler, midpoint, ssprk33, rk31, rk44"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "upwind", "--scheme", "rk99"], f"error: unknown scheme 'rk99'; valid ids: {VALID_SCHEME_IDS}\n"),
        (["run", "upwind", "--record-every", "0"], "error: record_every must be at least 1\n"),
        (["limits", "sod"], "error: unknown experiment 'sod'; valid ids: dissipative, upwind, muscl2, "),
        (
            ["limits", "upwind", "--schemes", "rk44,rk5,rk6"],
            f"error: unknown scheme 'rk5'; valid ids: {VALID_SCHEME_IDS}\n",
        ),
        (["limits", "upwind", "--schemes", "rk44", "--workers", "0"], "error: workers must be at least 1\n"),
    ],
)
def test_inputs_the_library_checks_exit_one_before_writing(tmp_path, capsys, argv, message):
    """The CLI leaves these checks to the library: each bad value still
    exits 1 with one error line, and nothing is written."""
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_run_config_file_with_an_unknown_scheme(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "upwind", "scheme": "rk99"}))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown scheme 'rk99'; valid ids: {VALID_SCHEME_IDS}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"experiment": "leblanc_n2", "monitor": "energy"}, "energy monitor requires a scalar scheme"),
        ({"experiment": "upwind", "monitor": "positivity"}, "positivity monitor requires an Euler scheme"),
        ({"experiment": "leblanc_n2", "tolerance": 0.5}, TOLERANCE_ON_POSITIVITY),
    ],
)
def test_run_config_file_with_a_monitor_the_scheme_does_not_fit(tmp_path, capsys, settings, message):
    """The config rejects the pair when it is built, and the preset a
    tolerance the positivity monitor would ignore, so the run exits 1 before
    it creates the --out directory."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(settings))
    out = tmp_path / "o"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_coef_rejects_an_inconsistent_tableau_file(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("short\n2\n0 0\n0.5 0\n0.5 0.4\n")  # weights sum to 0.9
    assert main(["coef", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: tableau 'short' is inconsistent: weight_sum[None] residual=-1.000e-01\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "text, violations",
    [
        ("nan_a\n2\n0 0\nnan 0\n0.5 0.5\n", "not_finite[('A', 1, 0)] residual=nan"),
        ("nan_b\n2\n0 0\n0.5 0\n0.5 nan\n", "not_finite[('b', 1)] residual=nan"),
        ("inf_a\n2\n0 0\ninf 0\n0.5 0.5\n", "not_finite[('A', 1, 0)] residual=inf"),
    ],
    ids=["nan_in_A", "nan_in_b", "inf_in_A"],
)
@pytest.mark.filterwarnings("error")  # a RuntimeWarning would be a second line on stderr
def test_coef_rejects_a_non_finite_coefficient(tmp_path, capsys, text, violations):
    """NaN used to pass as consistent, with c_ssp 0 and assumption 1 true,
    and inf with a RuntimeWarning; both exit 1 with one error line now."""
    path = tmp_path / "t.txt"
    path.write_text(text)
    assert main(["coef", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: tableau {text.split()[0]!r} is inconsistent: {violations}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [path]


def test_verdict_json_key_order(tmp_path):
    out = tmp_path / "o"
    assert main(["run", "leblanc_n2", "--dt-factor", "4.5", "--t-final", "0.01", "--out", str(out)]) == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert list(verdict) == [
        "experiment",
        "scheme",
        "dt_factor",
        "monitor",
        "passed",
        "step_pass",
        "shifted_pass",
        "first_step_failure",
        "first_shifted_failure",
        "aborted_step",
        "abort_reason",
        "n_steps",
        "t_final",
    ]
    assert verdict["aborted_step"] is not None and verdict["abort_reason"]


def test_record_every_writes_every_kth_step_and_the_last(tmp_path):
    every, third = tmp_path / "every", tmp_path / "third"
    for out, stride in ((every, "1"), (third, "3")):
        assert main(["run", "upwind", "--t-final", "0.4", "--record-every", stride, "--out", str(out)]) == 0
    rows = read_history(every / "history.csv")
    assert len(rows) == 20  # so the last step, 19, is off the stride
    assert read_history(third / "history.csv") == [rows[k] for k in (0, 3, 6, 9, 12, 15, 18, 19)]
    assert (third / "final_field.csv").read_bytes() == (every / "final_field.csv").read_bytes()
