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
    assert "--workers must be at least 1" in capsys.readouterr().err
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


def test_limits_rejects_csv_out_path(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["limits", "upwind", "--schemes", "rk44", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
