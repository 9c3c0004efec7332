import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from rkstab.limits import (
    CandidateOutcome,
    LimitSearchConfig,
    find_limits,
    limits_table,
)
from rkstab.presets import preset_config

from conftest import SWEEP_WORKERS


def upwind_search(scheme="forward_euler", **kwargs):
    base = preset_config("upwind", scheme, 1.0)
    return LimitSearchConfig(base=base, **kwargs)


def test_search_config_validation():
    base = preset_config("upwind", "rk44", 1.0)
    with pytest.raises(ValueError):
        LimitSearchConfig(base=base, c_min=0.0)
    with pytest.raises(ValueError):
        LimitSearchConfig(base=base, c_min=2.0, c_max=1.0)
    with pytest.raises(ValueError):
        LimitSearchConfig(base=base, granularity=0.0)
    for field in ("c_min", "c_max", "granularity"):
        for value in (math.inf, math.nan):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                LimitSearchConfig(base=base, **{field: value})


def test_upwind_forward_euler_limits():
    result = find_limits(upwind_search())
    assert result.c_p == pytest.approx(1.3)
    assert result.c_s == pytest.approx(1.3)
    assert result.scheme == "forward_euler"
    assert result.monitor == "tv"


def test_forward_euler_step_and_shifted_flags_coincide():
    """One stage: the only shifted state is the step solution itself."""
    result = find_limits(upwind_search())
    for outcome in result.per_candidate:
        assert outcome.step_pass == outcome.shifted_pass
    assert result.c_p == result.c_s


def test_per_candidate_covers_the_scan():
    result = find_limits(upwind_search(c_min=0.5, c_max=1.0, granularity=0.1))
    assert [o.c for o in result.per_candidate] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    assert all(isinstance(o, CandidateOutcome) for o in result.per_candidate)
    assert all(o.step_pass and o.shifted_pass for o in result.per_candidate)


def test_determinism():
    a = find_limits(upwind_search(c_max=2.0))
    b = find_limits(upwind_search(c_max=2.0))
    assert a == b


def test_workers_do_not_change_results():
    seq = find_limits(upwind_search(c_max=1.6))
    par = find_limits(upwind_search(c_max=1.6, workers=SWEEP_WORKERS))
    assert seq == par


@dataclass(frozen=True)
class CountingIC:
    """Initial condition that appends a line to ``path`` for every run it
    starts (in any process) and then waits ``delay`` seconds."""

    inner: object
    path: str
    delay: float

    def build(self, grid):
        with open(self.path, "a") as fh:
            fh.write("run\n")
        time.sleep(self.delay)
        return self.inner.build(grid)


def test_refine_scan_drops_pending_candidates(tmp_path):
    """With refine the coarse scan stops at the first tick where both criteria
    have failed; the pool must not go on to run the candidates queued after it."""
    runs = {}
    results = {}
    for workers in (1, 2):
        counter = tmp_path / f"runs_{workers}"
        base = preset_config("upwind", "forward_euler", 1.0)
        base = replace(base, ic=CountingIC(base.ic, str(counter), delay=0.05))
        cfg = LimitSearchConfig(base=base, c_min=1.1, refine=True, workers=workers)
        results[workers] = find_limits(cfg)
        runs[workers] = len(counter.read_text().splitlines())
    assert results[2] == results[1]
    assert runs[1] == len(results[1].per_candidate)  # 1.1 .. 1.4, then bisection
    n_coarse = 40  # 1.1 .. 5.0
    assert runs[1] <= runs[2] < n_coarse


def test_all_candidates_failing_yields_sentinel():
    result = find_limits(upwind_search("rk44", c_min=3.0, c_max=3.3))
    assert result.c_p is None and result.c_s is None
    assert not any(o.step_pass or o.shifted_pass for o in result.per_candidate)


def test_reported_limit_tops_the_contiguous_prefix():
    """muscl2 forward Euler has isolated resonant passes at c = 2 and 4
    (exact shock staircases); the reported limit must stay at the onset of
    genuine failure, with the resonances visible in the audit trail."""
    base = preset_config("muscl2", "forward_euler", 1.0)
    result = find_limits(LimitSearchConfig(base=base, workers=SWEEP_WORKERS))
    assert result.c_p == pytest.approx(1.3)
    assert result.c_s == pytest.approx(1.3)
    passes = {round(o.c, 10) for o in result.per_candidate if o.step_pass}
    assert 2.0 in passes and 4.0 in passes  # the resonances
    assert 1.4 not in passes


def test_refine_sharpens_within_one_tick():
    result = find_limits(upwind_search(refine=True, c_max=2.0))
    assert result.c_p is not None
    assert 1.3 <= result.c_p < 1.4
    assert 1.3 <= result.c_s < 1.4
    # refinement probes are recorded alongside the coarse scan
    assert any(1.3 < o.c < 1.4 for o in result.per_candidate)


def test_limits_table_joins_ssp_column():
    table = limits_table(
        "upwind",
        ["forward_euler", "midpoint"],
        c_max=2.0,
        workers=SWEEP_WORKERS,
    )
    assert table.experiment == "upwind"
    assert [r.scheme for r in table.rows] == ["forward_euler", "midpoint"]
    assert table.rows[0].c_ssp == pytest.approx(1.0, abs=1e-6)
    assert table.rows[1].c_ssp == pytest.approx(0.0, abs=1e-6)
    assert table.rows[1].c_s == pytest.approx(1.3)
    assert table.rows[1].c_p == pytest.approx(1.6)


def test_table_serialization_round_trip(tmp_path):
    table = limits_table("upwind", ["forward_euler"], c_max=1.5)
    payload = table.to_json_dict()
    text = json.dumps(payload)
    again = json.loads(text)
    assert again["experiment"] == "upwind"
    assert again["rows"][0]["scheme"] == "forward_euler"
    assert again["rows"][0]["c_p"] == pytest.approx(1.3)
    assert len(again["rows"][0]["per_candidate"]) == 15

    csv_path = tmp_path / "table.csv"
    table.write_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,c_ssp,c_s,c_p"
    assert lines[1].startswith("forward_euler,")

    summary = table.format_summary()
    assert "forward_euler" in summary and "1.3" in summary


def test_table_sentinel_serialization(tmp_path):
    table = limits_table("upwind", ["rk44"], c_min=3.0, c_max=3.2)
    row = table.to_json_dict()["rows"][0]
    assert row["c_p"] is None and row["c_s"] is None
    csv_path = tmp_path / "sentinel.csv"
    table.write_csv(csv_path)
    assert "<3" in csv_path.read_text()
    assert "<3" in table.format_summary()


def test_ssp_guarantee_lower_bound_on_upwind():
    """SSP schemes must measure c_p at least c_ssp - granularity."""
    table = limits_table("upwind", ["forward_euler", "ssprk33"], c_max=2.0)
    for row in table.rows:
        if row.c_ssp > 0:
            assert row.c_p >= row.c_ssp - 0.1 - 1e-12


def test_refine_pool_runs_at_most_one_candidate_per_extra_worker(tmp_path):
    """Under refine the pool keeps at most ``workers`` candidates in flight,
    so it starts no more than one candidate past the stop per extra worker."""
    runs = {}
    for workers in (1, 2):
        counter = tmp_path / f"runs_{workers}"
        base = preset_config("upwind", "forward_euler", 1.0)
        base = replace(base, ic=CountingIC(base.ic, str(counter), delay=0.05))
        find_limits(LimitSearchConfig(base=base, c_min=1.1, refine=True, workers=workers))
        runs[workers] = len(counter.read_text().splitlines())
    assert runs[2] <= runs[1] + 2


def test_limits_table_rejects_empty_or_repeated_scheme_list():
    with pytest.raises(ValueError, match="at least one scheme"):
        limits_table("upwind", [])
    with pytest.raises(ValueError, match="more than once: forward_euler"):
        limits_table("upwind", ["forward_euler", "rk44", "forward_euler"])
