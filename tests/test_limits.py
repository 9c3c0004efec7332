import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rkstab.limits as limits
from rkstab.integrator import RunVerdict
from rkstab.limits import LimitSearchConfig, find_limits, limits_table
from rkstab.presets import preset_config
from rkstab.tableau import ButcherTableau

from conftest import SWEEP_WORKERS, record_chunks, record_offers
from serial_search import drive, serial_limits, serial_scan


def upwind_search(scheme="forward_euler", **kwargs):
    base = preset_config("upwind", scheme, 1.0)
    return LimitSearchConfig(base=base, **kwargs)


def test_a_table_is_one_search_on_one_preset_config(monkeypatch):
    """A table's scans share one base: it is built once, not once per scheme."""
    import rkstab.presets as presets

    calls = []
    preset_config = presets.preset_config

    def counting(*args, **kwargs):
        calls.append(args)
        return preset_config(*args, **kwargs)

    monkeypatch.setattr(presets, "preset_config", counting)
    table = limits_table("upwind", ["rk44", "forward_euler"], c_max=1.0, t_final=0.1)
    assert len(calls) == 1
    assert [r.scheme for r in table.rows] == ["rk44", "forward_euler"]


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


@pytest.mark.parametrize("field", ["c_min", "c_max", "granularity"])
@pytest.mark.parametrize("value", [True, np.True_, "0.5"])
def test_search_bounds_must_be_real_numbers(field, value):
    base = preset_config("upwind", "rk44", 1.0)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be a real number, got {value!r}")):
        LimitSearchConfig(base=base, **{field: value})
    assert getattr(LimitSearchConfig(base=base, **{field: np.float64(0.5)}), field) == 0.5


@pytest.mark.parametrize("workers", [1.5, 2.0, True])
def test_workers_must_be_an_integer(monkeypatch, workers):
    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(limits, "run_batch", no_sweep)
    with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, got {workers!r}")):
        limits_table("upwind", ["rk44"], t_final=0.1, workers=workers)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        upwind_search(workers=0)


@pytest.mark.parametrize("c_max", [0.3, 1.0, 5.0, 123.456, 1e6, 1e12])
def test_the_finest_accepted_granularity_gives_strictly_increasing_ticks(c_max):
    """Ticks are rounded to TICK_DECIMALS decimals; the finest granularity a
    config accepts keeps consecutive ticks apart, on and off the decimal grid."""
    base = preset_config("upwind", "rk44", 1.0)
    finest = 2.0 * 10.0**-limits.TICK_DECIMALS * max(1.0, c_max)
    for ticks_below in (20_000, 20_000.25, 20_000.5):
        c_min = c_max - ticks_below * finest
        with pytest.raises(ValueError, match="granularity must be at least"):
            LimitSearchConfig(base=base, c_min=c_min, c_max=c_max, granularity=math.nextafter(finest, 0.0))
        cfg = LimitSearchConfig(base=base, c_min=c_min, c_max=c_max, granularity=finest)
        ticks = limits._candidate_values(cfg.c_min, cfg.c_max, cfg.granularity)
        assert len(ticks) >= 20_000
        assert all(a < b for a, b in zip(ticks, ticks[1:]))


def test_a_scan_has_fewer_than_max_ticks():
    base = preset_config("upwind", "rk44", 1.0)
    with pytest.raises(ValueError, match="or more ticks"):
        LimitSearchConfig(base=base, c_min=1.0, c_max=2.0, granularity=1.0 / limits.MAX_TICKS)
    LimitSearchConfig(base=base, c_min=1.0, c_max=2.0, granularity=1.01 / limits.MAX_TICKS)


def test_an_inconsistent_tableau_fails_before_any_candidate_runs(monkeypatch):
    """The scheme's SSP coefficient is taken before the first offer, so a
    tableau whose weights do not sum to 1 is not swept."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(limits, "run_batch", no_sweep)
    short = ButcherTableau("short_weights", [[0.0]], [0.9])
    base = dataclasses.replace(preset_config("upwind", "rk44", 1.0), tableau=short)
    with pytest.raises(ValueError, match=re.escape("tableau 'short_weights' is inconsistent: weight_sum")):
        find_limits(LimitSearchConfig(base=base))


def test_upwind_forward_euler_limits():
    result = find_limits(upwind_search())
    assert result.c_p == pytest.approx(1.3)
    assert result.c_s == pytest.approx(1.3)
    assert result.scheme == "forward_euler"
    assert result.c_ssp == 1.0


def test_forward_euler_step_and_shifted_flags_coincide():
    """One stage: the only shifted state is the step solution itself."""
    result = find_limits(upwind_search())
    for outcome in result.per_candidate:
        assert outcome.step_pass == outcome.shifted_pass
    assert result.c_p == result.c_s


def test_per_candidate_covers_the_scan():
    result = find_limits(upwind_search(c_min=0.5, c_max=1.0, granularity=0.1))
    assert [o.c for o in result.per_candidate] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
    assert all(isinstance(o, RunVerdict) for o in result.per_candidate)  # a candidate's outcome is its run's verdict
    assert all(o.step_pass and o.shifted_pass for o in result.per_candidate)


def test_determinism():
    a = find_limits(upwind_search(c_max=2.0))
    b = find_limits(upwind_search(c_max=2.0))
    assert a == b


def test_workers_do_not_change_results():
    seq = find_limits(upwind_search(c_max=1.6))
    par = find_limits(upwind_search(c_max=1.6, workers=SWEEP_WORKERS))
    assert seq == par


def test_refine_scan_offers_a_band_of_ticks_and_drops_the_outcomes_past_its_stop(monkeypatch):
    """With refine the coarse scan offers ``band`` ticks a round and stops at
    the first tick where both criteria have failed (1.4 here); the outcomes
    past it are run but not recorded, and the result is the serial search's."""
    cfg = upwind_search(c_min=1.1, refine=True)
    serial = serial_limits(cfg)
    calls = record_chunks(monkeypatch)
    for rows in (None, 3):
        if rows is not None:
            monkeypatch.setattr(limits, "CHUNK_BYTES", rows * 8 * cfg.base.grid.n_cells)
        band = limits._chunk_rows(cfg.base)
        assert band == (rows or 40)
        calls.clear()
        assert find_limits(cfg) == serial
        assert max(len(call) for call in calls) <= band
        assert [c for c, _ in calls[0]] == pytest.approx([1.1 + 0.1 * k for k in range(band)])
    ticks = set(limits._candidate_values(cfg.c_min, cfg.c_max, cfg.granularity))
    assert [o.c for o in serial.per_candidate if o.c in ticks] == [1.1, 1.2, 1.3, 1.4]


def test_refine_rounds_and_results_do_not_depend_on_workers(monkeypatch):
    """``workers`` only cuts a round into chunks: every scan makes the same
    offers, of at most ``band`` candidates, and gets the same result."""
    offers = record_offers(monkeypatch)
    tables = {}
    for workers in (1, 2):
        offers.clear()
        tables[workers] = (limits_table("upwind", c_max=2.0, refine=True, workers=workers), list(offers))
    assert tables[1] == tables[2]
    band = limits._chunk_rows(preset_config("upwind", "rk44", 1.0), 5) // 5
    offers = tables[1][1]
    assert {b for _, b, _ in offers} == {band}
    assert max(len(cs) for *_, cs in offers) == band


def synthetic_search(c_min=0.1, c_max=5.0, granularity=0.1, refine=True):
    return LimitSearchConfig(
        base=preset_config("upwind", "rk44", 1.0), c_min=c_min, c_max=c_max, granularity=granularity, refine=refine
    )


def synthetic(verdict):
    """Outcomes of an offer from ``verdict(c) -> (step_pass, shifted_pass)``; no simulation."""
    return lambda offer: [RunVerdict(c, *verdict(c), 1, None, None, None) for c in offer]


def assert_speculative_equals_serial(cfg, band, verdict):
    serial, serial_offers = drive(serial_scan(cfg), synthetic(verdict))
    result, offers = drive(limits._scan(cfg, band), synthetic(verdict))
    assert result == serial
    if cfg.refine:
        ticks = set(limits._candidate_values(cfg.c_min, cfg.c_max, cfg.granularity))
        recorded = {o.c for o in result.per_candidate}
        for offer in offers:
            if set(offer) <= ticks:
                assert len(offer) <= band
            else:
                # At most one whole level past ``band``: the next midpoint of
                # each open bracket (c_p's and c_s's), each on its path.
                assert len(offer) <= max(band, 2)
                assert len(offer) <= band or set(offer) <= recorded
        assert len(offers) <= len(serial_offers)
    return offers


# Isolated passes past the limits: muscl2 forward Euler passes at c = 2.0
# and 4.0 (exact shock staircases); ssprk33's shifted criterion at 0.5 and
# 1.0, above its c_s of 0.2.
ISOLATED = {
    "muscl2_forward_euler": lambda c: (c < 1.33 or c in (2.0, 4.0),) * 2,
    "muscl2_ssprk33": lambda c: (c < 1.335, c < 0.21 or c in (0.5, 1.0)),
    "muscl2_rk44": lambda c: (c < 1.73, c < 1.335),
}


@pytest.mark.parametrize("case", ISOLATED)
@pytest.mark.parametrize("band", [1, 2, 3, 5, 6, 10, 14, 16, 30, 60])
def test_isolated_passes_leave_the_speculative_search_serial(case, band):
    offers = assert_speculative_equals_serial(synthetic_search(), band, ISOLATED[case])
    if case == "muscl2_rk44" and band == 10:
        # Two coarse rounds (0.1-1.0, 1.1-2.0), then both brackets' four
        # bisection levels in two rounds of two levels each.
        assert len(offers) == 4


def test_a_band_one_bisection_offers_the_next_midpoint_of_both_brackets():
    """At ``band = 1`` both brackets are open after the coarse scan, c_p's at
    (1.3, 1.4) and c_s's at (0.2, 0.3): each bisection round offers both
    next midpoints, so c_s's bisection runs beside c_p's, not after it, and
    every midpoint offered is on its bracket's path."""
    cfg = synthetic_search()
    offers = assert_speculative_equals_serial(cfg, 1, ISOLATED["muscl2_ssprk33"])
    assert offers[:14] == [[c] for c in limits._candidate_values(0.1, 1.4, 0.1)]  # both fail at 1.4
    assert offers[14:] == [[0.25, 1.35], [0.225, 1.325], [0.2125, 1.3375], [0.20625, 1.33125]]


@settings(max_examples=300, deadline=None)
@example(
    band=1,
    t_step=1.33,
    t_shifted=0.21,
    step_flips=frozenset(),
    shifted_flips=frozenset(),
    grid=(0.1, 5.0, 0.1),
    refine=True,
)
@given(
    band=st.integers(1, 60),
    t_step=st.floats(0.0, 5.5),
    t_shifted=st.floats(0.0, 5.5),
    step_flips=st.frozensets(st.integers(0, 63)),
    shifted_flips=st.frozensets(st.integers(0, 63)),
    grid=st.sampled_from([(0.1, 5.0, 0.1), (0.5, 2.0, 0.1), (1.0, 3.3, 0.25), (0.05, 1.0, 0.05)]),
    refine=st.booleans(),
)
def test_speculative_search_equals_serial_search(band, t_step, t_shifted, step_flips, shifted_flips, grid, refine):
    """Verdicts are thresholds with arbitrary flips, on ticks and midpoints
    alike (a c flips when a hash of it lands in the drawn set)."""

    def verdict(c):
        key = hash(c) % 64
        return (c <= t_step) != (key in step_flips), (c <= t_shifted) != (key in shifted_flips)

    c_min, c_max, granularity = grid
    assert_speculative_equals_serial(synthetic_search(c_min, c_max, granularity, refine), band, verdict)


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


def test_limits_table_rejects_empty_or_repeated_scheme_list():
    with pytest.raises(ValueError, match="at least one scheme"):
        limits_table("upwind", [])
    with pytest.raises(ValueError, match="more than once: forward_euler"):
        limits_table("upwind", ["forward_euler", "rk44", "forward_euler"])


def test_a_table_rejects_a_string_of_schemes():
    """A string used to be read as its characters: "schemes listed more than once: 4"."""
    with pytest.raises(ValueError, match="schemes must be a list of scheme ids, not the string 'rk44'"):
        limits_table("upwind", "rk44")


def test_a_table_rejects_record_every():
    """A table writes no history: record_every used to be accepted and ignored.
    It is the history writer's setting, so no preset override takes it."""
    with pytest.raises(TypeError, match="unexpected keyword argument 'record_every'"):
        limits_table("upwind", ["rk44"], c_max=0.3, t_final=0.1, record_every=3)


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"scheme_id": "forward_euler"}, "scheme_id"),
        ({"dt_factor": 2.0}, "dt_factor"),
        ({"scheme_id": "rk44", "dt_factor": 1.0}, "scheme_id"),
    ],
)
def test_a_table_rejects_the_settings_its_sweep_sets(monkeypatch, overrides, named):
    """The sweep sets the tableau and the multiplier per candidate: scheme_id
    used to be ignored, and dt_factor raised a TypeError (dt_factor given
    twice to preset_config)."""

    def no_sweep(*args, **kwargs):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(limits, "run_batch", no_sweep)
    with pytest.raises(ValueError, match=f"^limits_table sets {named} per candidate; it cannot be overridden$"):
        limits_table("upwind", ["rk44"], c_max=0.3, t_final=0.1, **overrides)
