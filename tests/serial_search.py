"""Reference oracle for ``rkstab.limits._scan``: the serial search.

It offers one coarse tick at a time and stops at the first tick where both
criteria have failed; then it bisects ``c_p`` and, after it, ``c_s``, one
midpoint at a time, reusing the outcomes it already has.  The speculative
search in ``limits`` must return the same :class:`LimitResult`, bit for bit.
"""

import itertools

from rkstab.limits import REFINE_RESOLUTION, LimitResult, _candidate_values, _run_chunk
from rkstab.tableau import ssp_coefficient


def serial_scan(cfg):
    """Generator with the protocol of ``limits._scan``: yields candidate
    lists, is sent their outcomes, returns the LimitResult."""
    candidates = _candidate_values(cfg.c_min, cfg.c_max, cfg.granularity)
    outcomes = {}
    ticks = 1 if cfg.refine else len(candidates)
    step_failed = shifted_failed = False
    for i in range(0, len(candidates), ticks):
        for out in (yield candidates[i : i + ticks]):
            outcomes[out.c] = out
            step_failed = step_failed or not out.step_pass
            shifted_failed = shifted_failed or not out.shifted_pass
        if cfg.refine and step_failed and shifted_failed:
            break

    def prefix_largest(flag):
        passed = list(itertools.takewhile(lambda c: c in outcomes and getattr(outcomes[c], flag), candidates))
        return passed[-1] if passed else None

    c_p = prefix_largest("step_pass")
    c_s = prefix_largest("shifted_pass")
    if cfg.refine:
        c_p = yield from serial_bisect(c_p, cfg, outcomes, "step_pass")
        c_s = yield from serial_bisect(c_s, cfg, outcomes, "shifted_pass")
    return LimitResult(
        scheme=cfg.base.tableau.name,
        c_ssp=ssp_coefficient(cfg.base.tableau),
        c_s=c_s,
        c_p=c_p,
        per_candidate=tuple(outcomes[c] for c in sorted(outcomes)),
    )


def serial_bisect(coarse, cfg, outcomes, flag):
    if coarse is None:
        return None
    hi = round(coarse + cfg.granularity, 12)
    if hi > cfg.c_max + 1e-9 * cfg.granularity:
        return coarse  # passed through the top of the scan; nothing bracketed
    lo = coarse
    while hi - lo > REFINE_RESOLUTION + 1e-12:
        mid = round(0.5 * (lo + hi), 12)
        if mid not in outcomes:
            (outcomes[mid],) = yield [mid]
        if getattr(outcomes[mid], flag):
            lo = mid
        else:
            hi = mid
    return lo


def drive(scan, outcomes_of):
    """Run a scan generator, each offer's outcomes given by ``outcomes_of(offer)``.
    Returns the LimitResult and the list of offers."""
    offers = []
    try:
        offer = next(scan)
        while True:
            offers.append(offer)
            offer = scan.send(outcomes_of(offer))
    except StopIteration as stop:
        return stop.value, offers


def serial_limits(cfg):
    """The serial search on real runs, one offer a batch."""
    base = cfg.base
    result, _ = drive(serial_scan(cfg), lambda offer: _run_chunk((base, [base.tableau] * len(offer), offer)))
    return result
