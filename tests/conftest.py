import os

import pytest

import rkstab.limits as limits
from rkstab.integrator import run_batch
from rkstab.tableau import BUILTIN_SCHEME_IDS, builtin_scheme

#: Worker processes for the sweep-heavy tests; candidates are independent
#: simulations so this only affects wall time, never results.
SWEEP_WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(params=BUILTIN_SCHEME_IDS)
def any_builtin(request):
    return builtin_scheme(request.param)


def record_chunks(monkeypatch) -> list:
    """Patch the sweep's run_batch to record each chunk it runs, in call
    order, as its rows' (c, scheme name) pairs in row order.  A second call
    records into a new list."""
    chunks = []

    def recording(config, dt_factors, *, tableaux, **kwargs):
        chunks.append([(c, t.name) for t, c in zip(tableaux, dt_factors)])
        return run_batch(config, dt_factors, tableaux=tableaux, **kwargs)

    monkeypatch.setattr(limits, "run_batch", recording)
    return chunks


def record_offers(monkeypatch) -> list:
    """Patch the sweep's scans to record every offer as (scheme, band, cs)."""
    offers = []
    scan = limits._scan

    def recording(cfg, band):
        inner = scan(cfg, band)
        offer = next(inner)
        try:
            while True:
                offers.append((cfg.base.tableau.name, band, tuple(offer)))
                offer = inner.send((yield offer))
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(limits, "_scan", recording)
    return offers
