import os
import signal
from contextlib import contextmanager

import pytest

from rkstab.tableau import BUILTIN_SCHEME_IDS, builtin_scheme

#: Worker processes for the sweep-heavy tests; candidates are independent
#: simulations so this only affects wall time, never results.
SWEEP_WORKERS = min(2, os.cpu_count() or 1)


@pytest.fixture(params=BUILTIN_SCHEME_IDS)
def any_builtin(request):
    return builtin_scheme(request.param)


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
