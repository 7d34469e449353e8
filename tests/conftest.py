"""One Hypothesis profile for the whole suite: the same examples on every
run; and a wall-time guard for tests that would otherwise hang."""

import signal

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def time_limit():
    """Call time_limit(seconds) to fail the test with TimeoutError once that
    much wall time has passed; the timer is cleared when the test ends."""

    def expire(signum, frame):
        raise TimeoutError("test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    yield lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)
