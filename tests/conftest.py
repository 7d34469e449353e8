"""One Hypothesis profile for the whole suite: the same examples on every
run; and a wall-time guard, so a test that would hang fails instead."""

import signal

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None, print_blob=True)
settings.load_profile("tier1")

# every test's wall-time limit, far above the slowest test (a few seconds)
GUARD_SECONDS = 60


class WallTimeExceeded(BaseException):
    """A test ran past its wall-time limit.  Not an Exception, so neither
    Hypothesis, which would shrink on it, nor an `except Exception` in the
    code under test takes it for an ordinary failure and runs on."""


@pytest.fixture(autouse=True)
def wall_time_guard():
    """Fail every test that runs past GUARD_SECONDS of wall time; the timer
    is cleared when the test ends."""

    def expire(signum, frame):
        raise WallTimeExceeded("test ran past its time limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, GUARD_SECONDS)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit(wall_time_guard):
    """Call time_limit(seconds) to fail the test once that much wall time has
    passed, in place of the guard's longer limit."""
    return lambda seconds: signal.setitimer(signal.ITIMER_REAL, seconds)
