import signal

import pytest


@pytest.fixture(autouse=True)
def alarm():
    """Fail a test that runs for 30 s instead of letting it hang the suite: a
    process left waiting on its forked child raises TimeoutError.  A forked
    child does not inherit the alarm."""
    def hung(signum, frame):
        raise TimeoutError("the test ran for 30 s; a process may be waiting on its child")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
