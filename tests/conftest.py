import multiprocessing
import signal

import pytest


@pytest.fixture
def no_children_left():
    """Fails the test if a worker process outlives it. A test still running
    after 60 s kills its worker processes and fails, so a hung worker
    cannot block the suite or outlive it."""
    def hang(*_):
        for child in multiprocessing.active_children():
            child.kill()
        raise TimeoutError("still running after 60 s; its worker processes were killed")
    old = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)
    assert multiprocessing.active_children() == []
