import functools
import sys
import threading
import time

import numpy as np
import pytest

from streetbeam import lanes


@pytest.fixture
def two_lanes(monkeypatch):
    monkeypatch.setattr(lanes, "_lanes", 2)


def _helper_started(started):
    """An ``own`` job that waits, at most 10 s, until the helper has started
    a job."""
    def own():
        assert started.wait(10), "the helper took no job"
    return own


def test_run_starts_every_job_once_on_both_lanes(two_lanes):
    """Many short jobs under a short switch interval, which both lanes take
    from one queue once ``own`` is done: each job runs exactly once, and
    the helper takes jobs while the caller runs ``own``."""
    caller, switch = threading.get_ident(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            ran, started = [], threading.Event()

            def job(i):
                ran.append((i, threading.get_ident()))
                if threading.get_ident() != caller:
                    started.set()
                time.sleep(0)
            lanes.run([functools.partial(job, i) for i in range(300)],
                      own=_helper_started(started))
            assert sorted(i for i, _ in ran) == list(range(300))
            assert {t for _, t in ran} - {caller}
    finally:
        sys.setswitchinterval(switch)
    assert lanes._helper is not None and lanes._helper[0].is_alive()


def test_split_on_one_lane_writes_the_outputs_the_caller_allocated(monkeypatch):
    """On one lane, and on a first axis of one entry, ``split`` runs the
    kernel once, whole, on the arrays ``outs()`` returned, and returns those
    same arrays; with ``axis`` None it never calls ``outs`` and returns the
    kernel's result."""
    calls = []

    def kernel(scale, x, y, spare):
        calls.append((x, y, spare))
        np.multiply(x, scale, out=y)

    x = np.arange(6.0).reshape(3, 2)
    for n, a, axis in ((1, x, 0), (1, x, -1), (2, x[:1], 0)):
        monkeypatch.setattr(lanes, "_lanes", n)
        outs = (np.empty_like(a), None)
        calls.clear()
        assert lanes.split(kernel, (a,), (3.0,), lambda: outs, axis) is outs
        assert len(calls) == 1 and calls[0][0] is a
        assert calls[0][1] is outs[0] and calls[0][2] is None
        assert (outs[0] == 3 * a).all()

    def never():
        raise AssertionError("outs called with axis None")
    monkeypatch.setattr(lanes, "_lanes", 1)
    assert lanes.split(np.negative, (np.arange(3.0),), (), never, None).tolist() == [-0.0, -1, -2]


def test_run_on_one_lane_runs_everything_in_order_here(monkeypatch):
    monkeypatch.setattr(lanes, "_lanes", 1)
    ran = []
    lanes.run([functools.partial(ran.append, (i, threading.get_ident())) for i in range(4)],
              own=lambda: ran.append(("own", threading.get_ident())))
    assert ran == [(i, threading.get_ident()) for i in ("own", 0, 1, 2, 3)]
    lanes.run([])
    lanes.run([], own=lambda: ran.append("alone"))
    assert ran[-1] == "alone"


@pytest.mark.parametrize("where", ["helper job", "caller job", "own"])
def test_a_failed_job_is_raised_once_both_lanes_are_done(two_lanes, where):
    """The helper takes job 0 while the caller runs ``own``, then the caller
    takes job 1. Job 0, job 1 or ``own`` raises while the other lane's job
    still runs: the exception reaches the caller once that job has ended,
    and no further job starts. The next call runs every job."""
    started = [threading.Event() for _ in range(6)]
    failed, events = threading.Event(), []

    def job(i):
        events.append(("start", i))
        started[i].set()
        if (where, i) in (("helper job", 0), ("caller job", 1)):
            if i == 0:
                assert started[1].wait(10)  # job 0 fails while job 1 runs
            failed.set()
            raise ValueError(f"job {i}")
        assert failed.wait(10)
        time.sleep(0.2)  # outlast the failure
        events.append(("end", i))

    def own():
        assert started[0].wait(10), "the helper took no job"
        if where == "own":
            failed.set()
            raise ValueError("own")
    with pytest.raises(ValueError, match="own" if where == "own" else "job"):
        lanes.run([functools.partial(job, i) for i in range(6)], own=own)
    other = 1 if where == "helper job" else 0
    assert ("end", other) in events
    assert [i for what, i in events if what == "start"] == ([0] if where == "own" else [0, 1])
    ran = []
    lanes.run([functools.partial(ran.append, i) for i in range(6)],
              own=lambda: ran.append("own"))
    assert sorted(ran, key=str) == [0, 1, 2, 3, 4, 5, "own"]
