"""Two lanes: the calling thread and one helper thread.

A process that may use two CPUs gives the second one to a helper thread,
started at first use, instead of to a BLAS thread that spins between
calls. The caller hands it work in two shapes:

- ``split`` runs one kernel as two halves of its arrays' leading or last
  axis, the caller taking ``[0, n//2)`` and the helper ``[n//2, n)``;
  ``streetbeam.nn`` runs its per-channel passes and large GEMMs so.
- ``run`` runs a list of independent jobs on both lanes, after an
  optional job of the caller's own; generation renders its cameras beside
  channel assembly so, and the container hashes blobs beside file I/O.

Every job writes only its own outputs, which the caller allocates before
it hands out any job, and does the same arithmetic on either lane, so two
lanes give the bits of one. An exception of either lane is raised in the
caller once both are done. A process limited to one CPU, and a selection
worker (``set_lanes(1)``), runs every job in the caller, in order.

The helper runs numpy, hashlib and file calls and the kernels handed to
it, never a function that a span tracer wraps from the outside (a layer's
forward or backward, ``optimal_beam``, ``write_container``, ...), and
never uses the lanes itself; only one thread at a time hands it work.
"""

import collections
import os
import queue
import threading

_lanes = 0       # lanes of this process, 1 or 2; 0 until first used
_helper = None   # (thread, jobs, replies) of the second lane while it runs


def set_lanes(n):
    """Run the lanes' work on ``n`` lanes, 1 or 2, from now on; with one
    lane the helper thread is joined."""
    global _lanes
    _lanes = n
    if n < 2:
        join_helper()


def join_helper():
    """Stop and join the helper thread, if it runs, so that a fork copies no
    thread; two lanes start a new one at their next use."""
    global _helper
    if _helper is not None:
        thread, jobs, _ = _helper
        _helper = None
        jobs.put(None)
        thread.join()


def _forget_helper():
    global _helper
    _helper = None


os.register_at_fork(after_in_child=_forget_helper)  # a forked child has no helper


def _serve(jobs, replies):
    """The helper thread: run each (function, args) job, and reply None or
    the exception it raised once it holds none of the job's arrays, which
    the caller may then free."""
    while (job := jobs.get()) is not None:
        error = None
        try:
            job[0](*job[1])
        except BaseException as exc:  # re-raised in the caller
            error = exc
        job = None
        replies.put(error)


def _helper_queues():
    global _helper
    if _helper is None:
        jobs, replies = queue.SimpleQueue(), queue.SimpleQueue()
        thread = threading.Thread(target=_serve, args=(jobs, replies),
                                  name="streetbeam lane", daemon=True)
        thread.start()
        _helper = thread, jobs, replies
    return _helper[1:]


def _two():
    """Whether this process runs two lanes: it may use two CPUs or more,
    read once, unless ``set_lanes`` said otherwise."""
    global _lanes
    if not _lanes:
        _lanes = 2 if len(os.sched_getaffinity(0)) >= 2 else 1
    return _lanes >= 2


def _on_both(helper_fn, helper_args, caller_fn):
    """``helper_fn(*helper_args)`` on the helper and ``caller_fn()`` here;
    once both are done, raise the caller's exception, else the helper's."""
    jobs, replies = _helper_queues()
    jobs.put((helper_fn, helper_args))
    try:
        caller_fn()
    finally:
        error = replies.get()
    if error is not None:
        raise error


def split(kernel, arrays, shared=(), outs=None, axis=0):
    """``kernel(*shared, *arrays, *outputs)`` on the lanes.

    With two lanes, an ``axis`` of 0 or -1 and at least two entries on that
    axis of the first array, ``outs()`` allocates the outputs whole, as a
    tuple. The helper runs the kernel on the upper half ``[n//2, n)`` of
    that axis of every array and output (None stays None), the caller on
    the lower half, and the outputs are returned. Otherwise, or with
    ``axis`` None, the kernel runs once, whole, allocates its outputs and
    returns them, as the same tuple.
    """
    if axis is None or arrays[0].shape[axis] < 2 or not _two():
        return kernel(*shared, *arrays)
    whole = outs() if outs is not None else ()
    mid = arrays[0].shape[axis] // 2
    halves = []
    for part in (slice(None, mid), slice(mid, None)):
        index = part if axis == 0 else (Ellipsis, part)
        halves.append((*shared, *(None if a is None else a[index]
                                  for a in (*arrays, *whole))))
    _on_both(kernel, halves[1], lambda: kernel(*halves[0]))
    return whole


def _drain(pending):
    """Run the jobs of ``pending`` until it is empty; a job that raises
    empties it, so that neither lane starts another."""
    while True:
        try:
            job = pending.popleft()
        except IndexError:
            return
        try:
            job()
        except BaseException:
            pending.clear()
            raise


def run(jobs, own=None):
    """Run ``own()``, if given, then the callables ``jobs``, which must not
    depend on each other.

    With two lanes and more work than one job, the helper takes jobs in
    order while the caller runs ``own``; then the caller takes the jobs
    not yet started. An exception stops both lanes from starting further
    jobs and is raised here once both are done. Otherwise everything runs
    here in order.
    """
    pending = collections.deque(jobs)
    if len(pending) + (own is not None) < 2 or not _two():
        if own is not None:
            own()
        _drain(pending)
        return

    def mine():
        try:
            if own is not None:
                own()
        except BaseException:
            pending.clear()
            raise
        _drain(pending)
    _on_both(_drain, (pending,), mine)
