"""Settings of the native libraries numpy runs on: the thread count of its
OpenBLAS, and glibc's malloc thresholds.

Feature selection trains candidates on one forked process per CPU. A
process's OpenBLAS runs its own threads, one per CPU, so every worker
sets its own to one; otherwise two workers at 160x320 took 2 to 3.5 times
the wall time of one process. numpy has no call for this, so the setter,
and the getter beside it, are looked up in the loaded library, under the
names OpenBLAS builds export (the ``scipy_`` prefix and ``64_`` suffix of
the wheels' ILP64 build).

Training and generation run in ``one_thread``, a section that holds
OpenBLAS to one thread and restores the count it found. A convolution's
weight-gradient GEMM, with its long inner dimension, rounds differently
on one OpenBLAS thread than on two, so training at the default count
wrote other bytes on one CPU than on two. OpenBLAS's second thread also
spins after each GEMM, through the single-threaded numpy passes of a
training step and through the channel assembly and container I/O that
follow generation's beam search; the second CPU goes to the two lanes of
``streetbeam.lanes`` instead, which run training's passes and GEMMs as
halves, and generation's rendering and hashing beside its search and its
file I/O.

A training step allocates and frees the same large arrays as the step
before it. With glibc's default thresholds, malloc maps arrays above its
mmap threshold afresh and hands the top of the heap back to the kernel
above its trim threshold, so every step faults those pages in again: a
repeat ``train_stack`` of five TINY_ARCH sets on 59 samples at 16x32
faulted 700 to 2300 pages, and 0 to 93 after ``keep_freed_heap``.
It raises the mmap threshold to glibc's 64-bit maximum and the trim
threshold above it. Both are set, because setting either one switches off
glibc's dynamic thresholds, and the other default would then still
return the pages. A training process's RSS then does not shrink between
steps, and its peak grows by what the heap cannot reuse: about 10% for a
default-arch selection worker at 160x320, 1 to 2% for a train command at
80x160, nothing measurable at 16x32.
"""

import contextlib
import functools

_NAMES = tuple(f"{prefix}openblas_{{}}_num_threads{suffix}"
               for prefix in ("", "scipy_") for suffix in ("", "64_"))
# mallopt parameters (malloc.h) and the values set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20   # HEAP_MAX_SIZE / 2 on 64-bit glibc, its maximum
_TRIM_THRESHOLD = 512 << 20


@functools.cache
def _thread_calls():
    """The loaded OpenBLAS's (``get_num_threads``, ``set_num_threads``), or
    (None, None); the getter is None where the library lacks it."""
    import ctypes

    import numpy  # noqa: F401  loads the library

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None, None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _NAMES:
            setter = getattr(lib, name.format("set"), None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                getter = getattr(lib, name.format("get"), None)
                if getter is not None:
                    getter.argtypes = []
                    getter.restype = ctypes.c_int
                return getter, setter
    return None, None


def can_set_threads() -> bool:
    return _thread_calls()[1] is not None


def set_threads(n: int) -> None:
    """Run this process's BLAS calls on ``n`` threads, if it can."""
    setter = _thread_calls()[1]
    if setter is not None:
        setter(n)


@contextlib.contextmanager
def one_thread():
    """Run this process's BLAS calls on one thread inside the block, then on
    the count found on entering it. Without both the getter and the setter
    it changes nothing."""
    getter, setter = _thread_calls()
    if getter is None or setter is None:
        yield
        return
    before = getter()
    setter(1)
    try:
        yield
    finally:
        setter(before)


@functools.cache
def keep_freed_heap() -> bool:
    """Keep the memory this process frees mapped for its next allocations.

    Sets glibc malloc's mmap and trim thresholds, once per process; a
    forked child inherits them. True if glibc accepted both; with another C
    library it does nothing and returns False.
    """
    import ctypes

    libc = ctypes.CDLL(None)
    if not hasattr(libc, "gnu_get_libc_version"):
        return False
    mallopt = libc.mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1,
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1])
