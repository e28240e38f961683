"""Settings of the native libraries numpy runs on: the thread count of its
OpenBLAS, and glibc's malloc thresholds.

Feature selection trains candidates on one forked process per CPU. A
process's OpenBLAS runs its own threads, one per CPU, so every worker
sets its own to one; otherwise two workers at 160x320 took 2 to 3.5 times
the wall time of one process. numpy has no call for this, so the setter is
looked up in the loaded library, under the names OpenBLAS builds export
(the ``scipy_`` prefix and ``64_`` suffix of the wheels' ILP64 build).

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

import functools

_NAMES = tuple(f"{prefix}openblas_set_num_threads{suffix}"
               for prefix in ("", "scipy_") for suffix in ("", "64_"))
# mallopt parameters (malloc.h) and the values set
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20   # HEAP_MAX_SIZE / 2 on 64-bit glibc, its maximum
_TRIM_THRESHOLD = 512 << 20


@functools.cache
def _thread_setter():
    """The loaded OpenBLAS's ``set_num_threads``, or None."""
    import ctypes

    import numpy  # noqa: F401  loads the library

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _NAMES:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                return setter
    return None


def can_set_threads() -> bool:
    return _thread_setter() is not None


def set_threads(n: int) -> None:
    """Run this process's BLAS calls on ``n`` threads, if it can."""
    setter = _thread_setter()
    if setter is not None:
        setter(n)


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
