"""Settings of the native libraries numpy runs on: the thread count of its
OpenBLAS, and glibc's malloc thresholds. Each is set once per process and
never restored; a forked child inherits both.

``one_thread`` holds OpenBLAS to one thread. numpy has no call for this,
so the setter is looked up in the loaded library, under the names
OpenBLAS builds export (the ``scipy_`` prefix and ``64_`` suffix of the
wheels' ILP64 build). Generation calls it before its beam search, and
training and prediction before their first pass. A convolution's
weight-gradient GEMM, with its long inner dimension, rounds differently
on one OpenBLAS thread than on two, so training at the default count
wrote other bytes on one CPU than on two. OpenBLAS's second thread also
spins after each GEMM, through the single-threaded numpy passes of a
training step and through the channel assembly and container I/O that
follow generation's beam search; the second CPU goes to the two lanes of
``streetbeam.lanes`` instead, which run training's passes and GEMMs as
halves, and generation's rendering and hashing beside its search and its
file I/O.

Feature selection trains candidates on one forked process per CPU. At
OpenBLAS's default, one thread per CPU in each process, two workers at
160x320 took 2 to 3.5 times the wall time of one process, so the search
holds the process before it forks its workers. A child must not call the
setter again: in a forked child any call to it starts OpenBLAS's pool
thread afresh, which then spins beside the worker although the count is
one. The cache of ``one_thread`` is inherited with the setting, so a
worker's own calls return at once.

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
def one_thread() -> bool:
    """Run this process's BLAS calls on one thread from now on, and on its
    forked children's. True if the loaded OpenBLAS's setter was found and
    called; without it this changes nothing and returns False."""
    import ctypes

    import numpy  # noqa: F401  loads the library

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return False
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
                setter(1)
                return True
    return False


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
