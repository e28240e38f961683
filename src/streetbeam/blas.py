"""Thread count of the OpenBLAS library that numpy calls.

Feature selection trains candidates on one forked process per CPU. A
process's OpenBLAS runs its own threads, one per CPU, so every worker
sets its own to one; otherwise two workers at 160x320 took 2 to 3.5 times
the wall time of one process. numpy has no call for this, so the setter is
looked up in the loaded library, under the names OpenBLAS builds export
(the ``scipy_`` prefix and ``64_`` suffix of the wheels' ILP64 build).
"""

import functools

_NAMES = tuple(f"{prefix}openblas_set_num_threads{suffix}"
               for prefix in ("", "scipy_") for suffix in ("", "64_"))


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
