"""Machine-speed probe for timing on a shared host.

On a shared virtual machine the speed of the same code drifts by up to 2x
over seconds to minutes, so raw wall times of one workload spread more
between runs than any change worth measuring. The probe samples machine
speed while a timed unit runs: a SIGALRM handler runs a fixed ~3 ms
calibration in the main thread every PERIOD_S seconds (and once at each
end). Each calibration is timed by the main thread's own CPU time, so the
program's other threads and child processes, which can only take the CPU
away from it, do not change the sample; a host that runs every
instruction slower does. A wall time is then expressed in reference
seconds: each interval is scaled by REF_S / (calibration time measured in
it), so a uniformly slower machine reads the same, while slower program
code reads slower. The handler's own time is kept out of the wall time,
and its intervals are kept so a tracer can keep them out of self times.
"""

import mmap
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
REF_S = 0.003    # calibration CPU time at reference speed (about the median on a 2-vCPU Xeon VM)


def calibrate(n=20000, pages=512):
    """Fixed work: a Python integer loop, then the first touch of fresh
    anonymous memory pages. The program allocates large arrays all the
    time, and page faults slow down most on a contended host, so both parts
    are needed for the probe to track the program's speed."""
    s = 0
    for i in range(n):
        s += i * i
    with mmap.mmap(-1, pages * mmap.PAGESIZE) as m:
        touched = np.frombuffer(m, dtype=np.uint8)
        touched[::mmap.PAGESIZE] = 1
        del touched  # release the buffer export before the map closes
    return s


class SpeedProbe:
    """Context manager timing the code it wraps while sampling machine speed.

    `wall` is the wrapped code's wall time without the probe's own, and
    `ref` the same in reference seconds; `ticks` holds the (start, end)
    perf_counter interval of every calibration.
    """

    def _tick(self, *_):
        t, cpu = time.perf_counter(), time.thread_time()
        calibrate()
        self.samples.append(time.thread_time() - cpu)
        end = time.perf_counter()
        self.ticks.append((t, end))
        self.spent += end - t

    def __enter__(self):
        self.samples, self.ticks, self.spent = [], [], 0.0
        self._tick()
        self.spent = 0.0  # probe time inside the timed interval
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.wall = time.perf_counter() - self._t0 - self.spent
        self._tick()
        return False

    @property
    def factor(self):
        """Mean of REF_S / calibration time: > 1 on a machine faster than
        the reference. Multiplying wall seconds by it gives reference
        seconds, the time-weighted integral of interval speeds."""
        return statistics.fmean(REF_S / c for c in self.samples)

    @property
    def ref(self):
        """The wrapped code's time in reference seconds."""
        return self.wall * self.factor
