"""Host-speed calibration for every time the benchmark reports.

On a shared host with 2 vCPUs (Intel Xeon, Python 3.11), the same code runs
up to 40% faster or slower for seconds to tens of seconds at a time, for
reasons outside the process (CPU time slows down with wall time, so this is
contention, not descheduling).  Raw times then spread across runs far more
than any bound a regression check could use.  Every duration is therefore
reported in *reference time*: its raw length times ``nominal / r``, where
``r`` is what a fixed reference task took at about the same moment.

* In-process work is timed in CPU time of the one thread that runs it,
  kernels and operations alike.  The host also deschedules the process
  for milliseconds at a time, and in wall time that set the slowest
  operations: the 15 slowest of 30000 ``check`` ops took 2.4-4.9 ms of
  wall time and 0.15-1.1 ms of CPU time.  (The process CPU clock reads in
  4 ms steps inside a profiling-timer handler here, so it cannot time the
  kernels; the thread CPU clock can.)
* ``Sampler`` calibrates it: a profiling-timer signal every ``PERIOD_S`` of
  CPU time runs each kernel a few times and records how long that took.
  An operation's time, net of those interruptions, is scaled by the
  trimmed mean kernel time over the operation (or near it, for short
  ones).  A mean, not a median: an operation that spans a change of host
  speed is scaled by the mix of speeds it met.
* Code slows down by different amounts, so each operation names the
  kernels it resembles.  The analytic layers are scaled by the geometric
  mean of ``objects_kernel`` (boxed Python arithmetic) and
  ``vector_kernel`` (numpy over 4096 points): against ``check`` ops in 1 s
  windows that ratio varied by 2.4% (quartile spread) where
  ``objects_kernel`` alone varied by 5.9% and the raw time by 25%.  DC
  sweeps are scaled by ``integrator_kernel``, a frozen copy of the
  simulator's order-3 DC loop: against an order-3 DC ``run`` in 1 s windows
  it varied by 2% where ``objects_kernel`` varied by 9% and the raw time by
  38%.  Sine runs, in the simulator's generic loop, use ``objects_kernel``.
* Process start-up (CLI operations, set-up probes) does not slow down like
  the kernels do; it tracks ``python -c "import numpy"`` instead, so each
  spawned operation is paired with one such reference spawn
  (``spawn_reference``).  Medians of 10 ratios varied by 3% where medians
  of raw times varied by 15%.

A host where the references take their nominal time reports the raw
times unscaled; results files keep the raw figures as well.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import subprocess
import sys
import time

import numpy as np

PERIOD_S = 0.04

SPAWN_NOMINAL_NS = 150_000_000  # python -c "import numpy" on the reference host
SPAWN_REFERENCE = [sys.executable, "-c", "import numpy"]


def objects_kernel() -> float:
    """List indexing and boxed arithmetic, like the polynomial layer."""
    acc = 0.0
    xs = [1.0] * 8
    for i in range(300):
        j = i & 7
        xs[j] = xs[(i + 1) & 7] * 0.5 + i
        acc += abs(xs[j]) ** 0.5
    return acc


def integrator_kernel() -> bool:
    """The order-3 DC loop of ``sdmstab.simulator`` as the benchmark found
    it, frozen here so that it slows down as the simulator's loops do while
    changes to the simulator do not change it."""
    g1, g2, g3 = 0.1, 0.5, 1.0
    s1 = s2 = s3 = 0.0
    x = 0.03
    v = 1.0
    vsum = 0.0
    runmax = 0.0
    for _ in range(240):
        s3 = s3 + (s2 - g3 * v)
        s2 = s2 + (s1 - g2 * v)
        s1 = s1 + (x - g1 * v)
        v = 1.0 if s3 >= 0.0 else -1.0
        vsum += v
        if (
            s1 > runmax or -s1 > runmax
            or s2 > runmax or -s2 > runmax
            or s3 > runmax or -s3 > runmax
        ):
            runmax = max(abs(s1), abs(s2), abs(s3))
            if runmax > 1e300:
                return True
    return False


_CIRCLE = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
_DESC = np.array([1.0, -2.1, 1.9, -0.8, 0.15])


def vector_kernel() -> float:
    """A winding sum over 4096 points of the unit circle in numpy, like the
    ``winding_oracle`` that most ``check`` queries fall back to."""
    w = np.polyval(_DESC, _CIRCLE) * np.conj(_CIRCLE) ** 4
    ratio = np.empty_like(w)
    ratio[:-1] = w[1:] * np.conj(w[:-1])
    ratio[-1] = w[0] * np.conj(w[-1])
    steps = np.angle(ratio)
    return float(np.sum(steps[np.abs(steps) < 0.5 * np.pi]))


# Each kernel's calls per calibration sample, and the time those took on
# the reference host.
KERNELS = {
    objects_kernel: (44, 2_000_000),
    integrator_kernel: (44, 2_080_000),
    vector_kernel: (6, 860_000),
}
# Kernels for the analytic layers, which mix pure-Python polynomial code
# with numpy calls.
ANALYTIC = (objects_kernel, vector_kernel)


class Sampler:
    """Timer-driven samples of every kernel, and the scaling they imply.

    Use as a context manager around in-process timed work.  Times and
    time stamps are thread CPU nanoseconds (``clock``); ``stolen`` counts
    those the samples themselves took, so callers can subtract them from
    what they time.
    """

    clock = staticmethod(time.thread_time_ns)

    def __init__(self):
        self.times: list[int] = []
        self.ref = {kernel: [] for kernel in KERNELS}
        self.stolen = 0

    def sample(self, *_):
        clock = self.clock
        t_start = clock()
        for kernel, series in self.ref.items():
            t0 = clock()
            for _ in range(KERNELS[kernel][0]):
                kernel()
            series.append(clock() - t0)
        self.times.append((t_start + clock()) // 2)
        self.stolen += clock() - t_start

    def __enter__(self):
        self.sample()
        self._old = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._old)
        self.sample()
        return False

    def scale(self, start: int, end: int, ns: float, kernels=ANALYTIC) -> float:
        """Reference-time length of ``ns`` nanoseconds of work done between
        ``start`` and ``end``, calibrated by the geometric mean of what
        ``kernels`` imply."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        log_factor = 0.0
        for kernel in kernels:
            # At least the two samples around the interval, two more either
            # side to ride out a sample that was itself interrupted.
            window = sorted(self.ref[kernel][max(0, lo - 2): hi + 2])
            # Samples come at equal steps of CPU time, so their mean weighs
            # the host's fast and slow spells as the operation met them; the
            # outer tenth either side (at least one sample) is dropped as
            # outliers.
            cut = max(1, len(window) // 10) if len(window) > 2 else 0
            mean = statistics.fmean(window[cut: len(window) - cut])
            log_factor += math.log(KERNELS[kernel][1] / mean)
        return ns * math.exp(log_factor / len(kernels))

    def median_ms(self) -> float:
        return statistics.median(self.ref[objects_kernel]) / 1e6


def spawn_reference(env: dict, cwd) -> int:
    """Raw nanoseconds of one reference process start."""
    t0 = time.perf_counter_ns()
    subprocess.run(SPAWN_REFERENCE, env=env, cwd=cwd, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter_ns() - t0


def spawn_scale(ns: int, ref_ns: int) -> float:
    return ns * SPAWN_NOMINAL_NS / ref_ns
