"""Machine-speed calibration for the benchmark's timings.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds to minutes: the same ``figures`` pass took from 2.8 s to 5.8 s
within five minutes on a 2-vCPU Xeon VM, with CPU time equal to wall
time and no steal time, so neither a longer run nor CPU time removes
it.  A ``Sampler`` therefore times a short fixed ``kernel`` every
``INTERVAL_S`` from a timer signal while the commands run.  A command's
time, less the sampler's own time, is divided by the mean kernel time
over the command and multiplied by ``REFERENCE_S``, the kernel's time
on that VM when quiet, so it reads as seconds on the quiet machine.
On the VM above this cut the spread of single ``archive`` passes from
21% to 4.5%.  The kernel does not use ``psl``, so no change to the
program moves it.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0025
INTERVAL_S = 0.1
MIN_SAMPLES = 3

_X = np.linspace(-3.0, 3.0, 105)
_MU = np.array([-1.0, 0.5, 1.0])
_W = np.array([0.2, 0.3, 0.5])


def kernel() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python
    arithmetic, the kind of work ``psl`` spends its time on."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(200):
        z = (_X[:, None] - _MU) / 0.7
        acc += float(np.sum(np.exp(-0.5 * z * z) @ _W))
        for j in range(30):
            acc += math.sqrt(i + j) * 0.5
    return time.perf_counter() - t0


class Sampler:
    """Times ``kernel`` every ``INTERVAL_S`` of wall time while active.

    The handler runs in the main thread between bytecodes and only
    appends to its own lists, so it never interleaves with other state.
    """

    def __init__(self):
        self.starts = []
        self.durations = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.durations.append(kernel())
        self.starts.append(t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def calibrated(self, t0: float, t1: float) -> tuple:
        """(net wall, calibrated seconds) of the interval [t0, t1].

        Net wall leaves out the samples taken inside the interval.  A
        short interval borrows the nearest samples on either side so
        its speed rests on at least ``MIN_SAMPLES`` of them.
        """
        n = min(len(self.starts), len(self.durations))
        starts, durations = self.starts[:n], self.durations[:n]
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        net = (t1 - t0) - sum(durations[i:j])
        while j - i < MIN_SAMPLES and (i > 0 or j < n):
            i, j = max(0, i - 1), min(n, j + 1)
        if i == j:
            raise RuntimeError("no speed samples were taken")
        return net, net * REFERENCE_S / statistics.fmean(durations[i:j])
