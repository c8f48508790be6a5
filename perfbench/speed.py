"""Machine-speed reference for the gridmc benchmark.

On a shared virtual machine the CPU time of the same computation drifts by
30% or more over minutes: neighbouring guests contend for the host's cores
and caches, and the share of time spent in the slow state changes from one
minute to the next.  A minimum or low percentile does not remove it, because
the slow state lasts longer than a whole run.

``SpeedReference`` measures the machine's speed at the same moments as the
program.  A CPU-time interval timer interrupts the program every
``INTERVAL_S`` CPU seconds, and the signal handler runs a fixed reference
kernel (dense normal-equation solves and a dictionary loop, the mix of the
ADMM updates) and times it.  The kernel is independent of ``gridmc``, so no
change to the program can move it.

The kernel runs on cold caches: in the ``INTERVAL_S`` before each sample the
program replaces the kernel's 0.36 MB of data, and that reload is where the
kernel feels contention for the host's caches and memory, as the program
does.  Timed on warm caches, the kernel tracked the program's slowdowns
worse: five-run spreads on random128-t5-a5 rose from 0.02 to 0.08.  How
cold does not depend much on the program: at adjacent moments the kernel's
mean inside feeder33 (a small working set) and inside random128 (25 MB of
area maps) differed by 5-8%, against 1.5-1.7 times its back-to-back time.

``clock()`` is the CPU clock of the calling thread minus the kernel's CPU
time, so spans timed with it exclude the kernel.  It is a thread clock
because, while a process CPU timer is armed, Linux serves the process CPU
clock at scheduler-tick granularity; the program is single-threaded with
BLAS pinned to one thread, so the main thread's clock counts all its work.

A time measured with ``clock()`` over an interval, multiplied by
``factor()`` over the same interval, is in reference seconds: the time it
would take on a machine where one kernel takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.1  # program CPU seconds between two kernel samples
REFERENCE_S = 1.0e-3  # nominal CPU seconds of one kernel
NEARBY = 4  # samples on each side that set the speed at one moment
KERNEL_SIZES = (40, 80, 120)
KERNEL_SEED = 20191011


class SpeedReference:
    """Interleaves the reference kernel with the program and keeps its
    timings."""

    def __init__(self):
        rng = np.random.default_rng(KERNEL_SEED)
        self._mats = [(rng.standard_normal((2 * n, n)), rng.standard_normal(2 * n))
                      for n in KERNEL_SIZES]
        self.kernel_s = 0.0  # CPU seconds spent in the kernel so far
        self.samples: list[float] = []
        self.at: list[float] = []  # clock() when each sample ran

    def _kernel(self) -> float:
        acc = 0.0
        for a, y in self._mats:
            h = a.T @ a + np.eye(a.shape[1])
            acc += float(np.linalg.norm(np.linalg.solve(h, a.T @ y)))
            table = {}
            for i in range(200):
                table[i] = i * acc
        return acc

    def _on_signal(self, signum, frame):
        self.sample()

    def sample(self) -> None:
        """Time one kernel."""
        start = time.thread_time()
        self._kernel()
        elapsed = time.thread_time() - start
        self.samples.append(elapsed)
        self.at.append(start - self.kernel_s)
        self.kernel_s += elapsed

    def clock(self) -> float:
        """CPU seconds of this thread not spent in the kernel."""
        while True:
            before = self.kernel_s
            now = time.thread_time()
            if self.kernel_s == before:  # no kernel ran between the reads
                return now - before

    def quiet(self, start: float, end: float) -> bool:
        """True if no kernel ran between these two ``clock()`` readings."""
        i = bisect.bisect_left(self.at, start)
        return i == len(self.at) or self.at[i] >= end

    def factor_at(self, moment: float) -> float:
        """Reference seconds per measured second around one ``clock()``
        reading: the mean of the ``NEARBY`` samples before and after it.

        The machine changes speed within an operation, so a short span
        scaled by the whole operation's factor reads fast or slow with the
        state it ran in; scaled by the samples around it, it does not."""
        i = bisect.bisect_left(self.at, moment)
        window = self.samples[max(0, i - NEARBY):i + NEARBY]
        return REFERENCE_S / statistics.fmean(window) if window else self.factor(0)

    def mark(self) -> int:
        """Position in the sample list, to pass to ``factor`` later."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per measured second over the samples taken
        since ``mark()`` returned ``since``, or over all samples if none
        was taken since."""
        if not self.samples:
            self.sample()
        window = self.samples[since:] or self.samples
        return REFERENCE_S / statistics.fmean(window)

    @contextmanager
    def running(self):
        """Sample the kernel for the duration of the block."""
        previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
