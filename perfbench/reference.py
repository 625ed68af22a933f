"""Machine speed sampled during a pass, from a fixed reference slice.

On the shared 2-vCPU host this benchmark was written on, the speed of the
machine drifts by up to 1.5x within minutes (CPU steal, busy sibling
hyperthreads), in CPU time as much as in wall time, so that seconds
measured a few minutes apart disagree by more than any usable bound. A
reference timed only before and after a pass misses drift during it.

While a Sampler is active, a timer interrupts the pass every INTERVAL_S
seconds and runs one slice of a fixed computation in the main thread: a
Python loop over small numpy windows, the same kind of work as the SLIC
assignment loop and the optimizer's per-iteration numpy calls. The slices
see the machine as the pass sees it at that moment. The pass's CPU time
minus the slices', divided by the mean CPU time of one slice, gives CPU
time in units of the machine's current speed, which stays steady where
seconds do not.

Slice CPU time is that of the main thread alone, so KD-tree worker threads
that run while the handler does are not counted in it. The slice's inputs
are fixed and no bevss code runs in it, so a change to bevss cannot move
it. The timer's handler runs only between Python bytecodes of the main
thread, never inside a native call.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.1
_IMAGE = np.random.default_rng(20240121).normal(size=(64, 64, 2))


def _slice():
    best = np.full(_IMAGE.shape[:2], np.inf)
    for y in range(0, 48, 4):
        for x in range(0, 48, 4):
            win = _IMAGE[y : y + 16, x : x + 16] - _IMAGE[y, x]
            dist = (win * win).sum(axis=2)
            b = best[y : y + 16, x : x + 16]
            closer = dist < b
            b[closer] = dist[closer]
    return best


class Sampler:
    """Context manager: runs and times reference slices while active."""

    def __init__(self):
        self.walls = []  # wall time of each slice
        self.cpus = []  # main-thread CPU time of each slice

    def _tick(self, signum, frame):
        c0, t0 = time.thread_time(), time.perf_counter()
        _slice()
        self.walls.append(time.perf_counter() - t0)
        self.cpus.append(time.thread_time() - c0)

    def __enter__(self):
        _slice()  # first-call costs stay out of the samples
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def totals(self):
        """(wall_s, cpu_s) spent in slices so far."""
        return sum(self.walls), sum(self.cpus)

    def slice_cpu(self):
        """Mean CPU time of one slice, or nan before the first."""
        return sum(self.cpus) / len(self.cpus) if self.cpus else float("nan")
