"""Measure how fast the machine runs while an operation runs.

On a shared host the same operation takes 10-40% more or less CPU time
from one second to the next (frequency changes, other guests on sibling
hardware threads and on the memory bus). Sampler interrupts the measured
process every INTERVAL_S of its CPU time (SIGPROF) and times a fixed piece
of Python work there. An operation's time is then reported as its CPU
time, less the samples' own time, times NOMINAL_S over the mean sample
time during that operation: the time it would take on a machine where one
sample takes NOMINAL_S. The samples do not touch rrdid, so a change to
rrdid moves the scaled times as it moves the raw ones.

Measured on one 2-vCPU host, the coefficient of variation of single
operations was 13.8% raw and 5.5% scaled for estimate-poisson-large, and
14.7% and 7.4% for estimate-multinomial. Timing a separate kernel after
each operation instead tracked the host's speed too coarsely to help the
longer operations.
"""

from __future__ import annotations

import signal
import time
from array import array

# CPU seconds of one sample on the machine that recorded seed_commit.json;
# it only sets the unit of the scaled times
NOMINAL_S = 0.0003
INTERVAL_S = 0.005
CAPACITY = 1 << 16


def _work():
    total = 0.0
    for i in range(3000):
        total += i * 0.5
    return total


class Sampler:
    """SIGPROF sampling of the process's current speed.

    clock() is CPU time less the time spent in samples, so spans
    and operations timed with it leave the sampling out. Sample times are
    kept in preallocated C arrays: a Python float kept alive from inside an
    operation would pin the allocator arena it landed in, which raised the
    peak memory of estimate-poisson-large by a third.
    """

    def __init__(self):
        self._times = array("d", bytes(8 * CAPACITY))
        self._state = array("d", [0.0, 0.0])   # seconds spent sampling, samples taken

    def _sample(self, signum, frame):
        start = time.thread_time()
        _work()
        elapsed = time.thread_time() - start
        state = self._state
        state[0] += elapsed
        taken = int(state[1])
        if taken < CAPACITY:
            self._times[taken] = elapsed
            state[1] = taken + 1

    def start(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)

    def clock(self):
        # the main thread's CPU clock: with a profiling timer armed, the
        # process CPU clock only advances at scheduler ticks. The program
        # runs in this one thread (BLAS is pinned to one thread). A sample
        # landing between the two reads would skew the difference.
        while True:
            spent = self._state[0]
            now = time.thread_time()
            if spent == self._state[0]:
                return now - spent

    def take(self):
        """Mean sample time since the last take (None if no sample fell)."""
        taken = int(self._state[1])
        self._state[1] = 0
        return sum(self._times[:taken]) / taken if taken else None


def scale(seconds, sample_s):
    """CPU seconds at reference speed."""
    return seconds * NOMINAL_S / sample_s
