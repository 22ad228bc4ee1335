"""The machine's current speed, sampled between and inside jobs.

On a shared host the same job can run a third slower for minutes at a
time, so the fastest of a job's runs in one process still moves from run
to run.  A fixed pure-Python kernel (Gauss-Jordan elimination over
``Fraction``, the arithmetic the workloads spend their time in; it calls
no ``axial`` code) is timed every ``EVERY_S`` seconds between jobs, and
inside a job every ``EVERY_S`` seconds of CPU time from a ``SIGVTALRM``
interval timer; job time excludes the time spent sampling.  A job's time
at reference speed is its latency times ``REF_S`` over the mean of the
samples taken in it and the two that bracket it: what it would take on a
machine where one sample takes ``REF_S`` seconds.  A change to the program
moves it as it moves the latency; a slow phase of the host moves job and
samples alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.004  # one sample on an idle core of the 2-core reference sandbox
EVERY_S = 0.1
REPS = 3
ROWS, COLS = 8, 9
MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + 2 * j) % 4) for j in range(COLS)] for i in range(ROWS)]


def kernel():
    """Reduced row echelon form of MATRIX; returns its rank."""
    m = [row[:] for row in MATRIX]
    r = 0
    for c in range(COLS):
        p = next((i for i in range(r, ROWS) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(ROWS):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def sample():
    start = time.perf_counter()
    for _ in range(REPS):
        kernel()
    return time.perf_counter() - start


class Clock:
    """Speed samples of one process.  Around each job call ``job_start``
    and ``job_end``, and time the job with ``now``; ``close`` takes the
    sample after the last job, then ``at_ref`` scales a job's latency."""

    def __init__(self):
        self.samples = [sample()]
        self._last = time.monotonic()
        self.paused = 0.0  # time spent sampling inside jobs, so far
        signal.signal(signal.SIGVTALRM, self._in_job)

    def _take(self):
        self.samples.append(sample())
        self._last = time.monotonic()

    def _in_job(self, _signum, _frame):
        start = time.perf_counter()
        self._take()
        self.paused += time.perf_counter() - start

    def now(self):
        """A job's clock: ``time.perf_counter`` less the sampling inside jobs."""
        return time.perf_counter() - self.paused

    def job_start(self):
        """Returns the index of the last sample before the job."""
        if time.monotonic() - self._last >= EVERY_S:
            self._take()
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)
        return len(self.samples) - 1

    def job_end(self):
        """Returns the index of the last sample taken in the job (the one
        before it if none was)."""
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        return len(self.samples) - 1

    def close(self):
        self._take()

    def at_ref(self, latency_s, first, last):
        """``latency_s`` of a job that ran after sample ``first`` and took
        the samples up to ``last``, scaled to reference speed by the mean
        of those and the next one."""
        window = self.samples[first:last + 2]
        return latency_s * REF_S / (sum(window) / len(window))


def ref_scale(count=9):
    """The factor that scales a time measured just before to reference
    speed, from the median of ``count`` samples."""
    return REF_S / statistics.median(sample() for _ in range(count))
