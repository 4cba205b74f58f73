"""Host-speed sampling: wall seconds on a drifting shared host, turned into
seconds at a fixed reference speed.

The benchmark runs on a few vCPUs of a shared machine whose speed drifts by
tens of percent within seconds; CPU time drifts with wall time, so process
time does not help.  ``HostSpeed`` times a small fixed piece of pure-Python
exact arithmetic (``reference``) on a wall-clock interval timer.  The
samples run in the measured process itself, between the library's
bytecodes, so they see the same host as the work around them.  The work's
wall seconds less the seconds spent in samples (``now``), times the mean
reference rate over the same run, is its cost in reference calls;
``REF_S`` turns that back into seconds at a fixed speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

_clock = time.perf_counter

# seconds one reference() takes at the reference speed (the median on a
# 2-vCPU VM, Python 3.11); it only sets the scale of the reported seconds
REF_S = 1.5e-4

_MATRIX = tuple(tuple(Fraction(3 * i + j + 1, 7 + i * j) + (5 if i == j else 0)
                      for j in range(4)) for i in range(4))


def reference():
    """Fraction elimination of a fixed 4x4 matrix: the same work at every
    call, written here so that no change to the library moves it."""
    rows = [list(r) for r in _MATRIX]
    det = Fraction(1)
    for c in range(4):
        pivot = rows[c][c]
        det *= pivot
        for r in range(c + 1, 4):
            f = rows[r][c] / pivot
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return det


def rate(calls):
    """Reference calls per second over ``calls`` calls in a row."""
    t0 = _clock()
    for _ in range(calls):
        reference()
    return calls / (_clock() - t0)


def bracketed(fn, calls=150):
    """Call ``fn`` once and return its wall seconds at the reference speed,
    taking the host's speed as the mean reference rate just before and just
    after the call.  For windows too short for ``HostSpeed``'s samples."""
    rate(calls // 8)            # warm the reference's code
    before = rate(calls)
    t0 = _clock()
    fn()
    seconds = _clock() - t0
    return seconds * REF_S * (before + rate(calls)) / 2


class HostSpeed:
    """While entered, time ``repeats`` reference calls every ``period``
    wall seconds (and once on entry and on exit)."""

    def __init__(self, period=0.1, repeats=20):
        self.period = period
        self.repeats = repeats
        self.spent = 0.0        # wall seconds inside samples
        self.rates = []         # reference calls per second, one per sample
        self._busy = False
        self._previous = None

    def _sample(self, signum=None, frame=None):
        if self._busy:          # a late timer tick inside a sample
            return
        self._busy = True
        t0 = _clock()
        self.rates.append(rate(self.repeats))
        self.spent += _clock() - t0
        self._busy = False

    def now(self):
        """Wall seconds less the seconds spent in samples."""
        while True:
            spent = self.spent
            t = _clock()
            if spent == self.spent:
                return t - spent

    def scale(self, start=0, stop=None):
        """Reference seconds per host second, over ``rates[start:stop]``
        (over all samples when that slice is empty)."""
        return REF_S * statistics.fmean(self.rates[start:stop] or self.rates)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False
