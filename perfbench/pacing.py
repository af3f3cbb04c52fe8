"""Host-speed calibration, so timings from a shared machine compare.

On a machine that shares its cores with other tenants, the speed of the
same Python code drifts by a factor of up to 1.8 within minutes. A
:class:`Pacer` measures that drift while the workload runs: a timer signal
interrupts the workload every PERIOD seconds, and the handler times three
small stdlib-only loops (interpreter dispatch on tuples and dicts, big-int
and Fraction arithmetic, allocation with sort and json). The handler's own
time is kept in ``stolen``; :meth:`Pacer.time` takes it out of a timing.

:meth:`Pacer.calibrate` scales the seconds of an interval by the host's
speed around it: for each loop, its reference time (``REFERENCE``) over the
median of its samples within WINDOW seconds of the interval, and the
geometric mean of the three. A calibrated second is the time the interval
would take on a host that runs the loops in their reference times. The
loops use no library code, so a change to the library moves calibrated
seconds as it moves wall seconds, but for one effect: each loop runs with
the cache the workload left, which is what lets it follow contention for
the host's memory system too. So the factor depends a little on the
workload: its median over ten runs ranged from 1.2 (surface) to 1.5
(rerun). Timing the loops warm gave about 1.25 on every workload but
followed the host's drift less closely. A change that alters what a
workload keeps in cache can move the factor by a part of that range.
"""

from __future__ import annotations

import gc
import json
import math
import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

PERIOD = 0.1
WINDOW = 0.5
MIN_SAMPLES = 5


def _dispatch():
    counts = {}
    acc = 0
    for i in range(600):
        t = (i % 7, i * 3 % 11, -i % 5)
        counts[t] = counts.get(t, 0) + 1
        acc += sum(a * b for a, b in zip(t, (2, -1, 3)))
    return acc


def _bigint():
    f = Fraction(0)
    for k in range(1, 40):
        f += Fraction(k, 2 * k + 1)
    x, m, g = 3 ** 200, 5 ** 210, 2 ** 300 - 1
    for k in range(200):
        x = (x * 7 + k) % m
        math.gcd(x, g)
    return f


def _alloc():
    rows = [(i * 7919 % 1000, -i, str(i)) for i in range(400)]
    rows.sort()
    return len(json.loads(json.dumps(rows)))


LOOPS = (_dispatch, _bigint, _alloc)
# Median seconds of each loop inside the handler while the workloads ran,
# on a 2-vCPU shared x86-64 host with Python 3.11.7.
REFERENCE = (0.00096, 0.00101, 0.00079)


class Pacer:
    def __init__(self):
        self.at = array("d")
        self.samples = tuple(array("d") for _ in LOOPS)
        self.stolen = 0.0
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # so even the shortest run has a sample
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # the loops free all they allocate; keep the heap out
        try:
            for loop, out in zip(LOOPS, self.samples):
                a = perf_counter()
                loop()
                out.append(perf_counter() - a)
        finally:
            if collecting:
                gc.enable()
        self.at.append(t0)
        self.stolen += perf_counter() - t0

    def factor(self, t0, t1):
        """Reference speed over the host's speed around [t0, t1]."""
        at, w = self.at, WINDOW
        while True:
            lo, hi = bisect_left(at, t0 - w), bisect_right(at, t1 + w)
            if hi - lo >= MIN_SAMPLES or hi - lo == len(at):
                break
            w *= 2
        logs = (math.log(ref / statistics.median(s[lo:hi]))
                for ref, s in zip(REFERENCE, self.samples))
        return math.exp(sum(logs) / len(LOOPS))

    def calibrate(self, t0, t1, seconds):
        return seconds * self.factor(t0, t1)

    def time(self, fn):
        """fn() and its (start, end, seconds), where seconds leaves out the
        handler's time."""
        stolen = self.stolen
        t0 = perf_counter()
        result = fn()
        t1 = perf_counter()
        return result, (t0, t1, t1 - t0 - (self.stolen - stolen))
