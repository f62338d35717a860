"""Wall-clock timing scaled to a nominal core speed.

The cores of a shared VM slow down and speed up with the load of their
neighbours: on the 2-core box this benchmark was built on, the same round
took from 0.5 s to 1.1 s within an hour.  While a ``SpeedProbe`` is active,
a timer signal every SAMPLE_S runs a fixed pure-Python loop in the main
thread and records how long it took.  ``SpeedProbe.time`` reports an
interval both as wall seconds and as nominal seconds: the wall seconds
times NOMINAL_PROBE_S over the median probe time inside the interval, i.e.
what the interval would have taken with the probe running at its nominal
speed.  On that box probe times and operation times moved together
(correlation 0.95 over 80 decode operations), and nominal seconds varied a
third as much as wall seconds.
"""

import signal
import statistics
import time

clock = time.perf_counter

SAMPLE_S = 0.02
NOMINAL_PROBE_S = 1.2e-4   # the probe loop on the quiet 2-core box


def probe_loop():
    """One probe: a fixed loop of integer arithmetic and list churn."""
    t0 = clock()
    acc, xs = 0, []
    for i in range(1500):
        acc += i * i
        xs.append(acc & 255)
        if len(xs) > 64:
            xs.clear()
    return clock() - t0


class SpeedProbe:
    """Context manager that samples the core speed while it is active."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(probe_loop())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn):
        """Run ``fn``; return (its result, wall seconds, nominal seconds).
        A probe just before and just after bounds short intervals."""
        first = len(self.samples)
        self.samples.append(probe_loop())
        t0 = clock()
        out = fn()
        wall = clock() - t0
        self.samples.append(probe_loop())
        return out, wall, wall * NOMINAL_PROBE_S / self.median(first)

    def median(self, first=0):
        return statistics.median(self.samples[first:])
