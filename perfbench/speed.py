"""Machine-speed reference: a fixed kernel sampled while the workload runs.

The benchmark runs on a few vCPUs of a shared host whose speed changes by up
to 2x for seconds to minutes at a time, for all code in the process alike.
A run therefore samples a fixed kernel every ``PERIOD`` seconds
from a ``SIGALRM`` handler, and reports each timed interval scaled to the
speed at which the kernel takes ``REF_S``:

    scaled = raw * mean(REF_S / kernel time of the samples around the interval)

A change to heisgeo moves the raw time and not the kernel, so it moves the
scaled time by the same share.  ``clock`` leaves out the time spent in the
handler, so the samples add nothing to a measured interval.

Set-up time is scaled the same way by a reference import instead of the
kernel; ``python3 perfbench/speed.py`` times that import once.
"""

from __future__ import annotations

import gc
import importlib
import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_S = 0.0017    # seconds; about the kernel's fastest time on a 2-vCPU Intel Xeon host
PERIOD = 0.2      # seconds between samples

# Set-up is mostly importing, which a machine slowdown moves less than it
# moves the kernel, so set-up is scaled by a reference import instead: a
# fresh interpreter running this file imports these standard-library
# modules, which neither heisgeo, numpy nor the benchmark load.
REFERENCE_MODULES = ("asyncio", "email.mime.multipart", "email.parser", "xml.dom.minidom",
                     "sqlite3", "unittest", "logging.handlers", "csv", "difflib",
                     "configparser", "http.client")
REF_IMPORT_S = 0.055   # seconds; about the reference import's fastest time on the same host


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)


def kernel():
    """Fixed pure-Python work in the style of heisgeo's scalar paths: small
    objects, attribute access, short list loops and float arithmetic."""
    acc = _Dual(1.0, 0.0)
    s = 0.0
    row = [0.0] * 5
    for i in range(150):
        for k in range(5):
            row[k] = row[k] * 0.5 + i * 0.1
        for j in range(20):
            acc = acc.mul(_Dual(1.0000001, j * 1e-9))
            s += (i * 0.5 + j) % 3.0
    return s + acc.a + sum(row)


def sample():
    """``REF_S / kernel time``: the kernel runs twice with the garbage
    collector off and the faster run counts, so that an interruption does
    not read as slowness."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            t = perf_counter()
            kernel()
            best = min(best, perf_counter() - t)
    finally:
        if collecting:
            gc.enable()
    return REF_S / best


class Sampler:
    """Samples ``kernel`` every ``PERIOD`` seconds of wall time while on."""

    def __init__(self):
        self.times = []     # clock time at the start of each sample
        self.ratios = []    # REF_S / kernel time of each sample
        self.spent = 0.0    # seconds spent in the handler
        self._busy = False

    def sample(self):
        t0 = perf_counter()
        ratio = sample()
        self.times.append(t0 - self.spent)   # in ``clock`` time
        self.ratios.append(ratio)
        self.spent += perf_counter() - t0

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.sample()
        finally:
            self._busy = False

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def clock(self):
        """``perf_counter`` minus the time spent in samples so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:
                return now - spent

    def factor(self, t0, t1):
        """Mean ``REF_S / kernel time`` of the samples taken from one period
        before ``t0`` to one period after ``t1`` (``clock`` times), or the
        ratio of the last sample before that window when it holds none."""
        lo = bisect_left(self.times, t0 - PERIOD)
        hi = bisect_right(self.times, t1 + PERIOD)
        if hi > lo:
            return sum(self.ratios[lo:hi]) / (hi - lo)
        i = min(max(lo, 1), len(self.times)) - 1
        return self.ratios[i]


def reference_import():
    """Seconds to import ``REFERENCE_MODULES``; call in a fresh interpreter."""
    t0 = perf_counter()
    for name in REFERENCE_MODULES:
        importlib.import_module(name)
    return perf_counter() - t0


if __name__ == "__main__":
    print(repr(reference_import()))
