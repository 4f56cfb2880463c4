"""Host-speed calibration for the timed runs.

On a shared host the speed of one virtual CPU can change by half or
more within seconds, as other tenants load the physical core under it;
CPU time moves with wall time, so it does not help.  ``Segments`` times
a fixed loop of the benchmark's own, which never calls sdlwr, before
and after every measured segment and rescales the segment to the speed
the loop saw: ``raw * REFERENCE_S / mean(loop before, loop after)``.
The result is in seconds at the speed at which the loop takes
``REFERENCE_S``.  A change to sdlwr cannot move the loop, so it moves
the calibrated figure in the same proportion as the raw one.

The benchmark process is pinned to the CPU it starts on, so the loop,
the measured segment and the child processes it starts share one CPU.
"""

from __future__ import annotations

import contextlib
import os
import time

import numpy as np

# The loop's median time on an unloaded CPU of the reference host
# (2-vCPU Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  Only a unit: it
# scales every calibrated figure by the same factor on every commit.
REFERENCE_S = 0.025


def pin_to_current_cpu():
    """Restrict this process (and the children it starts) to the CPU it
    runs on now; returns that CPU, or None where it cannot be read."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        cpu = int(fields[36])  # field 39, "processor"
        os.sched_setaffinity(0, {cpu})
        return cpu
    except (OSError, ValueError, IndexError, AttributeError):
        return None


def loop_seconds():
    """Seconds for a fixed mix of interpreted arithmetic and small numpy
    calls, the two kinds of work sdlwr's hot paths consist of."""
    a = np.linspace(0.0, 1.0, 100)
    b = a[::-1].copy()
    out = np.empty(100)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        for j in range(100):
            np.minimum(a, b, out=out)
            np.multiply(out, 0.5, out=out)
            acc += float(out[j])
        x = 0
        for j in range(2000):
            x = (x * 31 + j) % 1000003
        acc += x
    elapsed = time.perf_counter() - t0
    if acc < 0.0:  # never true; keeps the work observable
        raise AssertionError(acc)
    return elapsed


class Segments:
    """Times the segments of a workload's pass: ``with segments(): ...``.

    With ``calibrate`` a calibration loop runs after every segment (and
    once at the start), and each segment is rescaled by the loops on
    either side of it, so a pass of several segments is calibrated at
    several points of its run rather than only at its two ends.
    """

    def __init__(self, calibrate):
        self.loops = [loop_seconds()] if calibrate else None
        self._raw = []
        self._calibrated = []

    def rescale(self, raw):
        """Run one calibration loop; ``raw`` rescaled by it and the one before."""
        before = self.loops[-1]
        self.loops.append(loop_seconds())
        return raw * REFERENCE_S / (0.5 * (before + self.loops[-1]))

    @contextlib.contextmanager
    def __call__(self):
        t0 = time.perf_counter()
        yield
        raw = time.perf_counter() - t0
        self._raw.append(raw)
        if self.loops is not None:
            self._calibrated.append(self.rescale(raw))

    def take(self):
        """(raw seconds, calibrated seconds or None) of the segments since
        the last call: one pass."""
        raw = sum(self._raw)
        cal = sum(self._calibrated) if self.loops is not None else None
        self._raw, self._calibrated = [], []
        return raw, cal
