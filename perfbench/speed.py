"""Correction of wall time for the machine's momentary speed.

On a shared host the same seeded batch can take 1.7x longer in one
few-second stretch than in the next, because other tenants share the
physical cores.  A fixed calibration kernel (small numpy scans, and tuple
keys hashed into a dict: the mix the package's hot paths run) slows down by
nearly the same factor.  ``SpeedProbe`` runs the kernel on a wall-clock
timer while batches run and converts each batch's wall time to reference
seconds: the time the batch would take on a machine that runs the kernel in
``KERNEL_REF_S``.  The kernel does not touch the package, so a change to the
program moves corrected times in the same proportion as raw ones.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import numpy as np

# Corrected seconds are seconds on a machine that runs the kernel in 1 ms
# (an Intel Xeon vCPU with its host partly busy runs it in 0.85-1.6 ms).
KERNEL_REF_S = 0.001
PROBE_INTERVAL_S = 0.05

_SYMBOLS = np.random.default_rng(0).integers(0, 3, 4096).astype(np.uint8)
_WORDS = [bytes([i, (7 * i) % 256]) for i in range(64)]


def kernel_seconds() -> float:
    """Run the calibration kernel once, garbage collector paused; its wall time."""
    paused = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(8):
            idx = np.nonzero(_SYMBOLS == i % 3)[0]
            tuple(int(j) for j in idx[:200])
            np.packbits(_SYMBOLS[idx[:512]] & 1).tobytes()
        table: dict = {}
        for i in range(800):
            key = (i % 5, _WORDS[i % 64], (i % 3, _WORDS[(5 * i) % 64]))
            table[key] = table.get(key, 0.0) + 0.5
        return time.perf_counter() - t0
    finally:
        if paused:
            gc.enable()


class SpeedProbe:
    """Samples the kernel every ``PROBE_INTERVAL_S`` while active (main thread only)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(kernel_seconds())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _slowdown_near(self, t: float) -> float:
        """Mean kernel time of the samples just before and just after ``t``."""
        i = bisect.bisect_left(self.starts, t)
        near = self.seconds[max(i - 1, 0) : i + 1] or [kernel_seconds()]
        return statistics.fmean(near) / KERNEL_REF_S

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end], less the probe's own samples, in reference seconds.

        The samples inside the interval cut it into segments; each segment
        is divided by the slowdown the samples at its two ends read.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        edges = [start, *self.starts[lo:hi], end]
        probe = [0.0, *self.seconds[lo:hi]]
        return sum(
            (b - a - k) / self._slowdown_near((a + b) / 2)
            for a, b, k in zip(edges, edges[1:], probe)
        )


def slowdown_now(samples: int = 5) -> float:
    """Current slowdown against the reference machine, from a few kernel runs."""
    return statistics.median(kernel_seconds() for _ in range(samples)) / KERNEL_REF_S
