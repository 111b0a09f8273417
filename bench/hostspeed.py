"""Host-speed normalisation of measured times.

The machines this benchmark runs on are shared: over seconds to minutes the
same single-threaded code runs up to 1.7 times slower and back, while steal
time stays near zero, so neither medians nor CPU time remove it. A fixed
calibration slice (small NumPy kernels plus a pure-Python loop, the mix
tokmoe's own code has) is therefore timed all through each measurement, and
a measured time ``w`` is reported as ``w * mean(NOMINAL_SLICE_S / d_i)`` over
the slices ``d_i`` taken during it: seconds on a host whose slice takes
``NOMINAL_SLICE_S``. ``NOMINAL_SLICE_S`` is a fixed constant; changing it
rescales every recorded time.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Median slice time on the reference host in its quiet state. Never change it:
# every recorded figure is expressed relative to it.
NOMINAL_SLICE_S = 0.0015
SAMPLE_INTERVAL_S = 0.05

clock = time.perf_counter

_rng = np.random.default_rng(0)
_SMALL = _rng.uniform(-0.1, 0.1, size=(56, 128))
_X = _rng.uniform(-0.1, 0.1, size=56)
_WIDE = _rng.uniform(-0.1, 0.1, size=(150, 600))
_Y = _rng.uniform(-0.1, 0.1, size=150)


def calibration_slice() -> tuple[float, float]:
    """Run the fixed calibration kernel once; return its (start, end)."""
    start = clock()
    for _ in range(60):
        z = np.tanh(_X @ _SMALL)
        e = np.exp(z - z.max())
        e /= e.sum()
    for _ in range(4):
        np.outer(_Y, _Y @ _WIDE)
    value = 0xCBF29CE484222325
    for byte in range(3000):
        value = ((value ^ (byte & 255)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return start, clock()


def speed_factor(slices: list[tuple[float, float]]) -> float:
    """Mean of NOMINAL_SLICE_S / duration over the slices: 1 on the reference host."""
    return sum(NOMINAL_SLICE_S / (end - start) for start, end in slices) / len(slices)


class Sampler:
    """Takes a calibration slice every SAMPLE_INTERVAL_S of wall time.

    The slices run in a SIGALRM handler, so they interleave with the
    measured code on its own thread; each slice lies wholly inside or
    outside any interval the main thread times with ``clock()``.
    """

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []
        self.on_slice = None  # called with each slice's duration
        self._previous = None

    def _take(self, signum, frame) -> None:
        start, end = calibration_slice()
        self.slices.append((start, end))
        if self.on_slice is not None:
            self.on_slice(end - start)

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def busy(self, start: float, end: float) -> float:
        """Wall time of [start, end] minus the slices taken inside it."""
        return (end - start) - sum(e - s for s, e in self.slices if start <= s and e <= end)

    def factor(self, since: float, end: float) -> float:
        """Speed factor of the slices from ``since`` to ``end``.

        Callers take a slice at ``since`` themselves, so a short interval
        still has one.
        """
        return speed_factor([(s, e) for s, e in self.slices if since <= s and e <= end])

    def normalised(self, start: float, end: float, since: float) -> float:
        return self.busy(start, end) * self.factor(since, end)
