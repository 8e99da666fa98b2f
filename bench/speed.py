"""Calibration of timings against a fixed probe, for hosts whose speed drifts.

On a shared host the same round of work can take anywhere from 1x to 2x
its best time, in phases that last minutes, because other tenants load the
physical cores under our virtual ones.  A probe, a fixed computation of the
same kind as the program's (small complex matrix-vector products, phase
maps and Python-level loop overhead), runs from a 100 Hz timer signal while
the program runs, so it meets the same contention.  Dividing a round's time
by the probe's mean duration during the round, and multiplying by the
probe's nominal duration, gives the round's time on a host where the probe
takes ``NOMINAL_PROBE_S``.  The probe is independent of irsbf, so a change
to the program moves the calibrated time as much as the raw one.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

NOMINAL_PROBE_S = 1e-4
PERIOD_S = 0.01


class SpeedProbe:
    """Samples the probe's duration, on a timer while entered, or on demand."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._m = rng.standard_normal((4, 51)) + 1j * rng.standard_normal((4, 51))
        self._v = np.exp(1j * rng.standard_normal(51))
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        x = self._v
        for _ in range(8):
            y = self._m @ x
            x = np.exp(1j * np.angle(self._m.conj().T @ (y / (np.abs(y) ** 2 + 1.0))))
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def paused(self):
        """Stop the timer, for a region that waits on another process."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def mark(self) -> int:
        """Take a sample now and return the index that starts a window."""
        self.sample()
        return len(self.samples) - 1

    def close(self, first: int) -> tuple[float, float]:
        """Take a sample now; return the window's (probe seconds inside it, scale).

        The probe seconds are those of the samples taken between the two
        ends, which the timed region has to give back; the scale turns the
        region's seconds into nominal seconds.
        """
        self.sample()
        window = self.samples[first:]
        return sum(window[1:-1]), NOMINAL_PROBE_S / statistics.fmean(window)
