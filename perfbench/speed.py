"""Host-speed samples, for timings that do not drift with the host.

The reference machine is a shared VM whose CPU speed drifts by up to 2x over
tens of seconds: identical calls take 1.0 s in one minute and 2.0 s in the
next, and process CPU time drifts with them.  A median over a 30 s window
cannot remove that, so the timed calls carry their own speed gauge.

While a scenario runs, a SIGALRM interval timer interrupts it every
``TICK_S`` seconds of wall time, and the handler times one fixed sample of
work: a pure-Python loop and a few small numpy calls, the two kinds of work a
step is made of.  The handler runs in the main thread between bytecodes, so
nothing runs beside the program.  An interval of the program is reported as
its wall time less the samples inside it, scaled by ``REFERENCE_SAMPLE_S``
over the mean sample time within it: the seconds it would have taken at the
speed where one sample takes ``REFERENCE_SAMPLE_S``.  A change to the program
moves the interval but not the samples, so it shows in full.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

TICK_S = 0.05
# Sample time on the reference machine (2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6) when the host is fast; scaled seconds read close to its
# wall seconds at that speed.
REFERENCE_SAMPLE_S = 0.7e-3
MIN_SAMPLES = 3          # an interval with fewer borrows its nearest neighbours

_VEC = np.linspace(0.0, 1.0, 64)


def _sample() -> None:
    s = 0
    for i in range(6000):
        s += i * i % 7
    x = _VEC
    for _ in range(75):
        x = np.sin(x) * 0.5 + 1e-4 * x.dot(_VEC)


class SpeedSampler:
    """Context manager: samples host speed while the block runs."""

    def __init__(self) -> None:
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        _sample()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.starts, self.durations = array("d"), array("d")
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # A block too short for MIN_SAMPLES ticks is topped up after it ends.
        while len(self.durations) < MIN_SAMPLES:
            self._handler(None, None)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds the interval [t0, t1) would take at reference speed."""
        s = np.frombuffer(self.starts)
        d = np.frombuffer(self.durations)
        inside = (s >= t0) & (s < t1)
        busy = float(d[inside].sum())
        if inside.sum() >= MIN_SAMPLES:
            mean = d[inside].mean()
        else:
            nearest = np.argsort(np.abs(s - 0.5 * (t0 + t1)))[:MIN_SAMPLES]
            mean = d[nearest].mean()
        return (t1 - t0 - busy) * REFERENCE_SAMPLE_S / float(mean)
