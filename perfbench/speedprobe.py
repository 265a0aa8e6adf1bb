"""Rescale a span's wall time to a reference core speed.

The benchmark runs on shared hosts whose cores change speed every few
seconds, by up to a factor of two, as other tenants load them.  A core's
speed at a moment is measured here by timing a fixed probe: a mix of
bytecode, `compile` and small and medium numpy work that never touches
gerbetool.  While a span runs, a one-shot SIGALRM timer, re-armed after
each probe, interrupts the main thread every PERIOD_S and times the probe;
one more probe runs just before the span and one just after it.

The span's own time is the sum of the gaps between consecutive probes.
Each gap is scaled by REF_S over the probe durations at its two ends
(their mean inverse), so a stretch run on a slow core counts for what it
would have taken on a core where the probe takes REF_S.  Signals reach
Python only between bytecodes, so a long numpy call delays the next probe;
its gap is then scaled by the probes on either side of it.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.2
REF_S = 0.004

_SOURCE = "def f(x):\n    return [i * x for i in range(10) if i % 3]\n" * 8
_SYM = np.add.outer(np.arange(8.0), np.arange(8.0))
_GRID = np.linspace(0.0, 1.0, 20000)


def probe():
    """Seconds the fixed probe takes on the current core."""
    start = time.perf_counter()
    compile(_SOURCE, "<probe>", "exec")
    table = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    for _ in range(30):
        np.linalg.eigvalsh(_SYM)
    for _ in range(4):
        (np.sin(_GRID) * _GRID).sum()
    return time.perf_counter() - start


class SpeedProbe:
    """Context manager that probes core speed before, during and after a span."""

    def __enter__(self):
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self):
        start = time.perf_counter()
        self.samples.append((start, probe()))

    def _on_alarm(self, signum, frame):
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def _gaps(self):
        pairs = zip(self.samples, self.samples[1:])
        return [(t1 - t0 - p0, p0, p1) for (t0, p0), (t1, p1) in pairs]

    def wall_s(self):
        """The span's wall time with the probes inside it taken out."""
        return sum(gap for gap, _, _ in self._gaps())

    def ref_s(self):
        """The span's wall time at the reference core speed."""
        return sum(gap * REF_S * (1 / p0 + 1 / p1) / 2 for gap, p0, p1 in self._gaps())

    def probes(self):
        """Number of probes inside the span."""
        return len(self.samples) - 2
