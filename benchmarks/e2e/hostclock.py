"""Wall time at a reference host speed.

The hosts this benchmark runs on switch, for seconds at a time, between
speeds about 1.5x apart (a pure-Python loop takes 0.6 ms, then 0.9 ms,
with no steal time reported), and drift by another 10 % over minutes.  Raw
wall-clock medians of the same code therefore spread by 15-35 % between
runs, wider than any regression bound worth having.

:class:`HostClock` samples the host's speed while the measured code runs:
an interval timer interrupts the main thread every 20 ms and times a
fixed pure-Python loop.  A timed interval is then reported as

    (wall - time spent in probes) * REFERENCE_PROBE_S / mean probe time

i.e. in seconds of a host on which the probe takes ``REFERENCE_PROBE_S``
(this host at its fastest).  Slow-downs that hit the probe and the
measured code alike cancel; the measured code's own cost does not.

The probe is bytecode only on purpose.  Probes with a NumPy part and a
cache-missing part tracked the host a little better (spread of run medians
0.03-0.11 against 0.04-0.17 in a noisy half hour, 0.11-0.38 raw), but ran
30-60 % slower when they interrupted memory-heavy code than when they
interrupted nothing: their reading would move with the cache footprint of
the code under test.  The bytecode loop does not (within 10 %).
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

#: iterations of the probe loop (about 0.6 ms on the reference host)
PROBE_LOOPS = 20000
#: what one probe takes on the reference host
REFERENCE_PROBE_S = 0.0006
#: how often the measured code is interrupted (probe share: about 3 %)
PERIOD_S = 0.02


class HostClock:
    def __init__(self) -> None:
        self._at: list[float] = []
        self._took: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOPS):
            x += i & 3
        self._at.append(t0)
        self._took.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostClock":
        """Begin sampling (main thread only: it installs a SIGALRM handler)."""
        self._probe()
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()

    def slowdown(self, t0: float, t1: float) -> tuple[float, float]:
        """(host slow-down over ``[t0, t1]`` against the reference host,
        seconds of that interval spent inside probes)."""
        first = bisect_left(self._at, t0)
        last = bisect_right(self._at, t1)
        inside = self._took[first:last]
        # an interval shorter than the period borrows its neighbours
        around = self._took[max(0, first - 1) : last + 1]
        # a probe that was descheduled for a timer tick says nothing about
        # the host's speed: cap such outliers before averaging
        cap = 2.0 * sorted(around)[len(around) // 2]
        mean = sum(min(took, cap) for took in around) / len(around)
        return mean / REFERENCE_PROBE_S, sum(inside)

    def reference_seconds(self, t0: float, t1: float, slowdown: float | None = None) -> float:
        """Length of ``[t0, t1]`` (``perf_counter`` times) on the reference host.

        An interval too short to carry its own estimate of the host's speed
        takes the ``slowdown`` of the longer interval it is part of.
        """
        own_slowdown, in_probes = self.slowdown(t0, t1)
        return (t1 - t0 - in_probes) / (slowdown or own_slowdown)

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``; returns (reference seconds it took, its result)."""
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        return self.reference_seconds(t0, time.perf_counter()), result
