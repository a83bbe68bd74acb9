"""Machine-speed probes, and intervals converted to reference seconds.

A small shared host changes speed by up to ~40% from one quarter second
to the next (CPU time tracks wall time, so it is the machine, not the
scheduler), and an op's wall time moves with it.  To take that out, a
short fixed piece of interpreter work, the probe, is timed right before
and right after every measured interval and, while an op runs, every
PROBE_INTERVAL_S from a SIGALRM handler in the same thread.

Each stretch of the interval between two probes is divided by the mean
duration of those two probes: that is the stretch's length in probes,
which the machine's speed leaves nearly unchanged.  A reference second
is the time of REF_PROBES probes, that is, a second on a machine on
which one probe takes exactly 1 ms.  The probes' own time is excluded.

The probe mixes what the workloads spend their time on: small objects,
dict stores and lookups with tuple keys, and float arithmetic.  A plain
integer loop tracked the workloads' speed worse (per-op spread about
three times wider).
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

PROBE_ITERATIONS = 1500  # 0.8 ms on a 2-vCPU Intel Xeon cloud host, Python 3.11
PROBE_INTERVAL_S = 0.02  # the probes cost about 4% of an op's wall time
REF_PROBES = 1000  # probes in one reference second


class _Cell:
    __slots__ = ("v", "n")

    def __init__(self, v, n):
        self.v, self.n = v, n


def probe_work(iterations=PROBE_ITERATIONS):
    """The probe's fixed work; returns a count so that nothing is skipped."""
    table, x, hits = {}, 1.0, 0
    for i in range(iterations):
        cell = _Cell(x, i)
        table[(i & 255, cell.n & 3)] = cell
        x = x * 0.999 + cell.v / (i + 1.5)
        if (i, 1) in table:
            hits += 1
    return hits


class SpeedClock:
    """Timed probes of one process, and intervals measured against them."""

    def __init__(self):
        self.starts = []  # probe start times, in order
        self.ends = []
        self.busy = False  # a probe is running

    def probe(self):
        self.busy = True
        start = time.perf_counter()
        probe_work()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.busy = False

    def _on_alarm(self, signum, frame):
        # a probe the alarm cut into would be recorded out of order: skip this tick
        if not self.busy:
            self.probe()

    @contextmanager
    def probing(self, every=PROBE_INTERVAL_S):
        """Probe before and after the block, and every ``every`` seconds in it.

        ``every=None`` probes only before and after: the profile pass
        uses it, so that the probes do not show in its self times.
        """
        self.probe()
        if every is not None:
            previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, every, every)
        try:
            yield
        finally:
            if every is not None:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self.probe()

    def measure(self, t0, t1):
        """(reference seconds, wall seconds) of [t0, t1], probes' own time excluded.

        [t0, t1] must lie between a probe that ended by t0 and one that
        starts at or after t1; probes that start inside it split it.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        if lo == 0 or hi == len(self.starts) or self.ends[lo - 1] > t0:
            raise ValueError(f"[{t0}, {t1}] is not bracketed by probes")
        durations = [e - s for s, e in zip(self.starts[lo - 1:hi + 1], self.ends[lo - 1:hi + 1])]
        edges = [t0]
        for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]):
            edges += (s, e)
        edges.append(t1)
        probes = sum(
            (edges[2 * i + 1] - edges[2 * i]) * 2 / (durations[i] + durations[i + 1])
            for i in range(hi - lo + 1)
        )
        return probes / REF_PROBES, t1 - t0 - sum(durations[1:-1])
