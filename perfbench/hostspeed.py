"""The host's speed, sampled while a run measures, to scale its timings.

On a shared host the same work runs up to about 1.8 times slower for
stretches of seconds to minutes, as other tenants load the machine.
Runs that land in different stretches then differ by more than any
change to the program would, so a wall-clock metric mostly measures the
host.  :class:`HostSpeed` runs a fixed reference workload (:func:`probe`,
a few milliseconds of dictionary, tuple and list churn, the kind of work
the program does) from a ``SIGALRM`` timer every :data:`INTERVAL_S`
while a run measures.  :meth:`HostSpeed.adjust` then states a timed
call at the reference speed: its wall time, less the probes that ran
inside it, times :data:`REFERENCE_PROBE_S` over the median probe time
around the call.  The probe runs in the benchmark's own process and
thread, between the program's bytecodes; the timed workloads start no
threads or processes of their own, so nothing else runs beside it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds between probes.
INTERVAL_S = 0.25
#: Probes are taken over at least this span around a call, so a short
#: call is judged by several probes.
WINDOW_S = 2.0
#: The fewest probes a call is judged by, taken nearest in time when
#: its window holds fewer.
MIN_PROBES = 5
#: The probe time that defines the reference speed: adjusted timings
#: are the times a host on which :func:`probe` takes this long would show.
REFERENCE_PROBE_S = 0.004
PROBE_ENTRIES = 4000


def probe() -> int:
    """The reference workload: build, then sort, a table of small objects."""
    table = {}
    for index in range(PROBE_ENTRIES):
        table[(index, str(index))] = [index, 2 * index, {"index": index}]
    return len(sorted(table.items(), key=lambda item: -item[0][0]))


class HostSpeed:
    """Samples :func:`probe` while active; see the module docstring."""

    def __init__(self):
        #: ``(start, seconds)`` of every probe
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._busy = False

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, _signum, _frame) -> None:
        if self._busy:  # a probe outlasting the interval is not re-entered
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the probe's time
        try:
            start = time.perf_counter()
            probe()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def probe_seconds(self, start: float, end: float) -> float:
        """Median probe time around ``[start, end]``."""
        if not self.samples:
            raise RuntimeError("no probe ran; the host's speed is unknown")
        middle = (start + end) / 2.0
        half = max(end - start, WINDOW_S) / 2.0
        near = [seconds for at, seconds in self.samples if abs(at - middle) <= half]
        if len(near) < MIN_PROBES:
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            near = [seconds for _, seconds in nearest[:MIN_PROBES]]
        return statistics.median(near)

    def adjust(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the reference speed.

        Probes that ran inside the interval are not the program's time
        and are taken out first.
        """
        end = start + seconds
        work = seconds - sum(taken for at, taken in self.samples if start <= at < end)
        return max(work, 0.0) * REFERENCE_PROBE_S / self.probe_seconds(start, end)
