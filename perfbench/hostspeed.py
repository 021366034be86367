"""Host-speed probe: wall time restated at a fixed reference speed.

On a shared host the CPU's speed changes in steps that last from a second to
minutes, with no stolen time to show for it: the same fixed loop runs up to
1.7 times slower in one stretch than in the next (see ``NOTES.md``).  Such
steps move every wall-clock figure of a run together, and no number of
repetitions inside one run averages out a step that outlasts the run.

:class:`SpeedProbe` measures the speed while the benchmark runs.  A
``SIGALRM`` interval timer interrupts the program every :data:`INTERVAL_S`
seconds, and the handler times :func:`probe_work`, a fixed piece of pure
Python that uses nothing of the program.  :meth:`SpeedProbe.reference_seconds`
then restates the wall time of an interval as the time it would have taken
at the reference speed: the wall time less the probes inside it, times the
mean of ``REFERENCE_S / probe time`` over those probes.  A change that makes
the program faster lowers the figure by the same share as it lowers the
wall time, since the probe does not run the program's code.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from contextlib import contextmanager

#: Wall seconds between probes.
INTERVAL_S = 0.01

#: Seconds :func:`probe_work` takes at the reference speed: its typical time
#: on the host the figures in ``NOTES.md`` come from (2.1 GHz Xeon), in that
#: host's faster state.  A run at that speed reports its wall time.
REFERENCE_S = 70e-6

_PROBE_ITERATIONS = 600


def probe_work() -> int:
    """A fixed piece of interpreter work: dict updates and integer sums."""
    table: dict[int, int] = {}
    for i in range(_PROBE_ITERATIONS):
        key = i % 97
        table[key] = table.get(key, 0) + i
    return len(table)


class SpeedProbe:
    """Times :func:`probe_work` every :data:`INTERVAL_S` while installed."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _handler(self, signum, frame):
        tick = time.perf_counter()
        probe_work()
        self.starts.append(tick)
        self.durations.append(time.perf_counter() - tick)

    @contextmanager
    def installed(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall time of ``[start, end)`` less its probes, at the reference speed.

        The speed is taken from the probes inside the interval and the one on
        each side of it, so that even an interval shorter than
        :data:`INTERVAL_S` has a speed.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.durations[lo:hi]
        around = self.durations[max(lo - 1, 0) : hi + 1]
        if not around:
            raise RuntimeError("no speed probe ran; is the probe installed?")
        speed = statistics.fmean(REFERENCE_S / d for d in around)
        return (end - start - sum(inside)) * speed

    def summary(self) -> dict:
        """Probe count and quartiles of the probe times, for the notes."""
        if len(self.durations) < 2:
            return {"probes": len(self.durations)}
        q1, q2, q3 = statistics.quantiles(self.durations, n=4)
        return {
            "probes": len(self.durations),
            "probe_us_quartiles": [q1 * 1e6, q2 * 1e6, q3 * 1e6],
        }
