"""Service time sources: real monotonic time or deterministic virtual time.

The service measures *durations* -- round periods, delivery timeouts,
retry backoffs, end-to-end latency -- so it must never read the wall
clock: NTP steps and DST jumps would corrupt every interval (richlint
RL205).  :class:`MonotonicClock` wraps ``time.monotonic`` for live runs.

Tests and chaos scenarios need the opposite of real time: a clock the
test *drives*.  :class:`SimulatedClock` keeps a heap of sleepers and
advances only at loop quiescence, so a 10-minute flash crowd replays in
milliseconds and every interleaving is reproducible.  Timeout races
(:mod:`repro.service.sinks`) are built on ``Clock.sleep`` rather than
``asyncio.wait_for`` precisely so they stay on virtual time.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from collections import deque
from typing import Awaitable, Protocol


class Clock(Protocol):
    """Minimal time source: a monotonic ``now`` and an awaitable sleep."""

    def now(self) -> float: ...  # pragma: no cover - protocol

    async def sleep(self, seconds: float) -> None: ...  # pragma: no cover


class MonotonicClock:
    """Live clock: ``time.monotonic`` + ``asyncio.sleep``.

    Monotonic by construction -- immune to NTP/DST wall-clock steps, the
    only safe base for duration math (richlint RL205).
    """

    def now(self) -> float:
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        await asyncio.sleep(max(0.0, seconds))


class SimulatedClock:
    """Deterministic virtual time for service tests and chaos replays.

    ``sleep`` parks the caller on a heap keyed by wake time (with an
    insertion sequence for FIFO tie-breaks -- no hash-order in wakeups).
    :meth:`advance` and :meth:`drive` wake the earliest live sleeper only
    once the loop has no ready callback left, so time never moves while
    an await chain (timer fires -> race settles) is still running.
    """

    def __init__(self, start: float = 0.0) -> None:
        # advance() and drive() both move time, but a test drives exactly
        # one of them at a time on the event loop (RL705 discipline).
        self._now = float(start)  # richlint: guarded-by(event-loop)
        self._seq = itertools.count()
        self._sleepers: list[tuple[float, int, asyncio.Future]] = []

    def now(self) -> float:
        return self._now

    @property
    def pending_sleepers(self) -> int:
        """Sleepers currently parked (diagnostics)."""
        return sum(1 for _, _, f in self._sleepers if not f.done())

    async def sleep(self, seconds: float) -> None:
        if seconds <= 0:
            await asyncio.sleep(0)
            return
        future = asyncio.get_running_loop().create_future()
        heapq.heappush(
            self._sleepers, (self._now + seconds, next(self._seq), future)
        )
        await future

    def _wake_next(self, until: float = float("inf")) -> bool:
        """Wake the earliest live sleeper due by ``until``; False if none."""
        while self._sleepers and self._sleepers[0][2].done():
            heapq.heappop(self._sleepers)  # a cancelled timeout race
        if not self._sleepers or self._sleepers[0][0] > until + 1e-12:
            return False
        wake, _, future = heapq.heappop(self._sleepers)
        self._now = max(self._now, wake)
        future.set_result(None)
        return True

    async def advance(self, seconds: float) -> None:
        """Move virtual time forward, waking every sleeper that comes due,
        then pin ``now`` to the target once the loop is quiescent."""
        if seconds < 0:
            raise ValueError(f"cannot advance time backwards ({seconds})")
        target = self._now + seconds
        await _quiesce()
        while self._wake_next(target):
            await _quiesce()
        self._now = target

    async def drive(self, awaitable: Awaitable):
        """Run ``awaitable`` to completion, advancing time as far as needed.

        The canonical way to run a bounded service session on virtual
        time.  A task still pending at quiescence with no live sleeper can
        never finish: that deadlock raises at once.
        """
        task = asyncio.ensure_future(awaitable)
        try:
            while True:
                await _quiesce()
                if task.done():
                    return task.result()
                if not self._wake_next():
                    detail = "task pending with no sleepers to wake"
                    if getattr(asyncio.get_running_loop(), "_scheduled", None):
                        detail += (
                            "; a real-time loop timer was found under "
                            "virtual time"
                        )
                    raise RuntimeError(f"simulated clock stalled: {detail}")
        finally:
            task.cancel()


async def _quiesce() -> None:
    """Yield until the running loop has no ready callback left.

    Reads private stdlib ``BaseEventLoop`` state (``loop._ready``); a loop
    without it (uvloop, say) cannot host virtual time.
    """
    loop = asyncio.get_running_loop()
    ready = getattr(loop, "_ready", None)
    if not isinstance(ready, deque):
        raise TypeError(
            "SimulatedClock needs a stdlib asyncio loop with a ready "
            f"queue, got {type(loop).__qualname__}"
        )
    await asyncio.sleep(0)
    while ready:
        await asyncio.sleep(0)
