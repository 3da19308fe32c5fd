"""Simulated time and event scheduling."""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional


def _finite(value: float, what: str) -> float:
    """``value`` itself, or a ``ValueError`` naming it when NaN or infinite:
    ``now >= nan`` is never true, so a non-finite time would never be
    reached and would poison every comparison after it."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class SimClock:
    """A monotonically advancing simulated clock (seconds)."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; rewinding is an error."""
        if _finite(seconds, "a time step") < 0:
            raise ValueError("time cannot move backwards")
        self._now += seconds
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Jump forward to an absolute time (never backwards)."""
        if _finite(timestamp, "simulated time") < self._now:
            raise ValueError("time cannot move backwards")
        self._now = timestamp
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(t={self._now:.3f}s)"


@dataclass(order=True)
class ScheduledEvent:
    """One scheduled callback; ordering is by time, then insertion order."""

    time: float
    sequence: int
    callback: Optional[Callable[[], None]] = field(compare=False)
    label: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Never run this event.  The callback is dropped with it: whatever
        it closes over (often the event's owner) need not outlive the queue
        entry."""
        self.cancelled = True
        self.callback = None


class EventScheduler:
    """A priority queue of events driven against a :class:`SimClock`."""

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock or SimClock()
        self._queue: List[ScheduledEvent] = []
        self._counter = itertools.count()
        self.events_run = 0

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule a callback at an absolute simulated time."""
        if _finite(time, "an event time") < self.clock.now():
            raise ValueError("cannot schedule an event in the past")
        event = ScheduledEvent(time=time, sequence=next(self._counter), callback=callback, label=label)
        heapq.heappush(self._queue, event)
        return event

    def try_schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> Optional[ScheduledEvent]:
        """Like :meth:`schedule_at`, but a time already in the past is
        silently skipped (returns ``None``) instead of raising.

        This is the right semantics for replaying a precomputed plan — a
        contact schedule, a flap plan — whose earliest entries may predate
        the moment the plan is bound to the clock.
        """
        if time < self.clock.now():
            return None
        return self.schedule_at(time, callback, label)

    def schedule_after(self, delay: float, callback: Callable[[], None], label: str = "") -> ScheduledEvent:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        return self.schedule_at(self.clock.now() + delay, callback, label)

    def clear(self) -> None:
        """Cancel every queued event and empty the queue."""
        for event in self._queue:
            event.cancel()
        self._queue.clear()

    def run_until(self, end_time: float) -> int:
        """Run every event scheduled up to and including ``end_time``.

        The clock is advanced to each event's timestamp as it runs, and to
        ``end_time`` at the end.  Returns the number of callbacks executed.
        """
        _finite(end_time, "the end time")
        executed = 0
        while self._queue and self._queue[0].time <= end_time:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            event.callback()
            executed += 1
            self.events_run += 1
        self.clock.advance_to(max(end_time, self.clock.now()))
        return executed
