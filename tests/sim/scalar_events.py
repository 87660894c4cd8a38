"""The event loop as it was before heap entries became plain tuples:
one ``@dataclass(order=True)`` entry per event, compared in Python.

Kept as the oracle ``tests/sim/test_events.py`` pins
:class:`repro.sim.events.Simulator` to: same firing order, clock,
``pending`` and ``processed`` after any schedule/cancel/run sequence.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.events import EventHandle
from repro.timesync.clock import SimClock


@dataclass(order=True)
class _QueuedEvent:
    time: float
    seq: int
    handle: EventHandle = field(compare=False)


class DataclassHeapSimulator:
    """The old :class:`~repro.sim.events.Simulator` body (perf hooks
    left out: they count, they do not order)."""

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue: List[_QueuedEvent] = []
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        return self._clock.now()

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def processed(self) -> int:
        return self._processed

    def schedule(self, time: float, action: Callable[[], None]) -> EventHandle:
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = EventHandle(action)
        self._seq += 1
        heapq.heappush(self._queue, _QueuedEvent(time, self._seq, handle))
        return handle

    def schedule_in(self, delay: float, action: Callable[[], None]) -> EventHandle:
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.schedule(self.now + delay, action)

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            head = self._queue[0]
            if until is not None and head.time > until:
                break
            heapq.heappop(self._queue)
            handle = head.handle
            if handle.cancelled:
                continue
            self._clock.set(head.time)
            handle._fired = True
            handle.action()
            processed += 1
            self._processed += 1
        if until is not None and self.now < until and (
            not self._queue or self._queue[0].time > until
        ):
            self._clock.set(until)
        return processed
