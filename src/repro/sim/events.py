"""Discrete-event simulation core.

A minimal but production-shaped DES: a priority queue of timestamped
events, a monotonically advancing master clock, cancellable handles,
and deterministic FIFO ordering among simultaneous events (ties broken
by scheduling sequence number, so runs are exactly reproducible).

Heap entries are plain ``(time, seq, handle)`` tuples, so the heap
compares them in C. ``seq`` is unique per simulator, so a comparison
never reaches the handle.

A fan-out (one transmission heard by many receivers) is scheduled with
:meth:`Simulator.schedule_fanout`: one heap entry per distinct arrival
time, which delivers to its receivers in the order separate events
would have fired.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, List, Optional, Tuple, TypeVar

from repro import perf
from repro.errors import ConfigurationError, SchedulingError
from repro.timesync.clock import SimClock

__all__ = ["EventHandle", "Simulator"]

_Item = TypeVar("_Item")


class EventHandle:
    """A scheduled event that can be cancelled before it fires."""

    __slots__ = ("action", "_cancelled", "_fired")

    def __init__(self, action: Callable[[], None]) -> None:
        self.action = action
        self._cancelled = False
        self._fired = False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` was called before the event fired."""
        return self._cancelled

    @property
    def fired(self) -> bool:
        """Whether the event has executed."""
        return self._fired

    def cancel(self) -> bool:
        """Cancel the event; returns ``False`` if it already fired."""
        if self._fired:
            return False
        self._cancelled = True
        return True


class Simulator:
    """Event loop owning the master clock.

    Args:
        start: initial simulation time in seconds.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._clock = SimClock(start)
        self._queue: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._clock.now()

    @property
    def clock(self) -> SimClock:
        """The master clock (for deriving per-node drifting clocks)."""
        return self._clock

    @property
    def pending(self) -> int:
        """Events still queued (including cancelled ones not yet popped)."""
        return len(self._queue)

    @property
    def processed(self) -> int:
        """Events executed so far (a fan-out group counts once)."""
        return self._processed

    def schedule(self, time: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` at absolute ``time``.

        Raises:
            SchedulingError: for times in the past.
        """
        now = self._clock.now()
        if time < now:
            raise SchedulingError(
                f"cannot schedule at {time}, current time is {now}"
            )
        handle = EventHandle(action)
        self._seq += 1
        heappush(self._queue, (time, self._seq, handle))
        return handle

    def schedule_in(self, delay: float, action: Callable[[], None]) -> EventHandle:
        """Schedule ``action`` after ``delay`` seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._clock.now() + delay, action)

    def schedule_fanout(
        self,
        deliveries: Iterable[Tuple[float, _Item]],
        action: Callable[[_Item], None],
    ) -> None:
        """Schedule ``action(item)`` at each ``(arrival, item)`` of one
        fan-out, with one heap entry per distinct arrival time.

        ``deliveries`` lists the fan-out in send order. Equal arrival
        floats share one entry, placed at the first appearance of that
        time, which calls ``action`` on its items in send order. Group
        by the arrival float, not by the delay that produced it: two
        different delays can round to the same arrival.

        The firing order is the one a separate :meth:`schedule` per item
        gives. Those events would take consecutive sequence numbers with
        nothing scheduled between them, so any other event at the same
        time either has a lower number (it fires before every member of
        the fan-out, as it fires before the group) or a higher one (it
        fires after all of them, as after the group). That includes an
        event an action schedules at delay 0 while the group delivers:
        it fires after the group's remaining items either way. Members
        at one time fire in sequence order, which is send order, and
        different times fire in time order.

        Each heap entry counts once in :meth:`run`'s return value, in
        ``max_events`` and in :attr:`processed`, however many items it
        delivers.

        Raises:
            SchedulingError: for an arrival in the past (nothing of the
                fan-out is scheduled then).
        """
        now = self._clock.now()
        groups: Dict[float, List[_Item]] = {}
        for time, item in deliveries:
            members = groups.get(time)
            if members is not None:
                members.append(item)
            elif time < now:
                raise SchedulingError(
                    f"cannot schedule at {time}, current time is {now}"
                )
            else:
                groups[time] = [item]
        queue = self._queue
        for time, members in groups.items():
            self._seq += 1
            heappush(queue, (time, self._seq, EventHandle(_fanout(action, members))))

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> int:
        """Process events until the queue drains, ``until`` passes, or
        the event budget is spent. Returns events processed this call.

        Events scheduled exactly at ``until`` still fire (the horizon is
        inclusive), which makes "run to the end of interval N" natural.
        A :meth:`schedule_fanout` group is one event: it fires whole and
        counts once against ``max_events`` and in the return value.
        """
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        queue = self._queue
        clock = self._clock
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, handle = queue[0]
            if until is not None and time > until:
                break
            heappop(queue)
            if handle._cancelled:
                continue
            clock.set(time)
            handle._fired = True
            handle.action()
            processed += 1
            self._processed += 1
            active = perf.ACTIVE
            if active is not None:
                active.incr("sim.events")
                active.observe("sim.queue_depth", len(queue))
        if until is not None and self.now < until and (
            not queue or queue[0][0] > until
        ):
            clock.set(until)
        return processed


def _fanout(action: Callable[[_Item], None], items: List[_Item]) -> Callable[[], None]:
    """One heap entry's action: ``action`` on each item, in order."""

    def fire() -> None:
        for item in items:
            action(item)

    return fire
