"""Fan-outs as they were scheduled before a fan-out became one heap
entry per arrival time: one event, with its own closure, per receiver.

Kept as the oracles ``tests/sim/test_events.py`` and
``tests/sim/test_medium.py`` pin :meth:`repro.sim.events.Simulator.
schedule_fanout` and :meth:`repro.sim.medium.BroadcastMedium.broadcast`
to: the same deliveries, in the same order, at the same times, with the
same loss draws.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Tuple, TypeVar

from repro.protocols.packets import LEGITIMATE
from repro.sim.medium import BroadcastMedium

_Item = TypeVar("_Item")


def schedule_each(
    simulator, deliveries: Iterable[Tuple[float, _Item]], action: Callable[[_Item], None]
) -> None:
    """One :meth:`~repro.sim.events.Simulator.schedule` per item."""
    for time, item in deliveries:
        simulator.schedule(time, lambda item=item: action(item))


class PerEventMedium(BroadcastMedium):
    """The old :meth:`BroadcastMedium.broadcast` body (perf hooks left
    out: they count, they do not order)."""

    def broadcast(self, packet: object, exclude: Optional[str] = None) -> int:
        provenance = getattr(packet, "provenance", LEGITIMATE)
        bits = getattr(packet, "wire_bits", 0)
        self._bits_sent[provenance] = self._bits_sent.get(provenance, 0) + bits
        self._packets_sent[provenance] = self._packets_sent.get(provenance, 0) + 1
        for tap in self._taps:
            tap(packet, self._simulator.now)
        scheduled = 0
        for attachment in self._attachments:
            if exclude is not None and attachment.name == exclude:
                continue
            if attachment.loss.should_drop(self._rng):
                self._drops += 1
                continue
            arrival = self._simulator.now + attachment.link.delay

            def deliver(target=attachment, pkt=packet, at=arrival) -> None:
                target.deliver(pkt, at)

            self._simulator.schedule_in(attachment.link.delay, deliver)
            self._deliveries += 1
            scheduled += 1
        return scheduled
