"""Broadcaster and receiver daemons: protocol state machines on a wire.

:class:`Broadcaster` drives any :class:`~repro.protocols.base.
BroadcastSender` over a transport: every packet the sender emits for an
interval is encoded with :func:`repro.protocols.wire.encode_packet` and
transmitted at the same within-interval offsets the discrete-event
simulator's ``SenderNode`` uses — deliberately, so a loopback run is
event-for-event comparable to an in-memory simulation.

:class:`ReceiverDaemon` is the other end: it decodes arriving
datagrams (strictly — malformed bytes are counted, never crash the
daemon: hostile bytes are exactly what a flood sends), restores
ground-truth provenance from the harness registry when one is attached,
feeds the packet into the wrapped protocol receiver with the daemon's
*local* clock reading, and measures the decode-to-verify latency of
every datagram with a monotonic wall clock. Its statistics come out as
:class:`repro.sim.metrics.NodeSummary`, the same vocabulary the
simulator reports in.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

from repro.errors import ConfigurationError, ProtocolError
from repro.net.transport import Transport
from repro.protocols.base import BroadcastReceiver, BroadcastSender
from repro.protocols.packets import LEGITIMATE
from repro.protocols.wire import decode_packet, encode_packet
from repro.sim.metrics import NodeSummary, summary_from_stats
from repro.timesync.clock import Clock, DriftingClock
from repro.timesync.intervals import IntervalSchedule

__all__ = ["Broadcaster", "ReceiverDaemon"]

#: Retained decode-to-verify latency samples per daemon; enough for
#: stable p99 estimates without letting a long soak grow unboundedly.
_LATENCY_SAMPLE_LIMIT = 65536


class Broadcaster:
    """The legitimate sender as a network daemon.

    Args:
        transport: the endpoint to transmit from.
        destinations: addresses to send every datagram to (typically the
            fault-injection proxy; receivers directly when unproxied).
        sender: the protocol sender to drive.
        schedule: the deployment's interval schedule.
        intervals: how many intervals to broadcast (from interval 1).
    """

    def __init__(
        self,
        transport: Transport,
        destinations: List[str],
        sender: BroadcastSender,
        schedule: IntervalSchedule,
        intervals: int,
    ) -> None:
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        if not destinations:
            raise ConfigurationError("broadcaster needs at least one destination")
        self._transport = transport
        self._destinations = list(destinations)
        self._sender = sender
        self._schedule = schedule
        self._intervals = intervals
        self.packets_sent = 0

    @property
    def sender(self) -> BroadcastSender:
        """The wrapped protocol sender."""
        return self._sender

    def start(self) -> None:
        """Schedule every interval's transmissions on the transport.

        Within-interval offsets match ``SenderNode`` exactly:
        packet ``j`` of ``n`` goes out at ``(j + 0.5)/n`` of the
        interval.
        """
        for interval in range(1, self._intervals + 1):
            start = self._schedule.start_of(interval)
            duration = self._schedule.duration
            datagrams = [
                encode_packet(packet)
                for packet in self._sender.packets_for_interval(interval)
            ]
            for position, datagram in enumerate(datagrams):
                offset = duration * (position + 0.5) / max(len(datagrams), 1)
                self._transport.call_at(
                    start + offset, self._make_transmit(datagram)
                )

    def _make_transmit(self, datagram: bytes):
        def transmit() -> None:
            for destination in self._destinations:
                self._transport.send(datagram, destination)
            self.packets_sent += 1

        return transmit


class ReceiverDaemon:
    """A crowdsensing receiver as a network daemon.

    Args:
        name: node name (appears in the :class:`NodeSummary`).
        transport: the endpoint to listen on (handler installed here).
        receiver: the protocol receiver state machine.
        registry: optional ground-truth provenance registry (see
            :class:`repro.net.flood.ProvenanceRegistry`); without one,
            every decoded packet carries the wire's default
            ``legitimate`` tag, as a real deployment would see it.
        clock_offset / clock_drift: local-clock skew versus testbed
            time, exactly like ``ReceiverNode``.
    """

    def __init__(
        self,
        name: str,
        transport: Transport,
        receiver: BroadcastReceiver,
        registry=None,
        clock_offset: float = 0.0,
        clock_drift: float = 0.0,
    ) -> None:
        self.name = name
        self._transport = transport
        self._receiver = receiver
        self._registry = registry
        self._clock: Clock = DriftingClock(
            transport.clock, offset=clock_offset, drift_rate=clock_drift
        )
        self.datagrams_received = 0
        self.malformed = 0
        self.latencies: List[float] = []
        transport.set_handler(self._on_datagram)

    @property
    def receiver(self) -> BroadcastReceiver:
        """The wrapped protocol receiver."""
        return self._receiver

    @property
    def address(self) -> str:
        """The transport address this daemon listens on."""
        return self._transport.address

    @property
    def local_time(self) -> float:
        """Current receiver-local time."""
        return self._clock.now()

    def _on_datagram(self, data: bytes, _arrival: float) -> None:
        self.datagrams_received += 1
        started = perf_counter()
        registry = self._registry
        provenance = LEGITIMATE if registry is None else registry.provenance_of(data)
        try:
            packet = decode_packet(data, provenance)
        except ProtocolError:
            # Hostile bytes: count and carry on — a daemon that dies on
            # a malformed datagram is the cheapest DoS there is.
            self.malformed += 1
            return
        self._receiver.receive(packet, self._clock.now())
        latency = perf_counter() - started
        if len(self.latencies) < _LATENCY_SAMPLE_LIMIT:
            self.latencies.append(latency)

    def node_summary(self) -> NodeSummary:
        """This daemon's outcome tallies, sim-metrics compatible."""
        return summary_from_stats(self.name, self._receiver.stats)
