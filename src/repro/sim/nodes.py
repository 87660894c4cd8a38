"""Node wrappers binding protocol state machines into the simulator.

A :class:`SenderNode` walks an interval schedule and broadcasts
whatever its protocol sender emits for each interval, spreading the
packets uniformly across the interval. A :class:`ReceiverNode` owns a
protocol receiver plus a (possibly skewed) local clock and feeds
arriving packets in with receiver-local timestamps; the receiver's own
``stats`` count every outcome for the metrics layer.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.protocols.base import BroadcastReceiver, BroadcastSender
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality
from repro.timesync.clock import Clock, DriftingClock
from repro.timesync.intervals import IntervalSchedule

__all__ = ["SenderNode", "ReceiverNode"]


class SenderNode:
    """The legitimate broadcaster.

    Args:
        name: unique node name.
        simulator / medium: the world.
        sender: the protocol sender.
        schedule: interval schedule the deployment runs on.
        intervals: how many intervals to broadcast (from interval 1).
    """

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        medium: BroadcastMedium,
        sender: BroadcastSender,
        schedule: IntervalSchedule,
        intervals: int,
    ) -> None:
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        self.name = name
        self._simulator = simulator
        self._medium = medium
        self._sender = sender
        self._schedule = schedule
        self._intervals = intervals
        self.packets_sent = 0

    @property
    def sender(self) -> BroadcastSender:
        """The wrapped protocol sender."""
        return self._sender

    def start(self) -> None:
        """Schedule every interval's broadcast."""
        for interval in range(1, self._intervals + 1):
            start = self._schedule.start_of(interval)
            duration = self._schedule.duration
            packets = list(self._sender.packets_for_interval(interval))
            for position, packet in enumerate(packets):
                offset = duration * (position + 0.5) / max(len(packets), 1)
                self._simulator.schedule(start + offset, self._make_transmit(packet))

    def _make_transmit(self, packet: object) -> Callable[[], None]:
        def transmit() -> None:
            self._medium.broadcast(packet, exclude=self.name)
            self.packets_sent += 1

        return transmit


class ReceiverNode:
    """A crowdsensing node running a protocol receiver.

    Args:
        name: unique node name.
        simulator: the world (supplies master time).
        receiver: the protocol receiver.
        clock_offset / clock_drift: local-clock skew versus master time
            (must respect the deployment's loose-sync bound or packets
            get discarded as unsafe — itself a scenario worth testing).
    """

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        receiver: BroadcastReceiver,
        clock_offset: float = 0.0,
        clock_drift: float = 0.0,
    ) -> None:
        self.name = name
        self._simulator = simulator
        self._receiver = receiver
        self._clock: Clock = DriftingClock(
            simulator.clock, offset=clock_offset, drift_rate=clock_drift
        )

    @property
    def receiver(self) -> BroadcastReceiver:
        """The wrapped protocol receiver."""
        return self._receiver

    @property
    def local_time(self) -> float:
        """Current receiver-local time."""
        return self._clock.now()

    def attach(self, medium: BroadcastMedium, link: Optional[LinkQuality] = None) -> None:
        """Attach this node's delivery callback to the medium."""
        medium.attach(self.name, self._deliver, link)

    def _deliver(self, packet: object, _arrival: float) -> None:
        self._receiver.receive(packet, self._clock.now())
