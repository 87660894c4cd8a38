"""The shared broadcast medium: loss, delay and bandwidth accounting.

Crowdsensing nodes share one wireless broadcast domain. The medium
delivers every transmitted packet to every attached receiver,
independently dropping each delivery with the link's loss probability
(the paper's "low QoS channels") and delaying it by the link latency.
It also keeps bit-level accounting per provenance so experiments can
measure actual forged-bandwidth fractions rather than assuming them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import perf
from repro.errors import ConfigurationError
from repro.protocols.packets import LEGITIMATE
from repro.sim.channel import BernoulliLoss, LossProcess
from repro.sim.draws import kept_links
from repro.sim.events import Simulator

__all__ = ["LinkQuality", "BroadcastMedium"]

#: Delivery callback: ``(packet, arrival_time) -> None``.
DeliveryFn = Callable[[object, float], None]


@dataclass(frozen=True)
class LinkQuality:
    """Per-receiver channel characteristics.

    Attributes:
        loss_probability: independent drop probability per delivery
            (ignored when ``loss_process`` is given).
        delay: propagation + processing latency in seconds.
        loss_process: optional stateful loss model (e.g. a
            :class:`~repro.sim.channel.GilbertElliottLoss` burst
            channel). Loss processes carry channel state, so give each
            attachment its own instance.
    """

    loss_probability: float = 0.0
    delay: float = 1e-3
    loss_process: Optional[LossProcess] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1], got {self.loss_probability}"
            )
        if self.delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {self.delay}")

    def make_loss_process(self) -> LossProcess:
        """The effective loss model for one attachment."""
        if self.loss_process is not None:
            return self.loss_process
        return BernoulliLoss(self.loss_probability)


class _Attachment:
    __slots__ = ("name", "deliver", "link", "loss")

    def __init__(self, name: str, deliver: DeliveryFn, link: LinkQuality) -> None:
        self.name = name
        self.deliver = deliver
        self.link = link
        self.loss = link.make_loss_process()


class BroadcastMedium:
    """One broadcast domain shared by all nodes.

    Args:
        simulator: the event loop delivering packets.
        rng: RNG driving the loss process (seed for reproducibility).
        default_link: link quality used when an attachment does not
            specify its own.
    """

    def __init__(
        self,
        simulator: Simulator,
        rng: Optional[random.Random] = None,
        default_link: LinkQuality = LinkQuality(),
    ) -> None:
        self._simulator = simulator
        # reprolint: disable=RPL002 -- ad-hoc/interactive fallback; every scenario path passes a master-seeded rng
        self._rng = rng or random.Random()
        self._default_link = default_link
        self._attachments: List[_Attachment] = []
        self._taps: List[Callable[[object, float], None]] = []
        self._bits_sent: Dict[str, int] = {}
        self._packets_sent: Dict[str, int] = {}
        self._deliveries = 0
        self._drops = 0

    def add_tap(self, tap: Callable[[object, float], None]) -> None:
        """Register a transmission tap ``(packet, send_time) -> None``.

        Taps see every packet as it is *sent* (pre-loss) — the hook the
        packet-capture tooling in :mod:`repro.sim.trace` uses.
        """
        self._taps.append(tap)

    def attach(
        self, name: str, deliver: DeliveryFn, link: Optional[LinkQuality] = None
    ) -> None:
        """Attach a receiver callback under a unique node name."""
        if any(attachment.name == name for attachment in self._attachments):
            raise ConfigurationError(f"node name {name!r} already attached")
        self._attachments.append(
            _Attachment(name, deliver, link or self._default_link)
        )

    @property
    def attached_names(self) -> List[str]:
        """Names of attached receivers, in attachment order."""
        return [attachment.name for attachment in self._attachments]

    @property
    def deliveries(self) -> int:
        """Successful deliveries so far."""
        return self._deliveries

    @property
    def drops(self) -> int:
        """Deliveries lost to the channel so far."""
        return self._drops

    def bits_sent(self, provenance: str = LEGITIMATE) -> int:
        """Bits transmitted by packets of the given provenance."""
        return self._bits_sent.get(provenance, 0)

    def packets_sent(self, provenance: str = LEGITIMATE) -> int:
        """Packets transmitted by the given provenance."""
        return self._packets_sent.get(provenance, 0)

    def forged_bandwidth_fraction(self) -> float:
        """Measured forged share of transmitted bits (the empirical
        counterpart of the game's ``p``)."""
        total = sum(self._bits_sent.values())
        if total == 0:
            return 0.0
        forged = total - self._bits_sent.get(LEGITIMATE, 0)
        return forged / total

    def broadcast(self, packet: object, exclude: Optional[str] = None) -> int:
        """Transmit ``packet`` to every attached receiver.

        Loss is drawn per attachment in attachment order
        (:func:`~repro.sim.draws.kept_links`); the excluded attachment
        draws nothing. The kept deliveries are one
        :meth:`~repro.sim.events.Simulator.schedule_fanout`: attachments
        whose delays give the same arrival share one event.

        Args:
            packet: any protocol packet (must expose ``wire_bits`` and
                ``provenance`` for accounting; unknown objects are
                accounted as zero-size).
            exclude: node name that should not hear its own transmission.

        Returns:
            number of deliveries scheduled (post-loss).
        """
        provenance = getattr(packet, "provenance", LEGITIMATE)
        bits = getattr(packet, "wire_bits", 0)
        self._bits_sent[provenance] = self._bits_sent.get(provenance, 0) + bits
        self._packets_sent[provenance] = self._packets_sent.get(provenance, 0) + 1
        for tap in self._taps:
            tap(packet, self._simulator.now)
        simulator = self._simulator
        attachments = self._attachments
        if exclude is not None:
            attachments = [a for a in attachments if a.name != exclude]
        now = simulator.now
        deliveries = [
            (now + attachment.link.delay, attachment)
            for attachment in kept_links(attachments, self._rng)
        ]
        scheduled = len(deliveries)
        drops = len(attachments) - scheduled
        self._drops += drops
        self._deliveries += scheduled
        clock = simulator.clock

        def deliver(target: _Attachment) -> None:
            target.deliver(packet, clock.now())

        simulator.schedule_fanout(deliveries, deliver)
        active = perf.ACTIVE
        if active is not None:
            active.incr("sim.broadcasts")
            active.incr("sim.deliveries", scheduled)
            active.incr("sim.drops", drops)
        return scheduled
