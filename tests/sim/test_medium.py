"""Unit tests for the broadcast medium."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.protocols.packets import FORGED, MacAnnouncePacket
from repro.sim.channel import GilbertElliottLoss
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality
from tests.sim.per_receiver import PerEventMedium


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def medium(sim):
    return BroadcastMedium(sim, rng=random.Random(1))


PACKET = MacAnnouncePacket(1, b"m" * 10)
FORGED_PACKET = MacAnnouncePacket(1, b"f" * 10, provenance=FORGED)


class TestDelivery:
    def test_delivers_to_all_attached(self, sim, medium):
        got = {"a": [], "b": []}
        medium.attach("a", lambda p, t: got["a"].append(p))
        medium.attach("b", lambda p, t: got["b"].append(p))
        medium.broadcast(PACKET)
        sim.run()
        assert got["a"] == [PACKET]
        assert got["b"] == [PACKET]

    def test_exclude_sender(self, sim, medium):
        got = []
        medium.attach("self", lambda p, t: got.append(("self", p)))
        medium.attach("other", lambda p, t: got.append(("other", p)))
        medium.broadcast(PACKET, exclude="self")
        sim.run()
        assert got == [("other", PACKET)]

    def test_link_delay_applied(self, sim, medium):
        times = []
        medium.attach("a", lambda p, t: times.append(sim.now), LinkQuality(0.0, 0.5))
        medium.broadcast(PACKET)
        sim.run()
        assert times == [0.5]

    def test_lossy_link_drops(self, sim):
        medium = BroadcastMedium(sim, rng=random.Random(7))
        got = []
        medium.attach("a", lambda p, t: got.append(p), LinkQuality(1.0, 0.0))
        assert medium.broadcast(PACKET) == 0
        sim.run()
        assert got == []
        assert medium.drops == 1

    def test_partial_loss_statistics(self, sim):
        medium = BroadcastMedium(sim, rng=random.Random(3))
        count = [0]
        medium.attach("a", lambda p, t: count.__setitem__(0, count[0] + 1),
                      LinkQuality(0.3, 0.0))
        for _ in range(2000):
            medium.broadcast(PACKET)
        sim.run()
        assert count[0] / 2000 == pytest.approx(0.7, abs=0.04)

    def test_duplicate_name_rejected(self, medium):
        medium.attach("a", lambda p, t: None)
        with pytest.raises(ConfigurationError):
            medium.attach("a", lambda p, t: None)

    def test_attached_names(self, medium):
        medium.attach("x", lambda p, t: None)
        medium.attach("y", lambda p, t: None)
        assert medium.attached_names == ["x", "y"]


class TestAccounting:
    def test_bits_by_provenance(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.bits_sent() == 112
        assert medium.bits_sent(FORGED) == 224

    def test_packets_by_provenance(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.packets_sent() == 1
        assert medium.packets_sent(FORGED) == 1

    def test_forged_bandwidth_fraction(self, medium):
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert medium.forged_bandwidth_fraction() == pytest.approx(0.5)

    def test_empty_medium_fraction_zero(self, medium):
        assert medium.forged_bandwidth_fraction() == 0.0

    def test_unknown_objects_zero_sized(self, medium):
        medium.broadcast(object())
        assert medium.bits_sent() == 0
        assert medium.packets_sent() == 1


class TestTaps:
    def test_tap_sees_every_transmission_pre_loss(self, sim):
        medium = BroadcastMedium(sim, rng=random.Random(7))
        medium.attach("lossy", lambda p, t: None, LinkQuality(1.0, 0.0))
        seen = []
        medium.add_tap(lambda packet, time: seen.append((packet, time)))
        medium.broadcast(PACKET)
        medium.broadcast(FORGED_PACKET)
        assert len(seen) == 2  # taps fire even when every link drops

    def test_tap_gets_send_time(self, sim, medium):
        times = []
        medium.add_tap(lambda packet, time: times.append(time))
        sim.schedule(3.0, lambda: medium.broadcast(PACKET))
        sim.run()
        assert times == [3.0]

    def test_multiple_taps(self, medium):
        a, b = [], []
        medium.add_tap(lambda p, t: a.append(p))
        medium.add_tap(lambda p, t: b.append(p))
        medium.broadcast(PACKET)
        assert a == b == [PACKET]


def _fanout_world(medium_type, seed, delays, rebroadcast=0.0):
    """Attach one receiver per delay to a fresh ``medium_type``, send
    a seeded burst of broadcasts, and log every delivery. A receiver
    rebroadcasts what it hears with probability ``rebroadcast``."""
    sim = Simulator(start=1.0)
    rng = random.Random(seed)
    medium = medium_type(sim, rng=random.Random(seed + 1))
    log = []

    def receiver(name):
        def deliver(packet, at):
            log.append((name, packet.index, at, sim.now))
            if packet.index < 40 and rng.random() < rebroadcast:
                medium.broadcast(MacAnnouncePacket(packet.index + 10, b"r"), exclude=name)

        return deliver

    for index, delay in enumerate(delays):
        loss = GilbertElliottLoss.from_average(0.3, 3.0) if index % 3 == 2 else None
        medium.attach(f"n{index}", receiver(f"n{index}"), LinkQuality(0.2, delay, loss))
    for interval in range(12):
        at = 1.0 + 0.05 * rng.randrange(4)
        exclude = rng.choice([None, None, "n1"])
        sim.schedule(max(at, sim.now), lambda i=interval, x=exclude: medium.broadcast(
            MacAnnouncePacket(i, b"m"), exclude=x
        ))
        sim.run(until=sim.now + rng.choice((0.0, 0.05, 0.3)))
    sim.run()
    return log, medium.deliveries, medium.drops, medium._rng.random()


class TestFanoutOrder:
    """One heap entry per arrival time delivers in the order the old
    per-attachment events fired (``tests/sim/per_receiver.py``)."""

    def test_equal_arrival_from_different_delays_keeps_event_order(self):
        low, high = 0.1, math.nextafter(0.1, 1.0)
        assert low != high and 1.0 + low == 1.0 + high
        delays = (low, high, low, 0.05, high)
        for medium_type in (BroadcastMedium, PerEventMedium):
            sim = Simulator(start=1.0)
            medium = medium_type(sim, rng=random.Random(3))
            order = []
            for index, delay in enumerate(delays):
                medium.attach(
                    f"n{index}",
                    lambda p, t, i=index: order.append((i, t)),
                    LinkQuality(0.0, delay),
                )
            medium.broadcast(PACKET)
            sim.run()
            assert order == [(3, 1.05), (0, 1.1), (1, 1.1), (2, 1.1), (4, 1.1)]

    def test_random_broadcasts_match_per_event_medium(self):
        delays = (0.1, math.nextafter(0.1, 1.0), 0.1, 0.05, 0.0, 0.25)
        for seed in range(6):
            ours = _fanout_world(BroadcastMedium, seed, delays, rebroadcast=0.2)
            oracle = _fanout_world(PerEventMedium, seed, delays, rebroadcast=0.2)
            assert ours == oracle, seed
            assert ours[0]
