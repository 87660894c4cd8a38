"""Unit tests for sender/receiver node wrappers."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.protocols.dap import DapReceiver, DapSender
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium, LinkQuality
from repro.sim.nodes import ReceiverNode, SenderNode
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

SEED = b"nodes-seed"


@pytest.fixture
def world():
    sim = Simulator()
    medium = BroadcastMedium(sim, rng=random.Random(0))
    schedule = IntervalSchedule(0.0, 1.0)
    condition = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
    sender = DapSender(SEED, chain_length=12)
    return sim, medium, schedule, condition, sender


class TestSenderNode:
    def test_spreads_packets_within_interval(self, world):
        sim, medium, schedule, _cond, sender = world
        times = []
        medium.attach("probe", lambda p, t: times.append(sim.now))
        node = SenderNode("sender", sim, medium, sender, schedule, intervals=1)
        node.start()
        sim.run()
        assert times
        assert all(0.0 <= t <= 1.01 for t in times)

    def test_counts_packets(self, world):
        sim, medium, schedule, _cond, sender = world
        medium.attach("probe", lambda p, t: None)
        node = SenderNode("sender", sim, medium, sender, schedule, intervals=5)
        node.start()
        sim.run()
        # 5 announces + 4 reveals (interval 1 has no reveal)
        assert node.packets_sent == 9

    def test_does_not_hear_itself(self, world):
        sim, medium, schedule, condition, sender = world
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        own = ReceiverNode("sender", sim, receiver)
        own.attach(medium)
        node = SenderNode("sender", sim, medium, sender, schedule, intervals=3)
        node.start()
        sim.run()
        assert receiver.stats.packets_received == 0

    def test_validation(self, world):
        sim, medium, schedule, _cond, sender = world
        with pytest.raises(ConfigurationError):
            SenderNode("s", sim, medium, sender, schedule, intervals=0)


class TestReceiverNode:
    def test_receives_and_journals_events(self, world):
        sim, medium, schedule, condition, sender = world
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        node = ReceiverNode("r", sim, receiver)
        node.attach(medium)
        SenderNode("sender", sim, medium, sender, schedule, intervals=6).start()
        sim.run()
        assert receiver.stats.packets_received > 0
        assert receiver.stats.authenticated == 5

    def test_clock_skew_within_bound_is_harmless(self, world):
        sim, medium, schedule, condition, sender = world
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        node = ReceiverNode("r", sim, receiver, clock_offset=0.005)
        node.attach(medium)
        SenderNode("sender", sim, medium, sender, schedule, intervals=6).start()
        sim.run()
        assert receiver.stats.authenticated == 5
        assert receiver.stats.discarded_unsafe == 0

    def test_excessive_clock_skew_discards_packets(self, world):
        """A receiver whose clock lags far beyond the sync bound sees
        announcements as unsafe — the deployment-assumption failure mode."""
        sim, medium, schedule, condition, sender = world
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        node = ReceiverNode("r", sim, receiver, clock_offset=2.0)
        node.attach(medium)
        SenderNode("sender", sim, medium, sender, schedule, intervals=6).start()
        sim.run()
        assert receiver.stats.discarded_unsafe > 0
        assert receiver.stats.authenticated < 5

    def test_local_time_reflects_offset(self, world):
        sim, _medium, _schedule, condition, sender = world
        receiver = DapReceiver(sender.chain.commitment, condition, b"local")
        node = ReceiverNode("r", sim, receiver, clock_offset=1.5)
        assert node.local_time == pytest.approx(1.5)
