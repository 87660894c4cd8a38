"""Loopback transport semantics: delivery, ordering, accounting."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.transport import MAX_DATAGRAM_BYTES, LoopbackNetwork, Transport


@pytest.fixture
def network():
    return LoopbackNetwork()


class TestEndpoints:
    def test_addresses_register_in_order(self, network):
        network.endpoint("a")
        network.endpoint("b")
        assert network.addresses == ["a", "b"]

    def test_duplicate_address_rejected(self, network):
        network.endpoint("a")
        with pytest.raises(ConfigurationError):
            network.endpoint("a")

    def test_empty_address_rejected(self, network):
        with pytest.raises(ConfigurationError):
            network.endpoint("")


class TestDelivery:
    def test_datagram_reaches_handler_with_arrival_time(self, network):
        a = network.endpoint("a")
        b = network.endpoint("b")
        seen = []
        b.set_handler(lambda data, at: seen.append((data, at)))
        a.send(b"hello", "b", delay=0.25)
        network.run()
        assert seen == [(b"hello", 0.25)]
        assert network.datagrams_delivered == 1

    def test_unknown_address_drops_silently_but_counts(self, network):
        a = network.endpoint("a")
        a.send(b"x", "nowhere")
        network.run()
        assert network.datagrams_undeliverable == 1
        assert network.datagrams_delivered == 0

    def test_payload_snapshot_taken_at_send(self, network):
        a = network.endpoint("a")
        b = network.endpoint("b")
        seen = []
        b.set_handler(lambda data, at: seen.append(data))
        payload = bytearray(b"mutable")
        a.send(payload, "b")
        payload[0] = 0
        network.run()
        assert seen == [b"mutable"]

    def test_equal_time_sends_deliver_fifo(self, network):
        a = network.endpoint("a")
        b = network.endpoint("b")
        seen = []
        b.set_handler(lambda data, at: seen.append(data))
        for i in range(5):
            a.send(bytes([i]), "b", delay=1.0)
        network.run()
        assert seen == [bytes([i]) for i in range(5)]

    def test_negative_delay_rejected(self, network):
        a = network.endpoint("a")
        network.endpoint("b")
        with pytest.raises(ConfigurationError):
            a.send(b"x", "b", delay=-0.1)


class TestAccounting:
    def test_send_counters(self, network):
        a = network.endpoint("a")
        network.endpoint("b")
        a.send(b"xyz", "b")
        a.send(b"pq", "b")
        assert a.datagrams_sent == 2
        assert a.bytes_sent == 5

    def test_oversized_datagram_rejected(self, network):
        a = network.endpoint("a")
        network.endpoint("b")
        with pytest.raises(ConfigurationError):
            a.send(b"z" * (MAX_DATAGRAM_BYTES + 1), "b")

    def test_single_handler_enforced(self, network):
        a = network.endpoint("a")
        a.set_handler(lambda data, at: None)
        with pytest.raises(ConfigurationError):
            a.set_handler(lambda data, at: None)


class TestTimers:
    def test_call_at_fires_at_virtual_time(self, network):
        a = network.endpoint("a")
        fired = []
        a.call_at(2.0, lambda: fired.append(a.now()))
        network.run(until=1.0)
        assert fired == []
        network.run()
        assert fired == [2.0]

    def test_call_at_in_the_past_rejected(self, network):
        a = network.endpoint("a")
        network.endpoint("b")
        a.send(b"x", "b", delay=1.0)
        network.run()
        with pytest.raises(SimulationError):
            a.call_at(0.5, lambda: None)


def _one_target_world(send):
    """Send a few datagrams through ``send(endpoint, data, to, delay)``
    and record everything a caller can observe."""
    network = LoopbackNetwork()
    a = network.endpoint("a")
    seen = []
    for name in ("b", "c"):
        network.endpoint(name).set_handler(
            lambda data, at, n=name: seen.append((n, data, at, network.simulator.processed))
        )
    for data, to, delay in [(b"1", "b", 0.5), (b"22", "c", 0.5), (b"3", "nowhere", 0.0),
                            (b"4", "b", 0.0), (b"55", "c", 0.25)]:
        send(a, data, to, delay)
    processed = network.run()
    return (seen, processed, a.datagrams_sent, a.bytes_sent,
            network.datagrams_delivered, network.datagrams_undeliverable)


class TestSendMany:
    def test_one_target_equals_send(self):
        via_send = _one_target_world(lambda ep, data, to, delay: ep.send(data, to, delay))
        via_many = _one_target_world(
            lambda ep, data, to, delay: ep.send_many(data, [(to, delay)])
        )
        assert via_many == via_send
        assert via_send[2:] == (5, 7, 4, 1)

    def test_fanout_delivers_in_send_order_and_counts_each_copy(self, network):
        a = network.endpoint("a")
        seen = []
        for name in ("b", "c"):
            network.endpoint(name).set_handler(
                lambda data, at, n=name: seen.append((n, at))
            )
        a.send_many(b"xy", [("c", 0.5), ("b", 0.25), ("b", 0.5), ("c", 0.25)])
        assert network.simulator.pending == 2
        network.run()
        assert seen == [("b", 0.25), ("c", 0.25), ("c", 0.5), ("b", 0.5)]
        assert (a.datagrams_sent, a.bytes_sent) == (4, 8)

    def test_negative_delay_schedules_nothing(self, network):
        a = network.endpoint("a")
        with pytest.raises(ConfigurationError):
            a.send_many(b"x", [("a", 0.0), ("a", -1.0)])
        assert network.simulator.pending == 0

    def test_base_class_loops_over_send(self):
        class Recording(Transport):
            address = "r"

            def __init__(self):
                super().__init__()
                self.sent = []

            def now(self):
                return 0.0

            def send(self, data, to, delay=0.0):
                self.sent.append((data, to, delay))

            def call_at(self, time, action):
                raise AssertionError("not used")

        transport = Recording()
        transport.send_many(b"d", [("x", 0.1), ("y", 0.0), ("x", 0.1)])
        assert transport.sent == [(b"d", "x", 0.1), (b"d", "y", 0.0), (b"d", "x", 0.1)]
