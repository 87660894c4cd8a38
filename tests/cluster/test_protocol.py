"""Wire protocol: codecs round-trip, streams frame, garbage raises."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.cluster.protocol import (
    MESSAGE_TYPES,
    MessageStream,
    decode_scenario,
    decode_soak,
    encode_scenario,
    encode_soak,
)
from repro.errors import ClusterError
from repro.net.harness import run_loopback_soak
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def baseline():
    return get_scenario("crowdsensing-baseline-t0").config


@pytest.fixture(scope="module")
def soak(baseline):
    return run_loopback_soak(baseline)


def test_scenario_round_trip(baseline):
    assert decode_scenario(encode_scenario(baseline)) == baseline


def test_decode_scenario_rejects_garbage():
    with pytest.raises(ClusterError):
        decode_scenario("not-a-dict")  # type: ignore[arg-type]
    with pytest.raises(ClusterError):
        decode_scenario({"no_such_field": 1})


def test_soak_round_trip(soak):
    decoded = decode_soak(encode_soak(soak))
    assert decoded == soak


def test_soak_round_trip_survives_json(soak):
    """The encoded form must be plain JSON types end to end."""
    import json

    document = json.loads(json.dumps(encode_soak(soak)))
    assert decode_soak(document) == soak


def test_decode_soak_rejects_missing_fields(soak):
    document = encode_soak(soak)
    document.pop("nodes")
    with pytest.raises(ClusterError, match="malformed soak"):
        decode_soak(document)


def _stream_pair():
    left, right = socket.socketpair()
    return MessageStream(left), MessageStream(right)


def test_message_stream_round_trip():
    a, b = _stream_pair()
    try:
        a.send({"type": "heartbeat", "worker_id": 3, "active": ["r0-s1"]})
        message = b.recv()
        assert message == {
            "type": "heartbeat",
            "worker_id": 3,
            "active": ["r0-s1"],
        }
    finally:
        a.close()
        b.close()


def test_message_stream_frames_coalesced_sends():
    """Two messages in one TCP segment still arrive as two messages."""
    a, b = _stream_pair()
    try:
        a.send({"type": "nack", "task_id": "r0-s0"})
        a.send({"type": "shutdown"})
        assert b.recv()["type"] == "nack"
        assert b.recv()["type"] == "shutdown"
    finally:
        a.close()
        b.close()


def test_message_stream_returns_none_at_eof():
    a, b = _stream_pair()
    a.close()
    try:
        assert b.recv() is None
    finally:
        b.close()


def test_message_stream_rejects_unknown_type_and_garbage():
    left, right = socket.socketpair()
    stream = MessageStream(right)
    try:
        left.sendall(b'{"type":"warp"}\n')
        with pytest.raises(ClusterError, match="unknown cluster message"):
            stream.recv()
        left.sendall(b"not json\n")
        with pytest.raises(ClusterError, match="malformed cluster message"):
            stream.recv()
        left.sendall(b'["no","type"]\n')
        with pytest.raises(ClusterError, match="'type' key"):
            stream.recv()
    finally:
        left.close()
        stream.close()


def test_message_stream_partial_line_at_eof_raises():
    left, right = socket.socketpair()
    stream = MessageStream(right)
    try:
        left.sendall(b'{"type":"heartbeat"')  # no newline
        left.close()
        with pytest.raises(ClusterError, match="mid-message"):
            stream.recv()
    finally:
        stream.close()


def test_send_is_thread_safe():
    """Heartbeat + soak threads share one worker stream; interleaved
    sends must never corrupt framing."""
    a, b = _stream_pair()
    count = 50

    def pump(worker_id):
        for _ in range(count):
            a.send({"type": "heartbeat", "worker_id": worker_id})

    threads = [
        threading.Thread(target=pump, args=(worker_id,))
        for worker_id in range(4)
    ]
    try:
        for thread in threads:
            thread.start()
        received = [b.recv() for _ in range(4 * count)]
        assert all(msg["type"] == "heartbeat" for msg in received)
        for worker_id in range(4):
            assert (
                sum(1 for msg in received if msg["worker_id"] == worker_id)
                == count
            )
    finally:
        for thread in threads:
            thread.join()
        a.close()
        b.close()


def test_message_types_cover_the_protocol():
    assert set(MESSAGE_TYPES) == {
        "register",
        "welcome",
        "lease",
        "nack",
        "heartbeat",
        "result",
        "task-failed",
        "shutdown",
    }


# -- the soak wire document is pinned ----------------------------------------

#: ``json.dumps(encode_soak(FIXED_SOAK), sort_keys=True)`` as the
#: hand-listed codec wrote it before the codec walked the dataclass
#: fields. Workers and coordinators from adjacent commits exchange this
#: document, so it must not change.
PINNED_SOAK_WIRE = (
    '{"datagrams_delivered": 40, "datagrams_dropped": 3, '
    '"datagrams_duplicated": 1, "datagrams_reordered": 2, '
    '"latencies": [0.25, 0.5], "malformed": 0, '
    '"nodes": [{"authenticated": 5, "discarded_unsafe": 0, '
    '"forged_accepted": 0, "lost_no_record": 2, "name": "recv-0", '
    '"packets_received": 15, "peak_buffer_bits": 448, '
    '"rejected_forged": 7, "rejected_weak_auth": 1}, '
    '{"authenticated": 6, "discarded_unsafe": 2, '
    '"forged_accepted": 0, "lost_no_record": 1, "name": "recv-1", '
    '"packets_received": 12, "peak_buffer_bits": 336, '
    '"rejected_forged": 3, "rejected_weak_auth": 0}], '
    '"packets_injected": 11, "sent_authentic": 8, '
    '"simulated_seconds": 1.5, "wall_seconds": 0.125}'
)


@pytest.fixture
def fixed_soak():
    from repro.net.harness import SoakResult
    from repro.sim.metrics import FleetSummary, NodeSummary

    nodes = (
        NodeSummary("recv-0", 5, 2, 7, 1, 0, 0, 15, 448),
        NodeSummary("recv-1", 6, 1, 3, 0, 2, 0, 12, 336),
    )
    return SoakResult(
        fleet=FleetSummary(nodes=nodes, sent_authentic=8),
        latencies=(0.25, 0.5),
        datagrams_delivered=40,
        datagrams_dropped=3,
        datagrams_duplicated=1,
        datagrams_reordered=2,
        malformed=0,
        packets_injected=11,
        simulated_seconds=1.5,
        wall_seconds=0.125,
    )


def test_soak_wire_document_is_pinned(fixed_soak):
    import json

    document = encode_soak(fixed_soak)
    assert json.dumps(document, sort_keys=True) == PINNED_SOAK_WIRE
    assert decode_soak(json.loads(PINNED_SOAK_WIRE)) == fixed_soak


@pytest.mark.parametrize(
    "path, value",
    [
        (("malformed",), "3"),
        (("malformed",), 3.5),
        (("sent_authentic",), True),
        (("wall_seconds",), "fast"),
        (("latencies",), 0.25),
        (("latencies", 1), None),
        (("nodes", 0, "authenticated"), "5"),
        (("nodes", 1, "name"), 1),
        (("nodes", 0), [1, 2]),
        (("nodes",), {"recv-0": 5}),
    ],
)
def test_decode_soak_rejects_wrong_typed_fields(fixed_soak, path, value):
    document = encode_soak(fixed_soak)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(ClusterError, match="malformed soak"):
        decode_soak(document)


def test_decode_soak_rejects_unknown_node_keys(fixed_soak):
    document = encode_soak(fixed_soak)
    document["nodes"][0]["bogus"] = 1
    with pytest.raises(ClusterError, match="bogus"):
        decode_soak(document)
