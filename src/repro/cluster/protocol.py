"""Wire protocol between the coordinator and its workers.

Newline-delimited JSON over a TCP stream — deliberately boring, so a
worker can run on another host with nothing but the standard library.
Message types (``"type"`` field):

==================  ==================================================
``register``        worker → coordinator: hello (+ requested id, pid)
``welcome``         coordinator → worker: assigned id and run knobs
                    (max_inflight, heartbeat_interval, stall_seconds)
``lease``           coordinator → worker: run this task's scenario
``nack``            worker → coordinator: lease refused, queue full
``heartbeat``       worker → coordinator: liveness + active task ids,
                    RSS, and the perf-registry delta since last beat
``result``          worker → coordinator: the finished SoakResult,
                    echoing the scenario it actually ran
``task-failed``     worker → coordinator: the task raised; message
                    carries the error text
``shutdown``        coordinator → worker: drain and exit
==================  ==================================================

The scenario/soak codecs round-trip the harness dataclasses through
plain JSON types. The soak codec walks the dataclass fields of
:class:`~repro.net.harness.SoakResult` (its ``fleet`` travels as the
``nodes`` list followed by the fleet's ``sent_authentic``), so a new
tally field crosses the wire without another list to edit. Every decode
validates shape and scalar types and raises
:class:`~repro.errors.ClusterError` on garbage rather than crashing a
daemon thread with a ``KeyError``.
"""

from __future__ import annotations

import json
import socket
import threading
from collections import deque
from dataclasses import asdict, fields, is_dataclass
from functools import lru_cache
from typing import (
    Any, Deque, Dict, Optional, Tuple, get_args, get_origin, get_type_hints,
)

from repro.devtools.sanitizers.locks import tracked_lock
from repro.devtools.sanitizers.resources import release_resource, track_resource
from repro.errors import ClusterError
from repro.net.harness import SoakResult
from repro.sim.metrics import FleetSummary, NodeSummary
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "MESSAGE_TYPES",
    "MessageStream",
    "decode_scenario",
    "decode_soak",
    "encode_scenario",
    "encode_soak",
]

MESSAGE_TYPES = (
    "register",
    "welcome",
    "lease",
    "nack",
    "heartbeat",
    "result",
    "task-failed",
    "shutdown",
)


def encode_scenario(scenario: ScenarioConfig) -> Dict[str, Any]:
    """A :class:`ScenarioConfig` as a JSON-ready dict."""
    return asdict(scenario)


def decode_scenario(document: Dict[str, Any]) -> ScenarioConfig:
    """Rebuild a :class:`ScenarioConfig`; unknown keys are rejected by
    the dataclass constructor, bad values by its own validation."""
    if not isinstance(document, dict):
        raise ClusterError(f"scenario document must be an object, got {document!r}")
    try:
        return ScenarioConfig(**document)
    except TypeError as exc:
        raise ClusterError(f"malformed scenario document: {exc}") from exc


def encode_soak(soak: SoakResult) -> Dict[str, Any]:
    """A :class:`SoakResult` as a JSON-ready dict, keyed in field order."""
    document: Dict[str, Any] = {}
    for spec in fields(SoakResult):
        value = getattr(soak, spec.name)
        if spec.name == "fleet":
            document["nodes"] = [asdict(node) for node in value.nodes]
            document["sent_authentic"] = value.sent_authentic
        elif isinstance(value, tuple):
            document[spec.name] = list(value)
        else:
            document[spec.name] = value
    return document


def decode_soak(document: Dict[str, Any]) -> SoakResult:
    """Rebuild a :class:`SoakResult` from :func:`encode_soak` output."""
    if not isinstance(document, dict):
        raise ClusterError(f"soak document must be an object, got {document!r}")
    try:
        nodes = _decoded(Tuple[NodeSummary, ...], document["nodes"], "nodes")
        sent_authentic = _decoded(int, document["sent_authentic"], "sent_authentic")
        values = {
            name: _decoded(kind, document[name], name)
            for name, kind in _field_types(SoakResult)
            if name != "fleet"
        }
    except KeyError as exc:
        raise ClusterError(f"malformed soak document: missing {exc}") from exc
    fleet = FleetSummary(nodes=nodes, sent_authentic=sent_authentic)
    return SoakResult(fleet=fleet, **values)


@lru_cache(maxsize=None)
def _field_types(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``(field name, annotated type)`` pairs of a dataclass, in order."""
    hints = get_type_hints(cls)
    return tuple((spec.name, hints[spec.name]) for spec in fields(cls))


def _decoded(kind: Any, value: Any, name: str) -> Any:
    """``value`` as the JSON form of ``kind``: a scalar, a tuple of
    them, or a dataclass of scalar fields (unknown keys rejected)."""
    if is_dataclass(kind):
        if not isinstance(value, dict):
            raise ClusterError(f"malformed soak document: {name!r} is not an object")
        known = dict(_field_types(kind))
        unknown = set(value) - set(known)
        if unknown:
            raise ClusterError(
                f"malformed soak document: unknown {name!r} keys {sorted(unknown)}"
            )
        return kind(
            **{
                key: _decoded(key_kind, value[key], key)
                for key, key_kind in known.items()
            }
        )
    if get_origin(kind) is tuple:
        if not isinstance(value, list):
            raise ClusterError(f"malformed soak document: {name!r} is not a list")
        item_kind = get_args(kind)[0]
        return tuple(_decoded(item_kind, item, name) for item in value)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ClusterError(
            f"malformed soak document: {name!r} must be {kind.__name__},"
            f" got {value!r}"
        )
    return kind(value)


class MessageStream:
    """One JSON-lines message channel over a connected socket.

    ``send`` is safe from multiple threads (heartbeat + soak threads
    share a worker's stream); ``recv`` is meant for a single reader
    thread and keeps its own line buffer so a slow sender never splits
    a message. ``recv`` returns ``None`` at EOF — the peer is gone.
    """

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        track_resource("socket", str(id(sock)), "cluster message stream")
        self._send_lock = tracked_lock("cluster.stream.send")
        self._buffer = b""
        self._lines: Deque[bytes] = deque()
        self._closed = False

    def send(self, message: Dict[str, Any]) -> None:
        """Write one message; raises :class:`OSError` when the peer is
        gone (callers treat that as a dead worker/coordinator)."""
        payload = json.dumps(message, separators=(",", ":")) + "\n"
        with self._send_lock:
            self._sock.sendall(payload.encode("utf-8"))

    def recv(self) -> Optional[Dict[str, Any]]:
        """Read the next message; ``None`` on a clean EOF."""
        while True:
            if self._lines:
                return self._decode(self._lines.popleft())
            newline = self._buffer.find(b"\n")
            if newline != -1:
                line, self._buffer = (
                    self._buffer[:newline],
                    self._buffer[newline + 1 :],
                )
                self._lines.append(line)
                continue
            chunk = self._sock.recv(65536)
            if not chunk:
                if self._buffer:
                    raise ClusterError(
                        "peer closed the connection mid-message"
                    )
                return None
            self._buffer += chunk

    @staticmethod
    def _decode(line: bytes) -> Dict[str, Any]:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ClusterError(
                f"malformed cluster message: {line[:120]!r}"
            ) from exc
        if not isinstance(message, dict) or "type" not in message:
            raise ClusterError(
                f"cluster message must be an object with a 'type' key,"
                f" got {line[:120]!r}"
            )
        if message["type"] not in MESSAGE_TYPES:
            raise ClusterError(
                f"unknown cluster message type {message['type']!r}"
            )
        return message

    def close(self) -> None:
        """Tear the channel down; safe to call twice."""
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # already disconnected
        try:
            self._sock.close()
        except OSError:
            pass
        release_resource("socket", str(id(self._sock)))
