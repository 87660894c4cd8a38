"""Transports: how encoded packets reach other endpoints.

One contract, two worlds:

:class:`LoopbackTransport`
    A deterministic in-process network. Datagram deliveries are events
    on a :class:`repro.sim.events.Simulator` (virtual clock from
    :mod:`repro.timesync`, FIFO tie-breaking by scheduling sequence), so
    a loopback run is exactly reproducible and directly comparable to
    the discrete-event simulation — tier-1 tests and CI exercise the
    full encode → proxy → decode → verify path without opening a socket.

:class:`UdpTransport`
    Real UDP datagrams on an asyncio event loop. Endpoints share an
    *epoch* so testbed time (``now()``) is comparable across daemons,
    and delayed sends map onto ``loop.call_later``.

Daemons are written against :class:`Transport` only; whether they run
against virtual or wall-clock time is decided by whoever builds them.
"""

from __future__ import annotations

import asyncio
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.sim.events import Simulator
from repro.timesync.clock import Clock

__all__ = [
    "DatagramHandler",
    "Transport",
    "LoopbackNetwork",
    "LoopbackTransport",
    "UdpTransport",
]

#: Delivery callback: ``(datagram bytes, testbed arrival time) -> None``.
DatagramHandler = Callable[[bytes, float], None]

#: Datagrams above this size would fragment on real links; the loopback
#: transport enforces it too so loopback-green code stays UDP-safe.
MAX_DATAGRAM_BYTES = 1400


class _TransportClock(Clock):
    """A transport's testbed time as a :class:`~repro.timesync.Clock`."""

    def __init__(self, transport: "Transport") -> None:
        self._transport = transport

    def now(self) -> float:
        return self._transport.now()


class Transport(ABC):
    """One endpoint of a testbed network.

    An endpoint has an address, a clock, and a single datagram handler.
    ``send`` accepts an optional extra ``delay`` — the hook the
    fault-injection proxy uses to model latency without sleeping — and
    ``send_many`` sends one datagram to many ``(address, delay)``
    targets at once.
    """

    def __init__(self) -> None:
        self._handler: Optional[DatagramHandler] = None
        self.datagrams_sent = 0
        self.bytes_sent = 0

    @property
    @abstractmethod
    def address(self) -> str:
        """This endpoint's address (loopback name or ``host:port``)."""

    @abstractmethod
    def now(self) -> float:
        """Current testbed time in seconds."""

    @property
    def clock(self) -> Clock:
        """Testbed time as a :class:`~repro.timesync.Clock`: every
        reading equals :meth:`now` at the moment it is taken."""
        return _TransportClock(self)

    @abstractmethod
    def send(self, data: bytes, to: str, delay: float = 0.0) -> None:
        """Send one datagram to ``to``, optionally after ``delay``."""

    def send_many(self, data: bytes, sends: Sequence[Tuple[str, float]]) -> None:
        """Send ``data`` to each ``(address, delay)`` of ``sends``, in
        order: the same as one :meth:`send` per pair."""
        for to, delay in sends:
            self.send(data, to, delay)

    @abstractmethod
    def call_at(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action`` at absolute testbed time ``time``."""

    def set_handler(self, handler: DatagramHandler) -> None:
        """Install the datagram handler (at most one per endpoint)."""
        if self._handler is not None:
            raise ConfigurationError(
                f"endpoint {self.address!r} already has a handler"
            )
        self._handler = handler

    def _dispatch(self, data: bytes, arrival: float) -> None:
        if self._handler is not None:
            self._handler(data, arrival)

    def _account(self, data: bytes, copies: int = 1) -> None:
        if len(data) > MAX_DATAGRAM_BYTES:
            raise ConfigurationError(
                f"datagram of {len(data)} bytes exceeds the"
                f" {MAX_DATAGRAM_BYTES}-byte testbed MTU"
            )
        self.datagrams_sent += copies
        self.bytes_sent += copies * len(data)


class LoopbackNetwork:
    """A deterministic in-process datagram network.

    All endpoints share one :class:`~repro.sim.events.Simulator`: a send
    with delay ``d`` is delivered at ``now + d``, simultaneous deliveries
    fire in scheduling order, and time is virtual — a multi-minute soak
    runs in milliseconds and identically on every machine. One
    :meth:`~Transport.send_many` is one
    :meth:`~repro.sim.events.Simulator.schedule_fanout`, so its targets
    that arrive together share one event.

    Args:
        simulator: share an existing event loop (e.g. to co-simulate
            with in-memory nodes); a fresh one by default.
    """

    def __init__(self, simulator: Optional[Simulator] = None) -> None:
        self._simulator = simulator or Simulator()
        self._clock = self._simulator.clock
        self._endpoints: Dict[str, LoopbackTransport] = {}
        self.datagrams_delivered = 0
        self.datagrams_undeliverable = 0

    @property
    def simulator(self) -> Simulator:
        """The shared event loop (virtual master clock)."""
        return self._simulator

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._simulator.now

    @property
    def addresses(self) -> List[str]:
        """Registered endpoint addresses, in registration order."""
        return list(self._endpoints)

    def endpoint(self, address: str) -> "LoopbackTransport":
        """Create (and register) the endpoint for ``address``."""
        if not address:
            raise ConfigurationError("endpoint address must be non-empty")
        if address in self._endpoints:
            raise ConfigurationError(f"address {address!r} already registered")
        transport = LoopbackTransport(self, address)
        self._endpoints[address] = transport
        return transport

    def run(self, until: Optional[float] = None) -> int:
        """Process deliveries; returns events processed (see Simulator)."""
        return self._simulator.run(until=until)

    def _deliver(self, payload: bytes) -> Callable[[str], None]:
        """The fan-out action delivering ``payload`` to one address."""
        endpoints = self._endpoints
        clock = self._clock

        def deliver(to: str) -> None:
            target = endpoints.get(to)
            if target is None:
                # Real networks drop datagrams to closed ports silently;
                # so does the loopback, but it keeps count.
                self.datagrams_undeliverable += 1
                return
            self.datagrams_delivered += 1
            target._dispatch(payload, clock.now())

        return deliver


class LoopbackTransport(Transport):
    """One endpoint of a :class:`LoopbackNetwork` (built via
    :meth:`LoopbackNetwork.endpoint`, not directly)."""

    def __init__(self, network: LoopbackNetwork, address: str) -> None:
        super().__init__()
        self._network = network
        self._address = address
        self._clock = network.simulator.clock

    @property
    def address(self) -> str:
        return self._address

    @property
    def clock(self) -> Clock:
        """The network's virtual master clock itself (the same readings
        as :meth:`now`, one call deep)."""
        return self._clock

    def now(self) -> float:
        return self._clock.now()

    def send(self, data: bytes, to: str, delay: float = 0.0) -> None:
        self.send_many(data, ((to, delay),))

    def send_many(self, data: bytes, sends: Sequence[Tuple[str, float]]) -> None:
        self._account(data, len(sends))
        now = self._clock.now()
        deliveries: List[Tuple[float, str]] = []
        for to, delay in sends:
            if delay < 0:
                raise ConfigurationError(f"delay must be >= 0, got {delay}")
            deliveries.append((now + delay, to))
        network = self._network
        network.simulator.schedule_fanout(deliveries, network._deliver(bytes(data)))

    def call_at(self, time: float, action: Callable[[], None]) -> None:
        if time < self.now():
            raise SimulationError(
                f"cannot schedule at {time}, loopback time is {self.now()}"
            )
        self._network.simulator.schedule(time, action)

    def __repr__(self) -> str:
        return f"LoopbackTransport({self._address!r})"


def _parse_addr(address: str) -> Tuple[str, int]:
    host, sep, port = address.rpartition(":")
    if not sep or not host:
        raise ConfigurationError(
            f"UDP address must look like host:port, got {address!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ConfigurationError(
            f"UDP port must be an integer, got {port!r}"
        ) from None


class UdpTransport(Transport):
    """An asyncio UDP endpoint.

    Build with :meth:`create` inside a running event loop. All
    endpoints of one testbed should share ``epoch`` (the loop time that
    testbed second 0 maps to) so schedules line up across daemons.
    """

    def __init__(
        self,
        transport: asyncio.DatagramTransport,
        loop: asyncio.AbstractEventLoop,
        epoch: float,
    ) -> None:
        super().__init__()
        self._transport = transport
        self._loop = loop
        self._epoch = epoch
        host, port = transport.get_extra_info("sockname")[:2]
        self._address = f"{host}:{port}"

    @classmethod
    async def create(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        epoch: Optional[float] = None,
    ) -> "UdpTransport":
        """Bind a UDP socket (``port=0`` picks an ephemeral port)."""
        loop = asyncio.get_running_loop()
        holder: Dict[str, UdpTransport] = {}
        transport, _protocol = await loop.create_datagram_endpoint(
            lambda: _Bootstrap(holder), local_addr=(host, port)
        )
        udp = cls(transport, loop, loop.time() if epoch is None else epoch)
        holder["t"] = udp
        return udp

    @property
    def epoch(self) -> float:
        """Loop time corresponding to testbed second 0."""
        return self._epoch

    @property
    def address(self) -> str:
        return self._address

    def now(self) -> float:
        return self._loop.time() - self._epoch

    def send(self, data: bytes, to: str, delay: float = 0.0) -> None:
        self._account(data)
        target = _parse_addr(to)
        if delay <= 0:
            self._transport.sendto(bytes(data), target)
        else:
            self._loop.call_later(
                delay, self._transport.sendto, bytes(data), target
            )

    def call_at(self, time: float, action: Callable[[], None]) -> None:
        self._loop.call_at(self._epoch + time, action)

    def close(self) -> None:
        """Close the underlying socket."""
        self._transport.close()

    def __repr__(self) -> str:
        return f"UdpTransport({self._address!r})"


class _Bootstrap(asyncio.DatagramProtocol):
    """Forwards datagrams to the :class:`UdpTransport` once it exists.

    ``create_datagram_endpoint`` needs the protocol before the transport
    object is constructed; the holder dict breaks the cycle. Datagrams
    racing in before registration (possible only for an attacker who
    learned the port before ``create`` returned) are dropped, exactly as
    a not-yet-listening socket would.
    """

    def __init__(self, holder: Dict[str, "UdpTransport"]) -> None:
        self._holder = holder

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        owner = self._holder.get("t")
        if owner is not None:
            owner._dispatch(data, owner.now())
