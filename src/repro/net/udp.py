"""Real-socket soaks: the testbed over asyncio UDP on localhost.

The same daemons that run on the loopback transport run here unchanged
— only the transport differs. Three entry points, all synchronous
wrappers around guarded asyncio worlds (every world runs under
:func:`asyncio.wait_for`, so a wedged event loop fails the run instead
of hanging the process):

- :func:`run_udp_soak` — the closed-world soak ``repro loadtest
  --transport udp`` runs: broadcaster → fault proxy → receiver fleet
  (→ optional flood attacker), every daemon on its own ephemeral
  socket, finishing with a :class:`~repro.net.harness.SoakResult`.
- :func:`run_udp_serve` — ``repro serve``: a broadcaster plus receiver
  fleet on *well-known* consecutive ports, so a separate process (for
  instance ``repro attack`` in another terminal) can flood it. Prints
  nothing itself; returns the fleet's soak result for the CLI to
  report.
- :func:`run_udp_attack` — ``repro attack``: a constant-rate forged
  announcement flood against any host:port.

UDP soaks run in real time: ``intervals * interval_duration`` of wall
clock, plus a short drain. Keep the product small.
"""

from __future__ import annotations

import asyncio
import time
from typing import Awaitable, Callable, List, Optional, TypeVar

from repro.errors import ConfigurationError
from repro.net.daemons import Broadcaster, ReceiverDaemon
from repro.net.flood import FloodAttacker, ProvenanceRegistry
from repro.net.harness import LoadTestConfig, SoakResult, derive_soak_world
from repro.net.proxy import FaultInjectionProxy
from repro.net.transport import UdpTransport
from repro.sim.metrics import FleetSummary
from repro.timesync.intervals import IntervalSchedule

__all__ = ["run_udp_soak", "run_udp_serve", "run_udp_attack"]

T = TypeVar("T")

#: Wall-clock slack past the testbed horizon for socket drain.
_DRAIN_SECONDS = 0.25


def _run_guarded(factory: Callable[[], Awaitable[T]], timeout: float) -> T:
    """Run a coroutine world under a hang guard in a fresh event loop."""

    async def guarded() -> T:
        return await asyncio.wait_for(factory(), timeout=timeout)

    return asyncio.run(guarded())


async def _soak_world(
    config: LoadTestConfig, base_port: Optional[int] = None
) -> SoakResult:
    started = time.perf_counter()
    scenario = config.scenario_for_shard(0)
    world = derive_soak_world(scenario)
    schedule = world.schedule
    host = config.udp_host

    loop = asyncio.get_running_loop()
    epoch = loop.time()
    transports: List[UdpTransport] = []

    async def open_transport(port: int = 0) -> UdpTransport:
        transport = await UdpTransport.create(host, port, epoch=epoch)
        transports.append(transport)
        return transport

    try:
        registry = ProvenanceRegistry()
        daemons: List[ReceiverDaemon] = []
        for i, receiver in enumerate(world.receivers):
            port = 0 if base_port is None else base_port + i
            endpoint = await open_transport(port)
            daemons.append(ReceiverDaemon(f"recv-{i}", endpoint, receiver, registry))

        proxy: Optional[FaultInjectionProxy] = None
        if base_port is None:
            # Closed world: everything goes through the fault proxy.
            proxy_ep = await open_transport()
            proxy = FaultInjectionProxy(
                proxy_ep,
                [daemon.address for daemon in daemons],
                config.proxy_config(),
                rng=world.seeds.medium,
            )
            ingress = proxy_ep.address
            destinations = [ingress]
        else:
            # Serve mode: broadcast straight at the well-known ports so
            # an external attacker can reach the same sockets.
            destinations = [t.address for t in transports]
            ingress = destinations[0]

        sender_ep = await open_transport()
        broadcaster = Broadcaster(
            sender_ep, destinations, world.sender, schedule, config.intervals
        )
        broadcaster.start()

        attacker: Optional[FloodAttacker] = None
        if base_port is None and (
            config.attack_rate > 0 or config.attack_fraction > 0
        ):
            attacker_ep = await open_transport()
            attacker = FloodAttacker(
                attacker_ep,
                [ingress],
                registry=registry,
                factory=world.factory,
                rng=world.seeds.attacker(),
            )
            if config.attack_rate > 0:
                attacker.schedule_rate(
                    config.attack_rate,
                    duration=schedule.end_of(config.intervals),
                    schedule=schedule,
                )
            else:
                attacker.schedule_bursts(
                    schedule,
                    config.attack_fraction,
                    world.authentic_copies,
                    config.intervals,
                    burst_fraction=config.attack_burst_fraction,
                )

        horizon = schedule.end_of(config.intervals) + 2 * config.interval_duration
        await asyncio.sleep(max(0.0, epoch + horizon - loop.time()) + _DRAIN_SECONDS)
    finally:
        for transport in transports:
            transport.close()
        await asyncio.sleep(0)  # let transport closures run

    latencies: List[float] = []
    for daemon in daemons:
        latencies.extend(daemon.latencies)
    fleet = FleetSummary(
        nodes=tuple(daemon.node_summary() for daemon in daemons),
        sent_authentic=world.sent_authentic,
    )
    return SoakResult(
        fleet=fleet,
        latencies=tuple(latencies),
        datagrams_delivered=sum(daemon.datagrams_received for daemon in daemons),
        datagrams_dropped=proxy.dropped if proxy else 0,
        datagrams_duplicated=proxy.duplicated if proxy else 0,
        datagrams_reordered=proxy.reordered if proxy else 0,
        malformed=sum(daemon.malformed for daemon in daemons),
        packets_injected=attacker.packets_injected if attacker else 0,
        simulated_seconds=horizon,
        wall_seconds=time.perf_counter() - started,
    )


def _soak_timeout(config: LoadTestConfig) -> float:
    horizon = config.intervals * config.interval_duration
    return 3.0 * horizon + 10.0


def run_udp_soak(config: LoadTestConfig) -> SoakResult:
    """The closed-world UDP soak behind ``loadtest --transport udp``."""
    if config.transport != "udp":
        raise ConfigurationError(
            f"run_udp_soak needs transport='udp', got {config.transport!r}"
        )
    return _run_guarded(lambda: _soak_world(config), _soak_timeout(config))


def run_udp_serve(config: LoadTestConfig, port: int) -> SoakResult:
    """``repro serve``: receivers on ports ``port..port+n-1``, live.

    The broadcaster targets the receivers directly (no proxy), so any
    external process that floods those ports attacks the same sockets.
    External forgeries carry no registry entry and therefore count as
    what a real deployment would see: rejected forgeries and — if the
    flood wins buffer slots — a degraded authentication rate.
    """
    if not 1 <= port <= 65535 - config.receivers:
        raise ConfigurationError(
            f"port must leave room for {config.receivers} receivers, got {port}"
        )
    return _run_guarded(
        lambda: _soak_world(config, base_port=port), _soak_timeout(config)
    )


async def _attack_world(
    host: str, port: int, rate: float, duration: float, interval_duration: float
) -> int:
    loop = asyncio.get_running_loop()
    epoch = loop.time()
    transport = await UdpTransport.create(host="0.0.0.0", port=0, epoch=epoch)
    try:
        attacker = FloodAttacker(transport, [f"{host}:{port}"])
        attacker.schedule_rate(
            rate, duration, IntervalSchedule(0.0, interval_duration)
        )
        await asyncio.sleep(duration + _DRAIN_SECONDS)
        return attacker.packets_injected
    finally:
        transport.close()


def run_udp_attack(
    host: str,
    port: int,
    rate: float,
    duration: float,
    interval_duration: float = 1.0,
) -> int:
    """``repro attack``: flood ``host:port`` with forged announcements.

    Returns the number of forged packets injected. This is a testbed
    tool: point it only at deployments you stood up yourself (for
    instance ``repro serve`` in another terminal).
    """
    return _run_guarded(
        lambda: _attack_world(host, port, rate, duration, interval_duration),
        3.0 * duration + 10.0,
    )
