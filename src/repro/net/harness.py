"""The load harness: timed soaks and ``repro loadtest``.

Two entry points:

:func:`run_loopback_soak`
    One deterministic end-to-end run over the loopback transport. The
    world is assembled from a plain :class:`~repro.sim.scenario.
    ScenarioConfig` through the *same* protocol builder and the same
    :class:`~repro.sim.draws.SeedLadder` as
    :func:`~repro.sim.scenario.run_scenario`, the fault proxy draws its
    delivery decisions from the ladder's ``medium`` stream, and the
    loopback network shares the simulator's FIFO tie-breaking —
    so at equal seeds the over-the-wire soak reproduces the in-memory
    simulation's per-node outcome tallies exactly. That parity is the
    subsystem's correctness anchor (asserted in ``tests/net``).

:func:`run_loadtest`
    The ``repro loadtest`` engine: shards receivers across
    :class:`~repro.engine.ExperimentSpec` tasks (so ``--jobs N`` fans a
    soak over N worker processes), runs each shard as a timed soak —
    loopback by default, real UDP sockets with ``transport="udp"`` —
    and merges everything into a JSON-ready :class:`LoadTestReport`
    (authentication rate, forged-accepted, buffer high-water,
    packets/sec, p50/p99 decode-to-verify latency).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import perf
from repro.engine import Executor, run_tasks
from repro.errors import ConfigurationError
from repro.net.daemons import Broadcaster, ReceiverDaemon
from repro.net.flood import FloodAttacker, ProvenanceRegistry
from repro.net.proxy import FaultInjectionProxy, ProxyConfig
from repro.net.transport import LoopbackNetwork
from repro.sim.draws import SeedLadder
from repro.sim.metrics import FleetSummary
from repro.scenarios.families import NET_PROTOCOLS
from repro.sim.scenario import (
    ScenarioConfig,
    build_two_phase_protocol,
    shard_scenarios,
)
from repro.sim.workloads import workload_for
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

__all__ = [
    "LOADTEST_SCHEMA_VERSION",
    "SoakWorld",
    "SoakResult",
    "LoadTestConfig",
    "LoadTestReport",
    "derive_soak_world",
    "run_loopback_soak",
    "run_loadtest",
    "predicted_soak",
    "merge_soaks",
    "percentile",
]

#: Version of the :class:`LoadTestReport` JSON schema. Bump when a
#: field is added/renamed so cluster-merged reports written by one
#: version stay recognisable to another; ``LoadTestReport.from_dict``
#: accepts (and ignores) the field plus any unknown keys.
LOADTEST_SCHEMA_VERSION = 1

# Canonical table: repro.scenarios.families (the codec covers every
# family; the daemon builders only the two-phase).
_NET_PROTOCOLS = NET_PROTOCOLS


@dataclass
class SoakWorld:
    """The protocol half of a soak, transport-agnostic.

    Both transports build through :func:`derive_soak_world`, and
    ``seeds`` is the same :class:`~repro.sim.draws.SeedLadder`
    :func:`run_scenario` uses: the fault proxy takes ``seeds.medium``,
    and an attacker, when one is built, takes ``seeds.attacker()``
    (which draws the attacker seed only then, as the DES does).
    """

    schedule: IntervalSchedule
    sender: Any
    receivers: List[Any]
    factory: Any
    authentic_copies: int
    sent_authentic: int
    seeds: SeedLadder


def derive_soak_world(config: ScenarioConfig) -> SoakWorld:
    """Derive every protocol object and seeded stream a soak needs.

    Only the two-phase protocols (``dap``, ``tesla_pp``) speak the
    testbed today; the codec covers the rest of the family, their
    builders do not yet.
    """
    if config.protocol not in _NET_PROTOCOLS:
        raise ConfigurationError(
            f"live testbed supports protocols {_NET_PROTOCOLS},"
            f" got {config.protocol!r}"
        )
    seeds = SeedLadder(config.seed)
    schedule = IntervalSchedule(0.0, config.interval_duration)
    sync = LooseTimeSync(config.max_offset)
    workload = workload_for(config)
    condition = SecurityCondition(schedule, sync, config.disclosure_delay)
    sender, receivers, factory, authentic_copies, sent_authentic = (
        build_two_phase_protocol(config, condition, workload, seeds)
    )
    return SoakWorld(
        schedule=schedule,
        sender=sender,
        receivers=receivers,
        factory=factory,
        authentic_copies=authentic_copies,
        sent_authentic=sent_authentic,
        seeds=seeds,
    )


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``samples`` (``q`` in [0, 100])."""
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError(f"percentile q must be in [0, 100], got {q}")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(int(q / 100.0 * len(ordered)), len(ordered) - 1)
    return ordered[rank]


@dataclass(frozen=True)
class SoakResult:
    """One timed end-to-end run of the testbed.

    Attributes:
        fleet: per-node and aggregate outcome tallies, in the same
            vocabulary as the simulator (:class:`FleetSummary`); its
            ``sent_authentic`` counts the distinct verifiable authentic
            messages sent.
        latencies: decode-to-verify wall latencies, seconds, across the
            fleet (sample-capped per daemon).
        datagrams_delivered: datagrams the transport delivered.
        datagrams_dropped: deliveries the fault proxy dropped.
        datagrams_duplicated / datagrams_reordered: fault counts.
        malformed: datagrams that failed strict decoding.
        packets_injected: forged datagrams the attacker sent.
        simulated_seconds: testbed-clock span of the run.
        wall_seconds: real time the run took to execute.
    """

    fleet: FleetSummary
    latencies: Tuple[float, ...]
    datagrams_delivered: int
    datagrams_dropped: int
    datagrams_duplicated: int
    datagrams_reordered: int
    malformed: int
    packets_injected: int
    simulated_seconds: float
    wall_seconds: float

    @property
    def authentication_rate(self) -> float:
        """Fleet-mean authenticated fraction of verifiable messages."""
        return self.fleet.mean_authentication_rate

    @property
    def attack_success_rate(self) -> float:
        """Fleet-mean fraction of verifiable messages the flood killed."""
        return self.fleet.mean_attack_success_rate


def _soak_proxy_config(config: ScenarioConfig) -> ProxyConfig:
    """The fault model equivalent to the scenario's channel settings."""
    return ProxyConfig(
        loss_probability=config.loss_probability,
        loss_mean_burst=config.loss_mean_burst,
        delay=config.link_delay,
    )


def run_loopback_soak(
    config: ScenarioConfig,
    proxy_config: Optional[ProxyConfig] = None,
    attack_rate: Optional[float] = None,
) -> SoakResult:
    """Run ``config`` end-to-end over the loopback transport.

    With default arguments this mirrors :func:`run_scenario` exactly
    (see the module docs); ``proxy_config`` adds faults the in-memory
    medium cannot model (jitter, duplication, reordering) and
    ``attack_rate`` switches the flood from the paper's per-interval
    bursts to a constant packets-per-second stream — both break strict
    parity, deliberately.

    Only the two-phase protocols (``dap``, ``tesla_pp``) speak the
    testbed today; the codec covers the rest of the family, their
    builders do not yet.
    """
    started = time.perf_counter()
    world = derive_soak_world(config)
    schedule = world.schedule

    network = LoopbackNetwork()
    sender_ep = network.endpoint("sender")
    proxy_ep = network.endpoint("proxy")
    registry = ProvenanceRegistry()
    daemons: List[ReceiverDaemon] = []
    for i, receiver in enumerate(world.receivers):
        endpoint = network.endpoint(f"recv-{i}")
        daemons.append(ReceiverDaemon(f"recv-{i}", endpoint, receiver, registry))
    proxy = FaultInjectionProxy(
        proxy_ep,
        [daemon.name for daemon in daemons],
        proxy_config or _soak_proxy_config(config),
        rng=world.seeds.medium,
    )
    broadcaster = Broadcaster(
        sender_ep, [proxy_ep.address], world.sender, schedule, config.intervals
    )
    broadcaster.start()

    attacker: Optional[FloodAttacker] = None
    if attack_rate is not None or config.attack_fraction > 0.0:
        attacker = FloodAttacker(
            network.endpoint("attacker"),
            [proxy_ep.address],
            registry=registry,
            factory=world.factory,
            rng=world.seeds.attacker(),
        )
        if attack_rate is not None:
            attacker.schedule_rate(
                attack_rate,
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
    network.run(until=horizon)
    network.run()  # drain in-flight deliveries past the horizon

    latencies: List[float] = []
    for daemon in daemons:
        latencies.extend(daemon.latencies)
    fleet = FleetSummary(
        nodes=tuple(daemon.node_summary() for daemon in daemons),
        sent_authentic=world.sent_authentic,
    )
    wall = time.perf_counter() - started
    active = perf.ACTIVE
    if active is not None:
        active.observe("net.soak_wall_seconds", wall)
        active.incr("net.datagrams_delivered", network.datagrams_delivered)
        active.incr("net.datagrams_dropped", proxy.dropped)
    return SoakResult(
        fleet=fleet,
        latencies=tuple(latencies),
        datagrams_delivered=network.datagrams_delivered,
        datagrams_dropped=proxy.dropped,
        datagrams_duplicated=proxy.duplicated,
        datagrams_reordered=proxy.reordered,
        malformed=sum(daemon.malformed for daemon in daemons),
        packets_injected=attacker.packets_injected if attacker else 0,
        simulated_seconds=network.now,
        wall_seconds=wall,
    )


@dataclass(frozen=True)
class LoadTestConfig(ScenarioConfig):
    """Everything ``repro loadtest`` needs: a scenario plus the net knobs.

    The scenario fields are :class:`ScenarioConfig`'s, with the soak's
    own defaults for three of them (4 receivers, 40 intervals of 0.05 s);
    ``receivers`` is the whole fleet, split across ``shards``, and
    ``link_delay`` is the proxy's propagation delay. The net knobs:

    Attributes:
        transport: ``"loopback"`` (deterministic, virtual time) or
            ``"udp"`` (real sockets on localhost, wall time). UDP runs
            in real time — keep ``intervals * interval_duration`` short
            there.
        shards: independent soak worlds (:func:`~repro.sim.scenario.
            shard_scenarios`); each is one engine task, so ``--jobs``
            can execute them on separate cores.
        attack_rate: constant forged packets/sec instead of the
            scenario's per-interval bursts (overrides
            ``attack_fraction`` when > 0).
        jitter / duplicate_probability / reorder_probability:
            proxy-only faults, on top of the scenario's loss and delay.
        udp_host: the address UDP sockets bind to.

    With ``engine="vectorized"`` each shard's per-node outcome tallies
    are predicted through the array scenario engine
    (:mod:`repro.sim.fleet`) instead of driving daemons — orders of
    magnitude faster, but transport-level counters (datagrams,
    latencies) read zero. That only holds on the loopback transport
    with the faults the in-memory medium models (no jitter /
    duplication / reordering / rate-based floods).
    """

    receivers: int = 4
    intervals: int = 40
    interval_duration: float = 0.05
    transport: str = "loopback"
    shards: int = 1
    attack_rate: float = 0.0
    jitter: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    udp_host: str = "127.0.0.1"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.protocol not in _NET_PROTOCOLS:
            raise ConfigurationError(
                f"protocol must be one of {_NET_PROTOCOLS}, got {self.protocol!r}"
            )
        if self.transport not in ("loopback", "udp"):
            raise ConfigurationError(
                f"transport must be 'loopback' or 'udp', got {self.transport!r}"
            )
        if not 1 <= self.shards <= self.receivers:
            raise ConfigurationError(
                f"shards must be in 1..receivers ({self.receivers}),"
                f" got {self.shards}"
            )
        if self.attack_rate < 0:
            raise ConfigurationError(
                f"attack_rate must be >= 0, got {self.attack_rate}"
            )
        if self.transport == "udp" and self.shards != 1:
            raise ConfigurationError("udp transport runs a single shard")
        if self.engine == "vectorized":
            if self.transport != "loopback":
                raise ConfigurationError(
                    "the vectorized engine only predicts loopback soaks"
                )
            if self.attack_rate > 0:
                raise ConfigurationError(
                    "the vectorized engine models the paper's per-interval"
                    " burst flood, not rate-based floods; drop --rate or"
                    " use the des engine"
                )
            if (
                self.jitter > 0
                or self.duplicate_probability > 0
                or self.reorder_probability > 0
            ):
                raise ConfigurationError(
                    "jitter/duplication/reordering are proxy-only faults"
                    " the vectorized engine cannot model; use the des engine"
                )

    @property
    def scenario(self) -> ScenarioConfig:
        """The plain :class:`ScenarioConfig` this load test soaks."""
        return ScenarioConfig(
            **{spec.name: getattr(self, spec.name) for spec in fields(ScenarioConfig)}
        )

    def scenario_for_shard(self, shard: int) -> ScenarioConfig:
        """The :class:`ScenarioConfig` for shard ``shard``."""
        return shard_scenarios(self.scenario, self.shards)[shard]

    def proxy_config(self) -> ProxyConfig:
        """The proxy fault model this load test asks for."""
        return ProxyConfig(
            loss_probability=self.loss_probability,
            loss_mean_burst=self.loss_mean_burst,
            delay=self.link_delay,
            jitter=self.jitter,
            duplicate_probability=self.duplicate_probability,
            reorder_probability=self.reorder_probability,
        )


@dataclass(frozen=True)
class LoadTestReport:
    """The ``repro loadtest`` result, JSON-schema stable (docs/API.md).

    Latencies are reported in microseconds; ``packets_per_second`` is
    datagrams delivered divided by summed shard wall time (per-core
    throughput — conservative under parallel execution).

    Serialised documents carry a ``schema_version`` field
    (:data:`LOADTEST_SCHEMA_VERSION`); :meth:`from_dict` accepts and
    ignores it — plus any other unknown key — so cluster-merged reports
    stay forward-compatible across schema bumps.
    """

    transport: str
    protocol: str
    receivers: int
    shards: int
    intervals: int
    sent_authentic: int
    authentication_rate: float
    attack_success_rate: float
    forged_accepted: int
    peak_buffer_bits: int
    packets_sent: int
    packets_injected: int
    datagrams_delivered: int
    datagrams_dropped: int
    datagrams_duplicated: int
    datagrams_reordered: int
    malformed: int
    packets_per_second: float
    latency_p50_us: float
    latency_p99_us: float
    latency_samples: int
    simulated_seconds: float
    wall_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        """The report as a plain JSON-serialisable dict."""
        data = asdict(self)
        data["schema_version"] = LOADTEST_SCHEMA_VERSION
        return data

    def to_json(self, indent: int = 2) -> str:
        """The report as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LoadTestReport":
        """Rebuild a report from :meth:`to_dict` output.

        ``schema_version`` and any key this version does not know are
        ignored (forward compatibility); a missing report field raises
        :class:`~repro.errors.ConfigurationError` naming it.
        """
        import dataclasses

        field_names = [f.name for f in dataclasses.fields(cls)]
        missing = [name for name in field_names if name not in data]
        if missing:
            raise ConfigurationError(
                f"load test report document is missing fields {missing}"
            )
        return cls(**{name: data[name] for name in field_names})


def predicted_soak(scenario: ScenarioConfig) -> SoakResult:
    """Predict a loopback soak through the scenario engine.

    Loopback soaks at default faults mirror :func:`run_scenario`
    exactly, so the per-node outcome tallies here are the ones the
    daemons would have produced — at array-engine speed. Transport
    artifacts (latencies, datagram counters) have no in-memory
    equivalent and read zero. Used by the ``engine="vectorized"``
    loadtest path and by cluster workers/reconciliation
    (:mod:`repro.cluster`).
    """
    from repro.sim.scenario import run_scenario

    started = time.perf_counter()
    result = run_scenario(scenario)
    return SoakResult(
        fleet=result.fleet,
        latencies=(),
        datagrams_delivered=0,
        datagrams_dropped=0,
        datagrams_duplicated=0,
        datagrams_reordered=0,
        malformed=0,
        packets_injected=0,
        simulated_seconds=result.simulated_seconds,
        wall_seconds=time.perf_counter() - started,
    )


def _run_loadtest_shard(task: Tuple[LoadTestConfig, ScenarioConfig]) -> SoakResult:
    """Engine worker: one shard's soak (module-level, picklable)."""
    config, scenario = task
    if scenario.engine == "vectorized":
        return predicted_soak(scenario)
    return run_loopback_soak(
        scenario,
        proxy_config=config.proxy_config(),
        attack_rate=config.attack_rate if config.attack_rate > 0 else None,
    )


def merge_soaks(
    scenario: ScenarioConfig, soaks: Sequence[SoakResult], transport: str
) -> LoadTestReport:
    """Fold the shard soaks of ``scenario`` into one :class:`LoadTestReport`."""
    if not soaks:
        raise ConfigurationError("cannot merge zero soak results")
    nodes: List[Any] = []
    latencies: List[float] = []
    for soak in soaks:
        nodes.extend(soak.fleet.nodes)
        latencies.extend(soak.latencies)
    sent_authentic = soaks[0].fleet.sent_authentic
    fleet = FleetSummary(nodes=tuple(nodes), sent_authentic=sent_authentic)
    wall = sum(soak.wall_seconds for soak in soaks)
    delivered = sum(soak.datagrams_delivered for soak in soaks)
    return LoadTestReport(
        transport=transport,
        protocol=scenario.protocol,
        receivers=scenario.receivers,
        shards=len(soaks),
        intervals=scenario.intervals,
        sent_authentic=sent_authentic,
        authentication_rate=fleet.mean_authentication_rate,
        attack_success_rate=fleet.mean_attack_success_rate,
        forged_accepted=fleet.total_forged_accepted,
        peak_buffer_bits=fleet.peak_buffer_bits,
        packets_sent=sum(
            node.packets_received for node in nodes
        ),  # see packets_received semantics in NodeSummary
        packets_injected=sum(soak.packets_injected for soak in soaks),
        datagrams_delivered=delivered,
        datagrams_dropped=sum(soak.datagrams_dropped for soak in soaks),
        datagrams_duplicated=sum(soak.datagrams_duplicated for soak in soaks),
        datagrams_reordered=sum(soak.datagrams_reordered for soak in soaks),
        malformed=sum(soak.malformed for soak in soaks),
        packets_per_second=delivered / wall if wall > 0 else 0.0,
        latency_p50_us=percentile(latencies, 50.0) * 1e6,
        latency_p99_us=percentile(latencies, 99.0) * 1e6,
        latency_samples=len(latencies),
        simulated_seconds=max(soak.simulated_seconds for soak in soaks),
        wall_seconds=wall,
    )


def run_loadtest(
    config: LoadTestConfig,
    executor: Optional[Executor] = None,
) -> LoadTestReport:
    """Run the load test described by ``config``.

    Loopback shards (:func:`~repro.sim.scenario.shard_scenarios`) run
    through the experiment engine, so ``executor`` chooses serial or
    process-pool fan-out; the UDP transport runs one asyncio world
    in-process (``executor`` is ignored). No result cache is offered: a
    load test's latency and throughput numbers are measurements, not
    pure functions of the config.
    """
    if config.transport == "udp":
        from repro.net.udp import run_udp_soak

        soaks = [run_udp_soak(config)]
    else:
        scenarios = shard_scenarios(config.scenario, config.shards)
        soaks = run_tasks(
            _run_loadtest_shard,
            [(config, scenario) for scenario in scenarios],
            executor=executor,
            label="loadtest",
            task_labels=[f"shard={shard}" for shard in range(config.shards)],
        )
    return merge_soaks(config, soaks, config.transport)
