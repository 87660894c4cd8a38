"""Cluster soak configuration.

One frozen dataclass holds everything a coordinator run needs: the
scenario population to shard (whose own ``engine`` field says how the
workers run each shard), the worker fleet shape, lease/heartbeat
timing, backpressure limits, the metrics cadence and the fault
schedule. Validation is eager (:class:`~repro.errors.
ConfigurationError` at construction) in the same spirit as
:class:`~repro.net.harness.LoadTestConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.faults import FaultEvent
from repro.errors import ConfigurationError
from repro.scenarios.families import NET_PROTOCOLS
from repro.sim.scenario import ScenarioConfig

__all__ = ["ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """Everything ``repro cluster soak`` needs.

    Attributes:
        scenario: the population to soak; ``scenario.receivers`` is the
            per-round fleet size, split across ``shards``, and
            ``scenario.engine`` picks how workers run a shard:
            ``"des"`` drives a real loopback soak, ``"vectorized"``
            predicts the same tallies via the fleet engine (useful for
            very large dry runs).
        workers: worker daemons the coordinator spawns locally (remote
            workers may additionally connect to ``host:port``).
        shards: shard tasks per round; each is one lease.
        rounds: repetitions of the shard plan at laddered seeds — the
            knob that stretches a soak without touching the scenario.
        host / port: coordinator listen address; port 0 picks an
            ephemeral port (reported by the coordinator once bound).
        heartbeat_interval: seconds between worker heartbeats.
        lease_ttl: seconds a lease survives without a renewing
            heartbeat; must exceed the heartbeat interval.
        metrics_interval: cadence of coordinator aggregate records in
            ``metrics.jsonl``; worker records arrive at heartbeat pace.
        metrics_path: where to append JSON-lines metrics (None: off).
        max_inflight: per-worker in-flight task cap — the backpressure
            bound; the coordinator never leases past it and workers
            nack leases that would exceed it.
        max_rss_mb: per-worker resident-set limit in MiB; a worker
            reporting above it receives no new leases until it drops
            back under (None: unlimited).
        max_attempts: lease grants per task before the run fails.
        max_runtime: hard wall-clock deadline for the whole run; hit
            it with tasks pending and the coordinator raises
            :class:`~repro.errors.ClusterError` naming them.
        task_stall: artificial seconds each worker sleeps before
            running a task — zero in production, nonzero in tests that
            need a worker to be mid-task when a fault fires.
        faults: the declarative fault timeline (:mod:`repro.cluster.
            faults`).
        reconcile: verify the merged result against the fleet-engine
            prediction of every task's recorded scenario.
        tolerance: per-field absolute slack allowed by reconciliation
            (0: exact — the loopback/DES/vectorized parity contract).
        spawn_workers: spawn ``workers`` local daemons; disable to run
            a bare coordinator that waits for external workers.
    """

    scenario: ScenarioConfig
    workers: int = 2
    shards: int = 2
    rounds: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    heartbeat_interval: float = 0.2
    lease_ttl: float = 2.0
    metrics_interval: float = 0.5
    metrics_path: Optional[str] = None
    max_inflight: int = 2
    max_rss_mb: Optional[float] = None
    max_attempts: int = 5
    max_runtime: float = 120.0
    task_stall: float = 0.0
    faults: Tuple[FaultEvent, ...] = field(default_factory=tuple)
    reconcile: bool = True
    tolerance: int = 0
    spawn_workers: bool = True

    def __post_init__(self) -> None:
        if self.scenario.protocol not in NET_PROTOCOLS:
            raise ConfigurationError(
                f"cluster soaks drive the live testbed, which supports"
                f" protocols {NET_PROTOCOLS}; got"
                f" {self.scenario.protocol!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not 1 <= self.shards <= self.scenario.receivers:
            raise ConfigurationError(
                f"shards must be in 1..receivers"
                f" ({self.scenario.receivers}), got {self.shards}"
            )
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1, got {self.rounds}")
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in 0..65535, got {self.port}")
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.lease_ttl <= self.heartbeat_interval:
            raise ConfigurationError(
                f"lease_ttl ({self.lease_ttl}s) must exceed the heartbeat"
                f" interval ({self.heartbeat_interval}s) or healthy"
                " workers lose their leases between beats"
            )
        if self.metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got {self.metrics_interval}"
            )
        if self.max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ConfigurationError(
                f"max_rss_mb must be > 0, got {self.max_rss_mb}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_runtime <= 0:
            raise ConfigurationError(
                f"max_runtime must be > 0, got {self.max_runtime}"
            )
        if self.task_stall < 0:
            raise ConfigurationError(
                f"task_stall must be >= 0, got {self.task_stall}"
            )
        if self.tolerance < 0:
            raise ConfigurationError(
                f"tolerance must be >= 0, got {self.tolerance}"
            )
