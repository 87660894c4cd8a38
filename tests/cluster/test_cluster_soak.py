"""End-to-end cluster soaks: real coordinator, real worker processes.

These tests spawn actual ``python -m repro.cluster.worker`` daemons
over localhost TCP, so they pin the acceptance criteria of the
subsystem itself:

* a cluster soak merges to the *same report* a single-process
  ``run_loadtest`` produces at equal seeds (the parity anchor);
* a SIGKILLed worker's leases expire and its shards re-lease to the
  survivor, with the merged result still exact;
* backpressure demonstrably throttles dispatch at ``max_inflight``;
* metric snapshots land in ``metrics.jsonl`` at the configured
  cadences.

Every run carries ``max_runtime=60``: the coordinator aborts itself
long before any CI-level timeout, so a wedge fails loudly with the
unfinished task ids instead of hanging the suite.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import pytest

from repro.cluster import (
    ClusterConfig,
    parse_fault,
    read_metrics,
    run_cluster_soak,
)
from repro.net.harness import LoadTestConfig, run_loadtest
from repro.scenarios import get_scenario

#: Report fields that are functions of the scenario alone (everything
#: except wall-clock artifacts: wall_seconds, packets_per_second and
#: the latency percentiles).
STABLE_FIELDS = (
    "transport",
    "protocol",
    "receivers",
    "shards",
    "intervals",
    "sent_authentic",
    "authentication_rate",
    "attack_success_rate",
    "forged_accepted",
    "peak_buffer_bits",
    "packets_sent",
    "packets_injected",
    "datagrams_delivered",
    "datagrams_dropped",
    "datagrams_duplicated",
    "datagrams_reordered",
    "malformed",
    "latency_samples",
    "simulated_seconds",
)


@pytest.fixture(scope="module")
def baseline():
    return get_scenario("crowdsensing-baseline-t0").config


def loadtest_of(config):
    """The single-process ``run_loadtest`` of a one-round cluster soak:
    the same scenario, cut into the same shards."""
    return run_loadtest(LoadTestConfig(**asdict(config.scenario), shards=config.shards))


def assert_stable_fields_match(report, reference):
    for field_name in STABLE_FIELDS:
        assert getattr(report, field_name) == getattr(
            reference, field_name
        ), field_name


def test_two_worker_soak_matches_run_loadtest(tmp_path, baseline):
    """The parity anchor: cluster-merged == single-process loadtest."""
    metrics_path = tmp_path / "metrics.jsonl"
    config = ClusterConfig(
        scenario=baseline,
        workers=2,
        shards=2,
        heartbeat_interval=0.1,
        metrics_interval=0.25,
        metrics_path=str(metrics_path),
        task_stall=0.3,
        max_runtime=60.0,
    )
    result = run_cluster_soak(config)

    reference = loadtest_of(config)
    assert_stable_fields_match(result.report, reference)

    assert result.tasks == 2
    assert result.releases == 0
    assert result.duplicate_results == 0
    assert result.reconciliation is not None
    assert result.reconciliation.ok, result.reconciliation.mismatches
    assert result.reconciliation.checked == 2

    # Metric snapshots at the configured cadences: worker records ride
    # heartbeats, coordinator aggregates ride metrics_interval.
    records = read_metrics(metrics_path)
    workers = [r for r in records if r["kind"] == "worker"]
    coordinators = [r for r in records if r["kind"] == "coordinator"]
    assert len(workers) >= 2
    assert len(coordinators) >= 2
    assert {r["worker"] for r in workers} == {0, 1}
    for record in workers:
        assert record["inflight"] <= config.max_inflight
        assert "counters" in record["perf"]
    final = coordinators[-1]
    assert final["total"] == 2
    assert final["completed"] <= 2


def test_worker_kill_expires_leases_and_releases(tmp_path, baseline):
    """SIGKILL a worker mid-task: its leases expire, the shards
    re-lease to the survivor, and the merged report is still exact.

    The kill is due at 1.5 s but fires only once worker 1 holds a
    lease, however slowly the worker starts; the 3 s task stall keeps
    that lease open until the kill lands."""
    metrics_path = tmp_path / "metrics.jsonl"
    config = ClusterConfig(
        scenario=baseline,
        workers=2,
        shards=4,
        heartbeat_interval=0.2,
        lease_ttl=1.0,
        task_stall=3.0,
        faults=(parse_fault("1.5:kill-worker=1"),),
        metrics_path=str(metrics_path),
        max_runtime=60.0,
    )
    result = run_cluster_soak(config)

    assert result.releases > 0  # the victim held leases when it died
    assert result.tasks == 4
    assert result.reconciliation is not None
    assert result.reconciliation.ok, result.reconciliation.mismatches

    # Re-leased shards re-run at the same seeds, so the merged report
    # still equals the single-process reference.
    reference = loadtest_of(config)
    assert_stable_fields_match(result.report, reference)

    records = read_metrics(metrics_path)
    kinds = {record["kind"] for record in records}
    assert "fault" in kinds  # the kill event was logged
    assert "release" in kinds  # so was each expired lease
    fault = next(r for r in records if r["kind"] == "fault")
    assert fault["action"] == "kill-worker"


def test_backpressure_throttles_dispatch(tmp_path, baseline):
    """One worker at max_inflight=1 with three shards: the dispatch
    loop must demonstrably wait, and the worker must never report more
    in-flight work than the bound."""
    metrics_path = tmp_path / "metrics.jsonl"
    config = ClusterConfig(
        scenario=baseline,
        workers=1,
        shards=3,
        max_inflight=1,
        heartbeat_interval=0.1,
        task_stall=0.4,
        metrics_path=str(metrics_path),
        max_runtime=60.0,
    )
    result = run_cluster_soak(config)

    assert result.backpressure_waits > 0
    assert result.tasks == 3
    assert result.reconciliation is not None
    assert result.reconciliation.ok, result.reconciliation.mismatches

    workers = [
        r for r in read_metrics(metrics_path) if r["kind"] == "worker"
    ]
    assert workers
    assert max(record["inflight"] for record in workers) <= 1


def test_multi_round_soak_ladders_seeds(baseline):
    """rounds=2 doubles the task count; the merged report counts every
    completed shard and reconciliation checks each one."""
    config = ClusterConfig(
        scenario=baseline,
        workers=2,
        shards=2,
        rounds=2,
        max_runtime=60.0,
    )
    result = run_cluster_soak(config)
    assert result.tasks == 4
    assert result.report.shards == 4
    assert result.reconciliation is not None
    assert result.reconciliation.checked == 4
    assert result.reconciliation.ok, result.reconciliation.mismatches


def test_vectorized_engine_soak(baseline):
    """engine='vectorized': workers predict via the fleet engine; the
    merged report still matches the equivalent loadtest run."""
    config = ClusterConfig(
        scenario=replace(baseline, engine="vectorized"),
        workers=1,
        shards=2,
        max_runtime=60.0,
    )
    result = run_cluster_soak(config)
    assert result.reconciliation is not None
    assert result.reconciliation.ok, result.reconciliation.mismatches
    assert all(
        task.engine_used == "vectorized"
        for task in result.reconciliation.tasks
    )
    reference = loadtest_of(config)
    assert result.report.sent_authentic == reference.sent_authentic
    assert (
        result.report.authentication_rate == reference.authentication_rate
    )
    assert result.report.peak_buffer_bits == reference.peak_buffer_bits
