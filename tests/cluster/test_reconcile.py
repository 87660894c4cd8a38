"""Reconciliation: soak vs fleet-engine prediction, zero tolerance."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.reconcile import (
    NODE_FIELDS,
    reconcile_soaks,
    reconcile_task,
)
from repro.net.harness import run_loopback_soak
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def baseline():
    return get_scenario("crowdsensing-baseline-t0").config


@pytest.fixture(scope="module")
def soak(baseline):
    return run_loopback_soak(baseline)


def test_real_soak_reconciles_exactly(baseline, soak):
    verdict = reconcile_task("r0-s0", baseline, soak)
    assert verdict.ok, verdict.mismatches
    assert verdict.engine_used in ("vectorized", "des-fallback")


def test_wrong_scenario_is_caught(baseline, soak):
    """A soak attributed to a different population must not reconcile."""
    shrunk = replace(baseline, receivers=baseline.receivers - 1)
    verdict = reconcile_task("r0-s0", shrunk, soak)
    assert not verdict.ok
    assert any("r0-s0" in mismatch for mismatch in verdict.mismatches)


def test_corrupted_tally_is_caught(baseline, soak):
    doctored = replace(
        soak,
        fleet=replace(soak.fleet, sent_authentic=soak.fleet.sent_authentic + 1),
    )
    verdict = reconcile_task("r0-s0", baseline, doctored)
    assert not verdict.ok
    assert "sent_authentic" in verdict.mismatches[0]


def test_tolerance_absorbs_small_node_drift(baseline, soak):
    """Tolerance applies to the per-node tallies (sent_authentic stays
    exact — the sender side is never noisy)."""
    nodes = list(soak.fleet.nodes)
    nodes[0] = replace(nodes[0], authenticated=nodes[0].authenticated - 1)
    doctored = replace(
        soak, fleet=replace(soak.fleet, nodes=tuple(nodes))
    )
    strict = reconcile_task("r0-s0", baseline, doctored)
    assert not strict.ok
    relaxed = reconcile_task("r0-s0", baseline, doctored, tolerance=1)
    assert relaxed.ok, relaxed.mismatches


def test_reconcile_soaks_aggregates(baseline, soak):
    shrunk = replace(baseline, receivers=baseline.receivers - 1)
    result = reconcile_soaks(
        [("good", baseline, soak), ("bad", shrunk, soak)]
    )
    assert result.checked == 2
    assert not result.ok
    verdicts = {task.task_id: task.ok for task in result.tasks}
    assert verdicts == {"good": True, "bad": False}
    assert all("bad" in mismatch for mismatch in result.mismatches)


def test_node_fields_cover_every_tally():
    from repro.sim.metrics import NodeSummary
    import dataclasses

    tallies = {
        f.name for f in dataclasses.fields(NodeSummary) if f.name != "name"
    }
    assert set(NODE_FIELDS) == tallies
