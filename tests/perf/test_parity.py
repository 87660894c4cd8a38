"""Instrumentation must not change what a scenario computes.

Turning the perf registry on adds counters to the crypto and event hot
paths; these tests run a seeded scenario with and without it and
compare frozen summaries, then check the counters are wired and
mutually consistent.
"""

from __future__ import annotations

from repro import perf
from repro.sim.scenario import ScenarioConfig, run_scenario

CONFIG = ScenarioConfig(protocol="dap", intervals=12, receivers=3, buffers=4,
                        attack_fraction=0.5, loss_probability=0.1, seed=7)


def test_scenario_identical_with_instrumentation_on():
    config = CONFIG
    bare = run_scenario(config)
    with perf.collecting() as registry:
        instrumented = run_scenario(config)
    assert instrumented.fleet == bare.fleet
    # ... and the run actually counted the hot path.
    assert registry.counter("crypto.hash") > 0
    assert registry.counter("crypto.mac") > 0
    assert registry.counter("sim.events") > 0
    assert registry.counter("sim.broadcasts") > 0


def test_instrumented_counters_are_consistent():
    config = CONFIG
    with perf.collecting() as registry:
        run_scenario(config)
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    # Deliveries + drops can't exceed broadcasts x receivers.
    assert counters["sim.deliveries"] <= counters["sim.broadcasts"] * (
        config.receivers + 1
    )
    # Queue depth was observed once per executed event.
    assert snapshot["observations"]["sim.queue_depth"]["count"] == counters[
        "sim.events"
    ]
