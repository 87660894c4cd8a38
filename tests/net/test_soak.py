"""The testbed's acceptance tests: loopback soak versus the simulator.

The live testbed is only trustworthy if running the protocols over a
wire does not change what they do. These tests pin that down hard: at
the same seed, a loopback soak must reproduce :func:`run_scenario`
*decision for decision* — identical per-node tallies, not just close
rates — and the paper's defence story must survive the trip onto the
wire (m-buffers hold the flood off; a bufferless receiver degrades).
"""

from __future__ import annotations

import pytest

from repro.devtools.sanitizers.determinism import tracing
from repro.net import LoadTestConfig, run_loadtest, run_loopback_soak
from repro.sim.scenario import ScenarioConfig, run_scenario

FLOOD = dict(
    protocol="dap",
    intervals=24,
    interval_duration=0.5,
    receivers=3,
    attack_fraction=0.6,
    announce_copies=5,
    seed=11,
)


class TestSimulationParity:
    @pytest.mark.parametrize("protocol", ["dap", "tesla_pp"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_soak_reproduces_simulation_node_for_node(self, protocol, seed):
        config = ScenarioConfig(
            protocol=protocol,
            intervals=16,
            interval_duration=0.5,
            receivers=3,
            buffers=4,
            attack_fraction=0.5,
            loss_probability=0.1,
            announce_copies=5,
            seed=seed,
        )
        sim = run_scenario(config)
        net = run_loopback_soak(config)
        assert net.fleet.nodes == sim.fleet.nodes
        assert net.authentication_rate == sim.authentication_rate
        assert net.fleet.sent_authentic == sim.sent_authentic

    def test_parity_holds_under_bursty_loss(self):
        config = ScenarioConfig(
            protocol="dap",
            intervals=14,
            interval_duration=0.5,
            receivers=2,
            attack_fraction=0.4,
            loss_probability=0.2,
            loss_mean_burst=3.0,
            seed=5,
        )
        assert run_loopback_soak(config).fleet.nodes == run_scenario(config).fleet.nodes

    def test_parity_holds_without_attacker(self):
        config = ScenarioConfig(
            protocol="dap",
            intervals=12,
            interval_duration=0.5,
            receivers=2,
            loss_probability=0.15,
            seed=9,
        )
        net = run_loopback_soak(config)
        assert net.fleet.nodes == run_scenario(config).fleet.nodes
        assert net.packets_injected == 0


class TestDrawParity:
    @pytest.mark.parametrize("protocol", ["dap", "tesla_pp"])
    @pytest.mark.parametrize("attack", [0.0, 0.5])
    def test_soak_draws_match_simulation(self, protocol, attack):
        """Every stream, the master one included, makes the same draws
        over the wire as in memory; with the attack off neither side
        draws an attacker seed."""
        config = ScenarioConfig(
            protocol=protocol,
            intervals=12,
            interval_duration=0.5,
            receivers=3,
            buffers=3,
            attack_fraction=attack,
            loss_probability=0.1,
            seed=3,
        )
        with tracing() as sim:
            run_scenario(config)
        with tracing() as net:
            run_loopback_soak(config)
        assert "medium" in sim.trace.streams
        assert ("attacker" in sim.trace.streams) == (attack > 0.0)
        assert sim.trace.diff(net.trace) == ()


class TestFloodDefence:
    def test_m_buffers_hold_the_flood_off(self):
        result = run_loopback_soak(ScenarioConfig(buffers=4, **FLOOD))
        assert result.fleet.total_forged_accepted == 0
        assert result.packets_injected > 0
        # with m=4 reservoir slots the survival probability 1 - p^m is
        # high: the flood barely dents the authentication rate
        assert result.authentication_rate > 0.85

    def test_bufferless_receiver_measurably_degrades(self):
        buffered = run_loopback_soak(ScenarioConfig(buffers=4, **FLOOD))
        bufferless = run_loopback_soak(ScenarioConfig(buffers=1, **FLOOD))
        # security invariant holds either way...
        assert bufferless.fleet.total_forged_accepted == 0
        # ...but without the reservoir the flood wins real ground
        assert (
            bufferless.authentication_rate
            < buffered.authentication_rate - 0.2
        )
        assert bufferless.attack_success_rate > buffered.attack_success_rate


class TestLoadtestAcceptance:
    def test_loopback_loadtest_report_is_complete(self):
        report = run_loadtest(
            LoadTestConfig(
                transport="loopback",
                receivers=4,
                shards=2,
                intervals=20,
                interval_duration=0.1,
                attack_fraction=0.5,
                loss_probability=0.05,
                seed=9,
            )
        )
        data = report.to_dict()
        assert data["packets_per_second"] > 0
        assert data["latency_p50_us"] > 0
        assert data["latency_p99_us"] >= data["latency_p50_us"]
        assert data["forged_accepted"] == 0
        assert data["packets_injected"] > 0
        assert data["authentication_rate"] > 0
