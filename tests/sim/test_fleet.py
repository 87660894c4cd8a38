"""Vectorized fleet engine: exact parity with the DES across every
protocol family, and sharding/streaming reduction."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.engine import stable_key
from repro.engine.executors import ParallelExecutor
from repro.errors import ConfigurationError, ReproError
from repro.net.harness import shard_sizes
from repro.scenarios.families import ALL_PROTOCOLS
from repro.sim import fleet
from repro import perf
from repro.sim.fleet import run_fleet_scenario, shard_plan, supports
from repro.sim.metrics import FleetAggregate
from repro.sim.scenario import ScenarioConfig, run_scenario

#: The canonical catalog seeds (every dual-seed entry declares these).
CATALOG_SEEDS = (7, 11)


def _assert_identical(config: ScenarioConfig):
    """Both engines at the same seed must agree on every metric."""
    des = run_scenario(dataclasses.replace(config, engine="des"))
    fast = run_fleet_scenario(config)
    assert fast.fleet == des.fleet
    assert fast.sent_authentic == des.sent_authentic
    assert fast.forged_bandwidth_fraction == des.forged_bandwidth_fraction
    assert fast.simulated_seconds == des.simulated_seconds
    return fast


class TestExactParity:
    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("attack", [0.0, 0.5])
    def test_clean_channel(self, protocol, attack):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=15,
                receivers=4,
                buffers=4,
                attack_fraction=attack,
                seed=11,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    @pytest.mark.parametrize("seed", CATALOG_SEEDS)
    def test_bernoulli_loss_at_catalog_seeds(self, protocol, seed):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=15,
                receivers=4,
                buffers=3,
                attack_fraction=0.5,
                loss_probability=0.2,
                seed=seed,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", fleet.SUPPORTED_PROTOCOLS)
    @pytest.mark.parametrize("seed", range(1, 6))
    def test_lossy_flood_over_seeds(self, protocol, seed):
        """A five-seed sweep of a lossy half-forged flood, byte-identical
        at every seed."""
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=12,
                receivers=3,
                buffers=3,
                attack_fraction=0.5,
                loss_probability=0.1,
                seed=seed,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
    def test_t3_storm(self, protocol):
        """T3-tier storm: p=0.8 burst flood over a bursty GE channel."""
        result = _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=20,
                receivers=5,
                buffers=4,
                attack_fraction=0.8,
                attack_burst_fraction=0.25,
                loss_probability=0.2,
                loss_mean_burst=4.0,
                seed=7,
                engine="vectorized",
            )
        )
        # The paper's security invariant survives the fast path.
        assert result.fleet.total_forged_accepted == 0

    def test_heavy_flood_and_small_buffers(self):
        result = _assert_identical(
            ScenarioConfig(
                protocol="dap",
                intervals=20,
                receivers=6,
                buffers=1,
                attack_fraction=0.9,
                loss_probability=0.1,
                seed=4,
                engine="vectorized",
            )
        )
        assert result.fleet.total_forged_accepted == 0

    @pytest.mark.parametrize("protocol", ["tesla", "mu_tesla", "multilevel"])
    def test_multiple_packets_per_interval(self, protocol):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=12,
                receivers=3,
                buffers=4,
                attack_fraction=0.3,
                packets_per_interval=3,
                disclosure_delay=2,
                seed=21,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", ["multilevel", "eftp", "edrp"])
    def test_multilevel_parameter_variations(self, protocol):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=25,
                receivers=4,
                buffers=2,
                low_per_high=3,
                cdm_copies=6,
                attack_fraction=0.5,
                loss_probability=0.3,
                seed=13,
                engine="vectorized",
            )
        )

    def test_run_scenario_dispatches_to_fleet(self):
        config = ScenarioConfig(
            protocol="dap",
            intervals=10,
            receivers=3,
            attack_fraction=0.5,
            seed=5,
            engine="vectorized",
        )
        via_dispatch = run_scenario(config)
        direct = run_fleet_scenario(config)
        assert via_dispatch.fleet == direct.fleet
        # The DES path returns live nodes; the fleet path has none.
        assert via_dispatch.nodes == ()


class TestSupport:
    def test_supports_every_catalog_family(self):
        for protocol in ALL_PROTOCOLS:
            assert supports(ScenarioConfig(protocol=protocol)), protocol

    def test_engine_validated_at_config_time(self):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(engine="warp")

    def test_invalid_summary_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="summary"):
            run_fleet_scenario(
                ScenarioConfig(protocol="dap", intervals=6, receivers=2),
                summary="per-node",
            )

    def test_invalid_shards_rejected(self):
        with pytest.raises(ConfigurationError, match="shards"):
            run_fleet_scenario(
                ScenarioConfig(protocol="dap", intervals=6, receivers=2),
                shards=0,
            )


class TestSharding:
    def test_shard_plan_matches_harness_shard_sizes(self):
        """Regression: fleet shard plans reuse net.harness.shard_sizes,
        not a parallel implementation."""
        for receivers, shards in [(10, 3), (1000, 7), (5, 5), (64, 1)]:
            plan = shard_plan(receivers, shards)
            assert [stop - start for start, stop in plan] == shard_sizes(
                receivers, shards
            )
            # Contiguous cover of [0, receivers).
            assert plan[0][0] == 0
            assert plan[-1][1] == receivers
            for (_, a_stop), (b_start, _) in zip(plan, plan[1:]):
                assert a_stop == b_start

    def test_shard_plan_validates_like_shard_sizes(self):
        with pytest.raises(ConfigurationError):
            shard_plan(10, 0)
        with pytest.raises(ConfigurationError):
            shard_plan(3, 5)

    @pytest.mark.parametrize("protocol", ["dap", "tesla", "multilevel"])
    def test_sharded_run_is_invariant(self, protocol):
        config = ScenarioConfig(
            protocol=protocol,
            intervals=15,
            receivers=7,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            seed=7,
            engine="vectorized",
        )
        base = run_fleet_scenario(config)
        for shards in (2, 3, 7, 50):  # 50 clamps to the receiver count
            sharded = run_fleet_scenario(config, shards=shards)
            assert sharded.fleet == base.fleet, shards

    def test_aggregate_summary_matches_nodes_summary(self):
        config = ScenarioConfig(
            protocol="edrp",
            intervals=15,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            loss_mean_burst=4.0,
            seed=11,
            engine="vectorized",
        )
        nodes = run_fleet_scenario(config)
        aggregate = run_fleet_scenario(config, shards=3, summary="aggregate")
        assert isinstance(aggregate.fleet, FleetAggregate)
        assert aggregate.fleet == FleetAggregate.from_summary(nodes.fleet)

    def test_parallel_executor_with_shared_memory_matches_serial(self):
        config = ScenarioConfig(
            protocol="multilevel",
            intervals=12,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.2,
            seed=7,
            engine="vectorized",
        )
        serial = run_fleet_scenario(config, shards=3)
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_fleet_scenario(config, shards=3, executor=executor)
            aggregate = run_fleet_scenario(
                config, shards=3, executor=executor, summary="aggregate"
            )
        assert parallel.fleet == serial.fleet
        assert aggregate.fleet == FleetAggregate.from_summary(serial.fleet)


class TestBatchedReplay:
    """The fleet hot path: batched MACs and the vectorized reservoir
    kernel."""

    @staticmethod
    def _config(protocol="dap", seed=7):
        return ScenarioConfig(
            protocol=protocol,
            intervals=20,
            receivers=6,
            buffers=4,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=seed,
            engine="vectorized",
        )

    @pytest.mark.parametrize("protocol", ["dap", "tesla_pp"])
    @pytest.mark.parametrize("seed", CATALOG_SEEDS)
    def test_reservoir_kernel_matches_des(self, protocol, seed):
        """The one-pass numpy reservoir replay vs the DES receiver's
        per-offer Algorithm 2 must be byte-identical — the correctness
        gate for the vectorized kernel."""
        config = self._config(protocol, seed)
        kernel = run_fleet_scenario(config)
        reference = run_scenario(dataclasses.replace(config, engine="des"))
        assert kernel.fleet == reference.fleet
        assert kernel.sent_authentic == reference.sent_authentic
        assert (
            kernel.forged_bandwidth_fraction
            == reference.forged_bandwidth_fraction
        )

    def test_precompute_rejects_reveal_before_last_offer(self):
        """A reveal landing before its interval's last gated offer
        breaks the frozen-bucket argument the kernel's exactness rests
        on; the layout must fail loudly rather than replay anyway."""
        A, R = fleet._ANNOUNCE, fleet._REVEAL
        kinds = [A, R, A]
        plan = fleet._TwoPhasePlan(
            times=np.arange(len(kinds), dtype=float),
            kinds=kinds,
            intervals=[1, 1, 1],
            sources=[0, 0, 1],
            gate=[True, True, True],
            announce_macs={(1, 0): b"\x00" * 10, (1, 1): b"\x01" * 10},
            forged_macs=[],
            reservoir=True,
            item_bits=56,
            legitimate_bits=0,
            forged_bits=0,
            sent_authentic=2,
        )
        with pytest.raises(ReproError, match="precedes the last offer"):
            fleet._two_phase_precompute(plan)

    @pytest.mark.parametrize("protocol", ["dap", "multilevel"])
    def test_replay_batches_macs_not_single_pairs(self, protocol):
        """Regression for the single-pair verify_many anti-pattern: one
        batch call covers a whole slot's digests, so digests far
        outnumber batch calls. If plan construction or the replay
        degrades to one pair per call again, the ratio collapses to ~1
        and this assertion goes red."""
        config = dataclasses.replace(
            self._config(protocol), packets_per_interval=4
        )
        with perf.collecting() as registry:
            run_fleet_scenario(config)
        batches = registry.counter("crypto.mac.batches")
        macs = registry.counter("crypto.mac")
        assert batches > 0
        assert macs / batches >= 2.0


class TestCacheKeys:
    def test_engines_never_alias_in_the_result_cache(self):
        base = ScenarioConfig(protocol="dap", intervals=10, receivers=2)
        vectorized = dataclasses.replace(base, engine="vectorized")
        assert stable_key(base) != stable_key(vectorized)

