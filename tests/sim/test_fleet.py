"""Vectorized fleet engine: exact parity with the DES across every
protocol family, and sharding/streaming reduction."""

from __future__ import annotations

import dataclasses

import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.crypto.mac import INDEX_BITS, MicroMacScheme
from repro.devtools.sanitizers import determinism
from repro.devtools.sanitizers.determinism import tracing
from repro.engine import stable_key
from repro.engine.executors import ParallelExecutor
from repro.errors import ConfigurationError, ReproError, SimulationError
from repro.protocols import dap as dap_module
from repro.scenarios import get_scenario, tier
from repro.scenarios.families import (
    ALL_PROTOCOLS, MULTI_LEVEL, SINGLE_LEVEL, TWO_PHASE,
)
from repro.sim import draws, fleet
from repro import perf
from repro.sim.fleet import run_fleet_scenario, shard_plan, supports
from repro.sim.metrics import FleetAggregate
from repro.sim.scenario import ScenarioConfig, run_scenario, shard_sizes

#: The canonical catalog seeds (every dual-seed entry declares these).
CATALOG_SEEDS = (7, 11)


def _assert_identical(config: ScenarioConfig, shards: int = 1):
    """Both engines at the same seed must agree on every metric."""
    des = run_scenario(dataclasses.replace(config, engine="des"))
    fast = run_fleet_scenario(config, shards=shards)
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


class TestDrawParity:
    """The engines agree draw for draw, not only in their summaries.

    ``medium`` is left out: the fleet engine consumes it through the
    NumPy mirror, which the tracer does not see.
    """

    @pytest.mark.parametrize("protocol", fleet.SUPPORTED_PROTOCOLS)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_streams_match_the_des(self, protocol, seed):
        config = ScenarioConfig(
            protocol=protocol,
            intervals=12,
            receivers=3,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=seed,
        )
        with tracing() as des:
            run_scenario(config)
        with tracing() as vectorized:
            run_fleet_scenario(config)
        streams = sorted(set(des.trace.streams) - {"medium"})
        assert "master" in streams and "attacker" in streams
        if protocol == "dap" or protocol in MULTI_LEVEL:
            # Reservoir receivers (keep-first ones never draw).
            assert any(label.startswith("receiver-") for label in streams)
        assert des.trace.diff(vectorized.trace, streams=streams) == ()
        assert set(vectorized.trace.streams) <= set(des.trace.streams)


class TestLaneKernel:
    """The reservoir replays with the lane-parallel draws forced on.

    Small fleets hand every lane to the scalar kernel (fewer than
    ``LOCKSTEP_LANES`` lanes draw), so these lower the crossover: at 1
    every overflow offer steps in lockstep, at 3 the longest lanes hand
    off mid-run.
    """

    @pytest.mark.parametrize("lockstep_lanes", [1, 3])
    @pytest.mark.parametrize("protocol", ("dap",) + MULTI_LEVEL)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_draws_and_summary_match_the_des(
        self, monkeypatch, protocol, seed, lockstep_lanes
    ):
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        config = ScenarioConfig(
            protocol=protocol,
            intervals=12,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=seed,
        )
        with tracing() as des:
            expected = run_scenario(config)
        with tracing() as vectorized:
            result = run_fleet_scenario(config)
        streams = sorted(set(des.trace.streams) - {"medium"})
        assert any(label.startswith("receiver-") for label in streams)
        assert des.trace.diff(vectorized.trace, streams=streams) == ()
        assert set(vectorized.trace.streams) <= set(des.trace.streams)
        assert result.fleet == expected.fleet

    @seed(20161018)
    @settings(max_examples=25, deadline=None)
    @given(
        protocol=st.sampled_from(("dap",) + MULTI_LEVEL),
        intervals=st.integers(3, 30),
        buffers=st.integers(1, 6),
        cdm_copies=st.integers(1, 8),
        copies=st.integers(1, 5),
        attack=st.sampled_from([0.3, 0.5, 0.8]),
        loss=st.sampled_from([0.0, 0.1, 0.4]),
        lockstep_lanes=st.integers(1, 4),
        run_seed=st.integers(1, 10_000),
    )
    def test_property_matches_des(
        self, protocol, intervals, buffers, cdm_copies, copies, attack,
        loss, lockstep_lanes, run_seed,
    ):
        previous = draws.LOCKSTEP_LANES
        draws.LOCKSTEP_LANES = lockstep_lanes
        try:
            _assert_identical(
                ScenarioConfig(
                    protocol=protocol,
                    intervals=intervals,
                    receivers=6,
                    buffers=buffers,
                    cdm_copies=cdm_copies,
                    announce_copies=copies,
                    attack_fraction=attack,
                    loss_probability=loss,
                    seed=run_seed,
                    engine="vectorized",
                )
            )
        finally:
            draws.LOCKSTEP_LANES = previous

    @pytest.mark.parametrize("protocol", ("dap", "edrp"))
    def test_corrupted_draw_feeds_back_as_on_scalar_streams(
        self, monkeypatch, protocol
    ):
        """Under a corrupting sanitizer every lane draws on its scalar
        stream, so the flipped draw reaches the run at the same global
        index whatever the crossover."""
        config = ScenarioConfig(
            protocol=protocol,
            intervals=12,
            receivers=6,
            buffers=3,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=1,
        )
        with tracing() as clean:
            run_fleet_scenario(config)
        # The receivers draw last, in the replay: flip the fourth of
        # their draws in scalar order.
        receiver_draws = sum(
            len(trace) for label, trace in clean.trace.streams.items()
            if label.startswith("receiver-")
        )
        corrupt_at = clean.trace.total_draws() - receiver_draws + 3
        runs = []
        for lockstep_lanes in (1, 10**6):
            monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
            sanitizer = determinism.DeterminismSanitizer(corrupt_draw=corrupt_at)
            with tracing(sanitizer):
                result = run_fleet_scenario(config)
            runs.append((sanitizer, result))
        (forced, forced_result), (scalar, scalar_result) = runs
        assert "reservoir" in str(forced.corrupted_site)
        assert forced.corrupted_site == scalar.corrupted_site
        assert clean.trace.diff(forced.trace)
        assert forced.trace.diff(scalar.trace) == ()
        assert forced_result.fleet == scalar_result.fleet


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
        """Regression: fleet shard plans reuse the soak shards'
        shard_sizes, not a parallel implementation."""
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

    @pytest.mark.parametrize("bits", [2, 4])
    def test_narrow_micro_macs_collide_as_in_the_des(self, bits, monkeypatch):
        """With the μMAC narrowed to a few bits in both engines, first
        copies that miss their bucket really collide with held records.
        Every such decision the fleet makes must still match the DES
        receiver's μMAC comparison."""
        monkeypatch.setattr(
            dap_module, "MicroMacScheme", lambda _bits: MicroMacScheme(bits)
        )
        build = fleet._build_plan

        def narrowed(*args):
            return dataclasses.replace(build(*args), item_bits=bits + INDEX_BITS)

        monkeypatch.setattr(fleet, "_build_plan", narrowed)
        decided = []

        class Recording(MicroMacScheme):
            # One batch per miss: the reveal's MAC, then the held records.
            def compute_many(self, local_key, macs):
                digests = super().compute_many(local_key, macs)
                decided.append(digests[0] in digests[1:])
                return digests

        monkeypatch.setattr(fleet, "MicroMacScheme", Recording)
        config = dataclasses.replace(
            self._config("dap"), receivers=24, attack_fraction=0.6,
            packets_per_interval=2,
        )
        _assert_identical(config)
        _assert_identical(config, shards=3)
        # Misses both collide (authenticate) and stay lost.
        assert any(decided) and not all(decided)

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


class TestArrayReplays:
    """The two-phase (dap, tesla_pp), single-level (tesla, mu_tesla) and
    multi-level (multilevel, eftp, edrp) array kernels against the DES
    at their edge cases."""

    @pytest.mark.parametrize("protocol", ["tesla", "mu_tesla"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_receivers_missing_disclosures_never_flush(self, protocol, seed):
        """At 60% loss some receivers miss whole runs of disclosures
        (their buckets stay buffered to the end)."""
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=20,
                receivers=8,
                buffers=3,
                attack_fraction=0.5,
                loss_probability=0.6,
                seed=seed,
                engine="vectorized",
            )
        )

    def test_forged_disclosures_across_missed_runs(self):
        """Forged TESLA disclosures walk down to the lowest anchor a
        receiver holds; at loss 0.5 anchors lag by several intervals."""
        _assert_identical(
            ScenarioConfig(
                protocol="tesla",
                intervals=40,
                receivers=6,
                buffers=2,
                attack_fraction=0.5,
                loss_probability=0.5,
                seed=17,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", MULTI_LEVEL)
    def test_every_cdm_pool_overflows(self, protocol):
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=20,
                receivers=5,
                buffers=1,
                cdm_copies=8,
                attack_fraction=0.5,
                loss_probability=0.1,
                seed=5,
                engine="vectorized",
            )
        )

    @pytest.mark.parametrize("protocol", MULTI_LEVEL)
    def test_data_pool_overflow_interleaves_draws(self, protocol):
        """Ten records per sub-interval overflow the 8-record data pool,
        so CDM and data draws interleave on one receiver stream."""
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=15,
                receivers=4,
                buffers=2,
                packets_per_interval=10,
                attack_fraction=0.5,
                loss_probability=0.2,
                seed=9,
                engine="vectorized",
            )
        )

    def test_edrp_t3_one_sub_interval_per_high(self):
        config = tier("T3").apply(
            ScenarioConfig(
                protocol="edrp",
                intervals=30,
                receivers=6,
                buffers=4,
                low_per_high=1,
                seed=7,
                engine="vectorized",
            )
        )
        result = _assert_identical(config)
        assert result.fleet.total_forged_accepted == 0

    @pytest.mark.parametrize("protocol", SINGLE_LEVEL + MULTI_LEVEL)
    def test_shard_invariance_across_partial_blocks(self, protocol, monkeypatch):
        """Ten receivers in blocks of four: every shard count cuts the
        blocks differently, and each must equal the DES."""
        monkeypatch.setattr(fleet, "_REPLAY_BLOCK", 4)
        config = ScenarioConfig(
            protocol=protocol,
            intervals=15,
            receivers=10,
            buffers=2,
            attack_fraction=0.5,
            loss_probability=0.3,
            seed=12,
            engine="vectorized",
        )
        des = run_scenario(dataclasses.replace(config, engine="des"))
        for shards in (1, 3, 7):
            assert run_fleet_scenario(config, shards=shards).fleet == des.fleet

    @seed(20160627)
    @settings(max_examples=40, deadline=None)
    @given(
        protocol=st.sampled_from(ALL_PROTOCOLS),
        intervals=st.integers(3, 30),
        buffers=st.integers(1, 6),
        low_per_high=st.integers(1, 5),
        cdm_copies=st.integers(1, 8),
        packets=st.integers(1, 6),
        tasks=st.integers(1, 3),
        copies=st.integers(1, 5),
        attack=st.sampled_from([0.0, 0.3, 0.5, 0.8]),
        loss=st.sampled_from([0.0, 0.1, 0.4, 0.7]),
        burst=st.sampled_from([None, 3.0]),
        shards=st.integers(1, 2),
        run_seed=st.integers(1, 10_000),
    )
    def test_property_matches_des(
        self, protocol, intervals, buffers, low_per_high, cdm_copies,
        packets, tasks, copies, attack, loss, burst, shards, run_seed,
    ):
        """More packets per interval than sensing tasks repeats two-phase
        ``(interval, source)`` reveal keys, so later copies are both
        skipped after a match and lost after a miss."""
        _assert_identical(
            ScenarioConfig(
                protocol=protocol,
                intervals=intervals,
                receivers=4,
                buffers=buffers,
                low_per_high=low_per_high,
                cdm_copies=cdm_copies,
                packets_per_interval=packets,
                sensing_tasks=tasks,
                announce_copies=copies,
                attack_fraction=attack,
                loss_probability=loss,
                loss_mean_burst=burst,
                seed=run_seed,
                engine="vectorized",
            ),
            shards=shards,
        )

    @pytest.mark.parametrize("protocol", TWO_PHASE + SINGLE_LEVEL)
    def test_key_gap_bound_freezes_the_anchor(self, protocol):
        """At 99.98% loss over 8300 intervals some receivers go more
        than 4096 intervals without a key: that key and every later one
        is a weak-authentication reject, in both engines."""
        config = dataclasses.replace(
            get_scenario("fig5-t2").config,
            protocol=protocol,
            intervals=8300,
            receivers=6,
            loss_probability=0.9998,
            seed=5,
            engine="vectorized",
        )
        des = run_scenario(dataclasses.replace(config, engine="des"))
        assert sum(node.rejected_weak_auth for node in des.fleet.nodes) > 0
        assert run_fleet_scenario(config, shards=2).fleet == des.fleet

    def test_single_level_precompute_rejects_late_record(self):
        """A gated record arriving after its interval's key was
        disclosed breaks the frozen-bucket fact the kernel rests on."""
        plan = fleet._SingleLevelPlan(
            times=np.arange(2, dtype=float),
            rec_interval=[-1, 2],
            rec_source=[0, 0],
            forged_valid=[],
            gate=[True, True],
            disc_index=[2, -1],
            disc_forged=[-1, -1],
            forged_keys=[],
            chain_keys=[b"\x00" * 10] * 3,
            legitimate_bits=0,
            forged_bits=0,
            sent_authentic=1,
        )
        with pytest.raises(SimulationError, match="can be trusted"):
            fleet._single_level_precompute(plan)

    def test_multilevel_precompute_rejects_cdm_after_its_key(self):
        C = fleet._CDM
        plan = fleet._MultiLevelPlan(
            times=np.arange(2, dtype=float),
            kinds=[C, C],
            index=[1, 1],
            sources=[-1, 0],
            gate=[True, True],
            disc_index=[1, -1],
            commitment_present={1: True},
            has_next_hash={1: False},
            forged_mac_valid=[False],
            forged_pin_match=[False],
            low_per_high=1,
            high_gap_bound=16,
            anchor_offset=1,
            legitimate_bits=0,
            forged_bits=0,
            sent_authentic=0,
        )
        with pytest.raises(SimulationError, match="after its high key"):
            fleet._multilevel_precompute(plan)

    @pytest.mark.parametrize("protocol, collide", [
        ("tesla", "disclosure"),
        ("multilevel", "cdm_mac"),
        ("edrp", "edrp_pin"),
    ])
    def test_collision_fallbacks_raise(self, protocol, collide, monkeypatch):
        """Plans forced into each 2^-80 collision (a forged disclosure
        candidate equal to the true key, a forged CDM whose MAC or EDRP
        pin matches) must raise rather than replay a corrupted anchor."""

        def colliding(*args):
            plan = build(*args)
            if collide == "disclosure":
                keys = [
                    plan.chain_keys[plan.disc_index[plan.disc_forged.index(f)]]
                    for f in range(len(plan.forged_keys))
                ]
                return dataclasses.replace(plan, forged_keys=keys)
            field = (
                "forged_mac_valid" if collide == "cdm_mac" else "forged_pin_match"
            )
            flags = [True] * len(getattr(plan, field))
            return dataclasses.replace(plan, **{field: flags})

        build = fleet._build_plan
        monkeypatch.setattr(fleet, "_build_plan", colliding)
        config = ScenarioConfig(
            protocol=protocol,
            intervals=12,
            receivers=4,
            buffers=2,
            attack_fraction=0.5,
            seed=3,
            engine="vectorized",
        )
        with pytest.raises(ConfigurationError, match="2\\^-80"):
            run_fleet_scenario(config)

    def test_duplicate_groups_never_alias_forged_sources(self):
        """Forged record sources are negative; an (interval, source)
        identity must not collide with another interval's record."""
        assert fleet._duplicate_groups(
            np.array([2, 3]), np.array([0, -1])
        ) == (None, None)
        order, starts = fleet._duplicate_groups(
            np.array([2, 3, 2]), np.array([0, -1, 0])
        )
        assert order.tolist() == [0, 2, 1]
        assert starts.tolist() == [0, 2]

    def test_tesla_plan_hashing_is_linear_in_intervals(self):
        """Forged disclosures walk only to the lowest held anchor, not
        to index 0: 4x the intervals costs about 4x the hashes."""
        base = ScenarioConfig(
            protocol="tesla",
            receivers=4,
            buffers=4,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=7,
            engine="vectorized",
        )
        hashes = []
        for intervals in (256, 1024):
            with perf.collecting() as registry:
                run_fleet_scenario(dataclasses.replace(base, intervals=intervals))
            hashes.append(registry.counter("crypto.hash"))
        assert hashes[1] <= 5 * hashes[0]

    def test_collected_run_records_phase_timers(self):
        config = ScenarioConfig(
            protocol="multilevel",
            intervals=15,
            receivers=20,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=7,
            engine="vectorized",
        )
        with perf.collecting() as registry:
            started = time.perf_counter()
            run_fleet_scenario(config, shards=2)
            wall = time.perf_counter() - started
        phases = ("fleet.plan", "fleet.mask", "fleet.replay.multilevel")
        assert set(registry.timers) == set(phases)
        assert all(registry.timers[name] > 0 for name in phases)
        assert sum(registry.timers.values()) <= wall


class TestCacheKeys:
    def test_engines_never_alias_in_the_result_cache(self):
        base = ScenarioConfig(protocol="dap", intervals=10, receivers=2)
        vectorized = dataclasses.replace(base, engine="vectorized")
        assert stable_key(base) != stable_key(vectorized)

