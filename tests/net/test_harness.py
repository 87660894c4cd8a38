"""Load harness: config validation, sharding, merging, the engine path."""

from __future__ import annotations

import json

import pytest

from repro.engine import ParallelExecutor, SerialExecutor
from repro.errors import ConfigurationError
from repro.net.harness import (
    LOADTEST_SCHEMA_VERSION,
    LoadTestConfig,
    LoadTestReport,
    derive_soak_world,
    merge_soaks,
    percentile,
    run_loadtest,
    run_loopback_soak,
)
from repro.sim.scenario import ScenarioConfig, shard_sizes


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 50.0) == 0.0

    def test_nearest_rank(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 50.0) == 3.0
        assert percentile(samples, 99.0) == 5.0
        assert percentile(samples, 100.0) == 5.0

    def test_rejects_bad_q(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 101.0)
        with pytest.raises(ConfigurationError):
            percentile([1.0], -1.0)


class TestLoadTestConfig:
    def test_rejects_unknown_transport(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(transport="carrier-pigeon")

    def test_rejects_unsupported_protocol(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(protocol="tesla")

    def test_rejects_more_shards_than_receivers(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(receivers=2, shards=3)

    def test_rejects_udp_multi_shard(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(transport="udp", shards=2, receivers=4)

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(attack_rate=-1.0)

    def test_shards_partition_receivers_with_distinct_seeds(self):
        config = LoadTestConfig(receivers=7, shards=3, seed=100)
        scenarios = [config.scenario_for_shard(s) for s in range(3)]
        assert [s.receivers for s in scenarios] == [3, 2, 2]
        assert [s.seed for s in scenarios] == [100, 101, 102]
        assert all(s.protocol == config.protocol for s in scenarios)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="warp")

    def test_vectorized_engine_rejects_udp_rate_and_proxy_faults(self):
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="vectorized", transport="udp")
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="vectorized", attack_rate=10.0)
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="vectorized", jitter=0.01)
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="vectorized", duplicate_probability=0.1)
        with pytest.raises(ConfigurationError):
            LoadTestConfig(engine="vectorized", reorder_probability=0.1)

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"intervals": 2, "attack_fraction": 1.5}, "intervals"),
            ({"attack_fraction": 1.5}, "attack_fraction"),
            ({"buffers": 0}, "buffers"),
            ({"disclosure_delay": 0}, "disclosure_delay"),
            ({"workload": "weather"}, "workload"),
            ({"protocol": "nosuch"}, "protocol"),
        ],
    )
    def test_scenario_fields_fail_at_construction(self, overrides, match):
        """The inherited ScenarioConfig checks run before any shard does."""
        with pytest.raises(ConfigurationError, match=match):
            LoadTestConfig(**overrides)

    def test_defaults_are_the_loadtest_shape(self):
        config = LoadTestConfig()
        assert config.receivers == 4
        assert config.intervals == 40
        assert config.interval_duration == 0.05
        assert config.link_delay == config.proxy_config().delay == 1e-3

    def test_scenario_is_the_plain_projection(self):
        config = LoadTestConfig(receivers=6, shards=2, seed=9, jitter=0.01)
        scenario = config.scenario
        assert type(scenario) is ScenarioConfig
        assert scenario == ScenarioConfig(
            receivers=6, intervals=40, interval_duration=0.05, seed=9
        )

    def test_engine_threads_into_shard_scenarios(self):
        config = LoadTestConfig(receivers=4, shards=2, engine="vectorized")
        assert all(
            config.scenario_for_shard(s).engine == "vectorized"
            for s in range(2)
        )


class TestDeriveSoakWorld:
    def test_rejects_non_two_phase_protocols(self):
        with pytest.raises(ConfigurationError):
            derive_soak_world(ScenarioConfig(protocol="tesla"))

    def test_sent_authentic_formula(self):
        world = derive_soak_world(ScenarioConfig(intervals=10, disclosure_delay=2))
        assert world.sent_authentic == 8
        assert len(world.receivers) == 5


class TestRunLoadtest:
    CONFIG = LoadTestConfig(
        receivers=4,
        shards=2,
        intervals=16,
        interval_duration=0.1,
        attack_fraction=0.5,
        loss_probability=0.1,
        seed=21,
    )

    def test_report_has_throughput_and_latency(self):
        report = run_loadtest(self.CONFIG)
        assert report.packets_per_second > 0
        assert report.latency_p99_us >= report.latency_p50_us > 0
        assert report.latency_samples > 0
        assert report.forged_accepted == 0
        assert report.shards == 2
        assert report.receivers == 4

    def test_report_roundtrips_through_json(self):
        report = run_loadtest(self.CONFIG)
        decoded = json.loads(report.to_json())
        assert decoded == report.to_dict()
        assert decoded["transport"] == "loopback"
        assert decoded["sent_authentic"] == report.sent_authentic

    def test_serial_and_parallel_agree_on_outcomes(self):
        serial = run_loadtest(self.CONFIG, executor=SerialExecutor())
        parallel = run_loadtest(self.CONFIG, executor=ParallelExecutor(jobs=2))
        # timing fields differ; every outcome field must not
        assert serial.authentication_rate == parallel.authentication_rate
        assert serial.forged_accepted == parallel.forged_accepted
        assert serial.datagrams_delivered == parallel.datagrams_delivered
        assert serial.datagrams_dropped == parallel.datagrams_dropped
        assert serial.packets_injected == parallel.packets_injected

    def test_merge_requires_results(self):
        with pytest.raises(ConfigurationError):
            merge_soaks(self.CONFIG, [], "loopback")

    def test_faulty_proxy_knobs_reach_the_soak(self):
        config = LoadTestConfig(
            receivers=2,
            intervals=12,
            interval_duration=0.1,
            duplicate_probability=1.0,
            seed=3,
        )
        report = run_loadtest(config)
        assert report.datagrams_duplicated > 0

    def test_rate_flood_overrides_fraction(self):
        config = LoadTestConfig(
            receivers=2,
            intervals=12,
            interval_duration=0.5,
            attack_rate=40.0,
            seed=3,
        )
        report = run_loadtest(config)
        assert report.packets_injected == int(40.0 * 12 * 0.5)
        assert report.forged_accepted == 0

    def test_vectorized_engine_predicts_soak_tallies(self):
        import dataclasses

        base = LoadTestConfig(
            receivers=4,
            shards=2,
            intervals=15,
            interval_duration=0.1,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=7,
        )
        des = run_loadtest(base)
        vectorized = run_loadtest(dataclasses.replace(base, engine="vectorized"))
        assert vectorized.authentication_rate == des.authentication_rate
        assert vectorized.attack_success_rate == des.attack_success_rate
        assert vectorized.forged_accepted == des.forged_accepted
        assert vectorized.peak_buffer_bits == des.peak_buffer_bits
        assert vectorized.sent_authentic == des.sent_authentic
        # Transport artifacts have no in-memory equivalent.
        assert vectorized.datagrams_delivered == 0
        assert vectorized.latency_samples == 0


class TestSoakResultProperties:
    def test_rates_come_from_fleet(self):
        result = run_loopback_soak(
            ScenarioConfig(intervals=8, interval_duration=0.2, receivers=2, seed=5)
        )
        assert result.authentication_rate == result.fleet.mean_authentication_rate
        assert result.attack_success_rate == result.fleet.mean_attack_success_rate
        assert result.simulated_seconds > 0


class TestShardSizes:
    def test_round_robin_balances(self):
        assert shard_sizes(10, 4) == [3, 3, 2, 2]
        assert shard_sizes(7, 3) == [3, 2, 2]
        assert shard_sizes(4, 4) == [1, 1, 1, 1]
        assert shard_sizes(5, 1) == [5]

    def test_partition_property(self):
        """Sizes always sum to the population and never differ by more
        than one — no shard is starved however uneven the division."""
        for receivers in range(1, 40):
            for shards in range(1, receivers + 1):
                sizes = shard_sizes(receivers, shards)
                assert sum(sizes) == receivers
                assert max(sizes) - min(sizes) <= 1
                assert sizes == sorted(sizes, reverse=True)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            shard_sizes(5, 0)
        with pytest.raises(ConfigurationError):
            shard_sizes(2, 3)


class TestReportSchema:
    REPORT = LoadTestReport(
        transport="loopback",
        protocol="dap",
        receivers=4,
        shards=2,
        intervals=16,
        sent_authentic=14,
        authentication_rate=1.0,
        attack_success_rate=0.0,
        forged_accepted=0,
        peak_buffer_bits=1024,
        packets_sent=56,
        packets_injected=0,
        datagrams_delivered=56,
        datagrams_dropped=0,
        datagrams_duplicated=0,
        datagrams_reordered=0,
        malformed=0,
        packets_per_second=100.0,
        latency_p50_us=10.0,
        latency_p99_us=20.0,
        latency_samples=56,
        simulated_seconds=1.6,
        wall_seconds=0.5,
    )

    def test_to_dict_carries_schema_version(self):
        data = self.REPORT.to_dict()
        assert data["schema_version"] == LOADTEST_SCHEMA_VERSION == 1

    def test_round_trip_through_json(self):
        data = json.loads(self.REPORT.to_json())
        assert LoadTestReport.from_dict(data) == self.REPORT

    def test_from_dict_ignores_unknown_keys(self):
        """Forward compatibility: a report written by a newer schema
        (extra fields, bumped version) still loads."""
        data = self.REPORT.to_dict()
        data["schema_version"] = 99
        data["a_future_field"] = "ignored"
        assert LoadTestReport.from_dict(data) == self.REPORT

    def test_from_dict_names_missing_fields(self):
        data = self.REPORT.to_dict()
        del data["peak_buffer_bits"]
        with pytest.raises(ConfigurationError, match="peak_buffer_bits"):
            LoadTestReport.from_dict(data)


#: LoadTestReport fields that are wall-clock measurements.
_TIMING_FIELDS = ("wall_seconds", "packets_per_second", "latency_p50_us", "latency_p99_us")

class TestFaultyLoopbackPin:
    """Loopback load tests with bursty loss, duplication and reordering
    on, with and without jitter, pinned to the reports of the
    per-datagram scheduling the fan-out replaced (timing fields left
    out). A fault draw moved, or a delivery made at the wrong time or
    out of turn with another datagram, changes these numbers."""

    @pytest.mark.parametrize(
        "protocol, jitter, expected",
        [
            ("dap", 4e-4, {
                "attack_success_rate": 0.19565217391304346,
                "authentication_rate": 0.5942028985507246,
                "datagrams_delivered": 2459, "datagrams_dropped": 527,
                "datagrams_duplicated": 306, "datagrams_reordered": 249,
                "latency_samples": 1789, "packets_sent": 1789,
                "peak_buffer_bits": 1344,
            }),
            ("tesla_pp", 4e-4, {
                "attack_success_rate": 0.6811594202898551,
                "authentication_rate": 0.1956521739130435,
                "datagrams_delivered": 2459, "datagrams_dropped": 527,
                "datagrams_duplicated": 306, "datagrams_reordered": 249,
                "latency_samples": 1789, "packets_sent": 1789,
                "peak_buffer_bits": 2688,
            }),
            ("dap", 0.0, {
                "attack_success_rate": 0.2318840579710145,
                "authentication_rate": 0.5217391304347826,
                "datagrams_delivered": 2526, "datagrams_dropped": 455,
                "datagrams_duplicated": 301, "datagrams_reordered": 280,
                "latency_samples": 1856, "packets_sent": 1856,
                "peak_buffer_bits": 1176,
            }),
            ("tesla_pp", 0.0, {
                "attack_success_rate": 0.6159420289855073,
                "authentication_rate": 0.21739130434782608,
                "datagrams_delivered": 2526, "datagrams_dropped": 455,
                "datagrams_duplicated": 301, "datagrams_reordered": 280,
                "latency_samples": 1856, "packets_sent": 1856,
                "peak_buffer_bits": 2352,
            }),
        ],
    )
    def test_report_matches_per_datagram_scheduling(self, protocol, jitter, expected):
        config = LoadTestConfig(
            protocol=protocol, receivers=6, shards=2, intervals=24, buffers=3,
            attack_fraction=0.6, loss_probability=0.25, loss_mean_burst=3.0,
            jitter=jitter, duplicate_probability=0.2, reorder_probability=0.15,
            seed=11,
        )
        document = run_loadtest(config).to_dict()
        for name in _TIMING_FIELDS:
            del document[name]
        assert document == {
            "protocol": protocol, "transport": "loopback", "receivers": 6,
            "shards": 2, "intervals": 24, "schema_version": 1,
            "sent_authentic": 23, "forged_accepted": 0, "malformed": 0,
            "packets_injected": 384, "simulated_seconds": 1.3000000000000003,
            **expected,
        }
