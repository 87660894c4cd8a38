"""The bench runner: document schema, tripwires, JSON output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.perf.bench import (
    BENCH_PRESETS,
    DES_PARITY_MAX_RECEIVERS,
    SCENARIO_PRESETS,
    SIM_BENCH_PRESETS,
    run_bench,
    run_sim_bench,
    write_bench_json,
)


class TestPresets:
    def test_fig5_preset_matches_the_paper_operating_point(self):
        fig5 = SCENARIO_PRESETS["fig5"]
        assert fig5.protocol == "dap"
        assert fig5.attack_fraction == 0.5
        assert fig5.loss_probability == 0.1

    def test_every_bench_preset_names_a_scenario(self):
        for sizes in BENCH_PRESETS.values():
            assert sizes["scenario"] in SCENARIO_PRESETS

    def test_rejects_unknown_preset_and_bad_repeat(self):
        with pytest.raises(ConfigurationError):
            run_bench("no-such-preset")
        with pytest.raises(ConfigurationError):
            run_bench("smoke", repeat=0)


@pytest.fixture(scope="module")
def smoke_document():
    return run_bench("smoke", repeat=1)


class TestRunBench:
    def test_document_schema(self, smoke_document):
        assert smoke_document["preset"] == "smoke"
        results = smoke_document["results"]
        assert set(results) == {
            "keychain_walks", "mac_verify", "mac_batch",
            "umac_reservoir", "pebbled", "scenario",
        }
        for section in ("keychain_walks", "mac_verify"):
            assert results[section]["naive_ops_per_sec"] > 0
            assert results[section]["kernel_ops_per_sec"] > 0
            assert results[section]["speedup"] > 0
        for section in ("mac_batch", "umac_reservoir"):
            assert results[section]["scalar_ops_per_sec"] > 0
            assert results[section]["batched_ops_per_sec"] > 0
            assert results[section]["speedup"] > 0

    def test_umac_reservoir_checks_survivor_identity(self, smoke_document):
        assert smoke_document["results"]["umac_reservoir"][
            "identical_survivors"
        ] is True

    def test_scenario_reports_the_three_way_comparison(self, smoke_document):
        """DES vs fleet walls and their ratio, on the preset's fleet."""
        scenario = smoke_document["results"]["scenario"]
        assert scenario["naive_wall_seconds"] > 0
        assert scenario["kernel_wall_seconds"] > 0
        assert scenario["speedup"] > 0
        assert scenario["receivers"] == BENCH_PRESETS["smoke"][
            "scenario_receivers"
        ]

    def test_keychain_walks_meet_the_acceptance_bar(self, smoke_document):
        """The checked-in artifact claims >= 2x on the keychain
        micro-bench (walk cache vs uncached walks, same run)."""
        assert smoke_document["results"]["keychain_walks"]["speedup"] >= 2.0

    def test_scenario_counters_nonzero(self, smoke_document):
        counters = smoke_document["results"]["scenario"]["counters"]
        assert counters["crypto.hash"] > 0
        assert counters["crypto.mac"] > 0
        assert counters["crypto.mac.batches"] > 0
        assert smoke_document["results"]["scenario"]["identical_summaries"]

    def test_pebbled_section_reports_the_memory_story(self, smoke_document):
        pebbled = smoke_document["results"]["pebbled"]
        assert pebbled["peak_stored_keys"] <= pebbled["peak_bound"]
        assert pebbled["peak_stored_keys"] < pebbled["dense_stored_keys"] // 100

    def test_write_bench_json(self, smoke_document, tmp_path):
        path = tmp_path / "BENCH_crypto.json"
        write_bench_json(path, smoke_document)
        loaded = json.loads(path.read_text())
        assert loaded["preset"] == "smoke"
        assert path.read_text().endswith("\n")


BENCH_CRYPTO = Path(__file__).resolve().parents[2] / "BENCH_crypto.json"


class TestCheckedInArtifact:
    def test_bench_crypto_artifact_meets_the_speedup_floor(self):
        """The committed BENCH_crypto.json documents the fig5 end-to-end
        speedup the CI perf-smoke job enforces: naive DES stack vs the
        fleet kernel stack, summaries byte-identical in the same run."""
        scenario = json.loads(BENCH_CRYPTO.read_text())["results"]["scenario"]
        assert scenario["identical_summaries"] is True
        assert scenario["speedup"] >= 1.5
        assert scenario["counters"]["crypto.mac.batches"] > 0

    def test_bench_crypto_artifact_has_the_current_sections(
        self, smoke_document
    ):
        """A section run_bench no longer writes (or one it writes but the
        artifact lacks) means the committed file is stale."""
        committed = json.loads(BENCH_CRYPTO.read_text())["results"]
        assert set(committed) == set(smoke_document["results"])


class TestSimBenchReceiversScaling:
    def test_sim_presets_cover_every_protocol_family(self):
        from repro.scenarios.families import ALL_PROTOCOLS

        for sizes in SIM_BENCH_PRESETS.values():
            assert set(sizes) == {f"fleet_{p}" for p in ALL_PROTOCOLS}

    def test_scaling_axis_schema_and_parity(self):
        document = run_sim_bench(
            preset="smoke", repeat=1, receivers=[20, 50]
        )
        scaling = document["receivers_scaling"]
        assert scaling["config"] == "fig5-t2"
        entries = scaling["entries"]
        assert [entry["receivers"] for entry in entries] == [20, 50]
        for entry in entries:
            assert entry["vectorized_wall_seconds"] > 0
            assert entry["peak_rss_kb"] > 0
            assert entry["shards"] >= 1
            assert 0.0 <= entry["mean_authentication_rate"] <= 1.0
            # Both counts sit under the DES-parity ceiling, so the
            # speedup is a checked fact, not a projection.
            assert entry["receivers"] <= DES_PARITY_MAX_RECEIVERS
            assert entry["identical_summaries"] is True
            assert entry["speedup"] > 0
            assert set(entry["phase_seconds"]) == {
                "fleet.plan", "fleet.mask", "fleet.replay.dap",
            }
            # The wall is rounded to 0.1 ms, the phases to 1 us.
            assert sum(entry["phase_seconds"].values()) <= (
                entry["vectorized_wall_seconds"] + 1e-4
            )

    def test_no_scaling_section_without_receivers(self):
        document = run_sim_bench(preset="smoke", repeat=1)
        assert "receivers_scaling" not in document
        # Every section carries its fleet run's phase split.
        for section in document["results"].values():
            phases = section["phase_seconds"]
            assert set(phases) == {
                "fleet.plan", "fleet.mask",
                f"fleet.replay.{section['protocol']}",
            }
            assert all(seconds >= 0 for seconds in phases.values())

    def test_rejects_non_positive_receiver_counts(self):
        with pytest.raises(ConfigurationError):
            run_sim_bench(preset="smoke", repeat=1, receivers=[100, 0])
