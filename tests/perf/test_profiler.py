"""profile_call and the PerfReport JSON schema."""

from __future__ import annotations

import json

import pytest

from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError
from repro.perf.profiler import profile_call
from repro.perf.report import PerfReport
from repro.perf.registry import PerfRegistry


def _hash_burst(function: OneWayFunction, steps: int) -> bytes:
    return function.iterate(b"\x00" * function.output_bytes, steps)


class TestProfileCall:
    def test_returns_result_and_counters(self):
        function = OneWayFunction("F")
        outcome = profile_call(_hash_burst, function, 50, label="burst")
        assert outcome.result == function.iterate(b"\x00" * function.output_bytes, 50)
        assert outcome.report.label == "burst"
        assert outcome.report.counters["crypto.hash"] == 50
        assert outcome.report.wall_seconds >= 0.0

    def test_hotspots_present_and_bounded(self):
        function = OneWayFunction("F")
        outcome = profile_call(_hash_burst, function, 20, top=3)
        assert 0 < len(outcome.report.hotspots) <= 3
        row = outcome.report.hotspots[0]
        assert {"function", "calls", "tottime", "cumtime"} <= set(row)

    def test_rejects_bad_top(self):
        with pytest.raises(ConfigurationError):
            profile_call(lambda: None, top=0)

    def test_accumulates_into_shared_registry(self):
        function = OneWayFunction("F")
        registry = PerfRegistry()
        profile_call(_hash_burst, function, 10, registry=registry)
        profile_call(_hash_burst, function, 10, registry=registry)
        assert registry.counter("crypto.hash") == 20

    def test_default_label_is_qualname(self):
        outcome = profile_call(_hash_burst, OneWayFunction("F"), 1)
        assert "_hash_burst" in outcome.report.label


class TestPerfReportSchema:
    def test_round_trips_through_json(self):
        function = OneWayFunction("F")
        outcome = profile_call(_hash_burst, function, 30, label="schema")
        document = json.loads(outcome.report.to_json())
        assert document["label"] == "schema"
        assert document["counters"]["crypto.hash"] == 30
        assert "derived" in document
        assert isinstance(document["hotspots"], list)

    def test_derived_ratios(self):
        report = PerfReport(
            label="x",
            wall_seconds=0.1,
            counters={
                "crypto.hash": 100,
                "crypto.mac": 50,
                "sim.events": 4,
                "sim.deliveries": 10,
                "crypto.walk_cache.hits": 3,
                "crypto.walk_cache.misses": 1,
            },
        )
        derived = report.to_dict()["derived"]
        assert derived["hashes_per_delivery"] == pytest.approx(10.0)
        assert derived["macs_per_delivery"] == pytest.approx(5.0)
        assert "hashes_per_event" not in derived
        assert derived["walk_cache_hit_rate"] == pytest.approx(0.75)

    def test_empty_report(self):
        report = PerfReport(label="empty", wall_seconds=0.0)
        document = report.to_dict()
        assert document["derived"] == {}
        assert document["counters"] == {}
