"""ClusterConfig validation."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.config import ClusterConfig
from repro.errors import ConfigurationError
from repro.scenarios import get_scenario


@pytest.fixture(scope="module")
def baseline():
    return get_scenario("crowdsensing-baseline-t0").config


def test_defaults_validate(baseline):
    config = ClusterConfig(scenario=baseline)
    assert config.workers == 2
    assert config.shards == 2
    assert config.reconcile is True


@pytest.mark.parametrize(
    "overrides, match",
    [
        ({"workers": 0}, "workers"),
        ({"shards": 0}, "shards"),
        ({"rounds": 0}, "rounds"),
        ({"port": 70000}, "port"),
        ({"heartbeat_interval": 0.0}, "heartbeat_interval"),
        ({"heartbeat_interval": 2.0, "lease_ttl": 1.0}, "lease_ttl"),
        ({"metrics_interval": 0.0}, "metrics_interval"),
        ({"max_inflight": 0}, "max_inflight"),
        ({"max_rss_mb": 0.0}, "max_rss_mb"),
        ({"max_attempts": 0}, "max_attempts"),
        ({"max_runtime": 0.0}, "max_runtime"),
        ({"task_stall": -1.0}, "task_stall"),
        ({"tolerance": -1}, "tolerance"),
    ],
)
def test_validation_names_the_bad_field(baseline, overrides, match):
    with pytest.raises(ConfigurationError, match=match):
        ClusterConfig(scenario=baseline, **overrides)


def test_shards_bounded_by_receivers(baseline):
    ClusterConfig(scenario=baseline, shards=baseline.receivers)
    with pytest.raises(ConfigurationError, match="shards"):
        ClusterConfig(scenario=baseline, shards=baseline.receivers + 1)


def test_rejects_non_testbed_protocols(baseline):
    scenario = replace(baseline, protocol="tesla")
    with pytest.raises(ConfigurationError, match="protocol"):
        ClusterConfig(scenario=scenario)
