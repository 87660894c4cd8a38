"""Shard planning: the task list is the whole contract."""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

from repro.cluster.protocol import decode_scenario, encode_scenario
from repro.cluster.shards import ShardTask, plan_tasks
from repro.errors import ConfigurationError
from repro.net.harness import LoadTestConfig
from repro.scenarios import get_scenario
from repro.sim.scenario import ScenarioConfig, shard_scenarios, shard_sizes


@pytest.fixture(scope="module")
def baseline():
    return get_scenario("crowdsensing-baseline-t0").config


def test_plan_tasks_single_round_matches_shard_sizes(baseline):
    tasks = plan_tasks(baseline, shards=2)
    assert [t.task_id for t in tasks] == ["r0-s0", "r0-s1"]
    sizes = shard_sizes(baseline.receivers, 2)
    assert [t.scenario.receivers for t in tasks] == sizes
    assert sum(t.scenario.receivers for t in tasks) == baseline.receivers


def test_plan_tasks_round_major_ordering(baseline):
    tasks = plan_tasks(baseline, shards=2, rounds=2)
    assert [t.task_id for t in tasks] == [
        "r0-s0",
        "r0-s1",
        "r1-s0",
        "r1-s1",
    ]


def test_plan_tasks_pins_engine(baseline):
    for engine in ("des", "vectorized"):
        tasks = plan_tasks(replace(baseline, engine=engine), shards=2)
        assert all(t.scenario.engine == engine for t in tasks)


def test_plan_tasks_rejects_bad_shard_counts(baseline):
    with pytest.raises(ConfigurationError):
        plan_tasks(baseline, shards=0)
    with pytest.raises(ConfigurationError):
        plan_tasks(baseline, shards=baseline.receivers + 1)


def test_shard_task_is_frozen(baseline):
    task = plan_tasks(baseline, shards=1)[0]
    assert isinstance(task, ShardTask)
    with pytest.raises(AttributeError):
        task.shard = 9  # type: ignore[misc]


@pytest.mark.parametrize(
    "name, shards, rounds, engine",
    [
        ("crowdsensing-baseline-t0", 1, 1, "des"),
        ("crowdsensing-baseline-t0", 2, 3, "vectorized"),
        ("vehicular-beacon-storm-t3", 4, 2, "des"),
        ("remote-id-storm-t3", 5, 1, "vectorized"),
    ],
)
def test_one_shard_plan(name, shards, rounds, engine):
    """shard_scenarios is the one shard plan: round-major, shard s of
    round r at seed base + r*shards + s, every other field carried
    through, and both the cluster planner and ``repro loadtest`` are
    views of it."""
    scenario = replace(get_scenario(name).config, engine=engine)
    planned = shard_scenarios(scenario, shards, rounds)
    sizes = shard_sizes(scenario.receivers, shards)
    assert [s.receivers for s in planned] == sizes * rounds
    assert [s.seed for s in planned] == [
        scenario.seed + r * shards + s for r in range(rounds) for s in range(shards)
    ]
    for shard_scenario in planned:
        # Exactly ScenarioConfig: a LoadTestConfig here would put the net
        # knobs into the wire document, which decode_scenario rejects.
        assert type(shard_scenario) is ScenarioConfig
        assert shard_scenario.engine == engine
        assert (
            replace(shard_scenario, receivers=scenario.receivers, seed=scenario.seed)
            == scenario
        )

    tasks = plan_tasks(scenario, shards, rounds)
    assert [t.scenario for t in tasks] == planned
    assert [(t.round_index, t.shard) for t in tasks] == [
        (r, s) for r in range(rounds) for s in range(shards)
    ]
    for task in tasks:
        assert decode_scenario(encode_scenario(task.scenario)) == task.scenario

    loadtest = LoadTestConfig(**asdict(scenario), shards=shards)
    assert [
        loadtest.scenario_for_shard(s) for s in range(shards)
    ] == planned[:shards]


def test_planned_task_wire_document_is_pinned():
    """The scenario document a coordinator leases, byte for byte, so
    workers and coordinators of adjacent versions still interoperate."""
    scenario = replace(get_scenario("remote-id-storm-t3").config, engine="vectorized")
    task = plan_tasks(scenario, shards=2, rounds=2)[3]
    assert task.task_id == "r1-s1"
    assert json.dumps(encode_scenario(task.scenario), sort_keys=True) == (
        '{"announce_copies": 5, "attack_burst_fraction": 0.125,'
        ' "attack_fraction": 0.8, "buffers": 13, "cdm_copies": 4,'
        ' "disclosure_delay": 1, "engine": "vectorized",'
        ' "interval_duration": 1.0, "intervals": 30, "link_delay": 0.001,'
        ' "loss_mean_burst": 4.0, "loss_probability": 0.2, "low_per_high": 5,'
        ' "max_offset": 0.01, "packets_per_interval": 1, "protocol": "tesla_pp",'
        ' "receivers": 2, "seed": 10, "sensing_tasks": 5,'
        ' "workload": "remote-id"}'
    )
