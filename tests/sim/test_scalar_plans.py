"""The fleet engine's array-built plans against the per-packet oracle.

``tests/sim/scalar_plans.py`` holds the plan builders as they were
before the timelines became arrays (one ``packets_for_interval`` call
per interval, one tuple per slot, a ``sorted`` by time, one
``forged_bytes`` call per injection). Every field of every plan must
match it: slot times bit for bit (compared as ``float.hex``), every
slot column, the MAC and collision tables, and the attacker stream's
state after the plan is built.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.crypto import PEBBLED_THRESHOLD
from repro.devtools.sanitizers.determinism import DeterminismSanitizer, tracing
from repro.scenarios.families import (
    ALL_PROTOCOLS, MULTI_LEVEL, SINGLE_LEVEL, TWO_PHASE,
)
from repro.sim import fleet
from repro.sim.draws import SeedLadder
from repro.sim.scenario import ScenarioConfig, run_scenario
from repro.sim.workloads import workload_for
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync
from tests.sim import scalar_plans


def _oracle(protocol):
    if protocol in SINGLE_LEVEL:
        return scalar_plans.build_single_level_plan
    if protocol in MULTI_LEVEL:
        return scalar_plans.build_multilevel_plan
    return scalar_plans.build_two_phase_plan


def _build(builder, config):
    seeds = SeedLadder(config.seed)
    seeds.receiver_seeds(config.receivers)
    plan = builder(
        config,
        IntervalSchedule(0.0, config.interval_duration),
        LooseTimeSync(config.max_offset),
        workload_for(config),
        seeds,
    )
    # The attacker stream must be left where the scalar draws leave it.
    after = seeds.attacker().getrandbits(32)
    return plan, after


def _column(values):
    return np.asarray(values).tolist()


def _assert_same_fields(plan, expected):
    assert type(plan) is type(expected)
    for field in dataclasses.fields(plan):
        got, want = getattr(plan, field.name), getattr(expected, field.name)
        if field.name == "times":
            assert [t.hex() for t in _column(got)] == [
                t.hex() for t in _column(want)
            ]
        elif isinstance(want, (list, np.ndarray)):
            assert _column(got) == _column(want), field.name
        else:
            assert got == want, field.name


def _assert_same_plan(config):
    plan, after = _build(fleet._build_plan, config)
    expected, expected_after = _build(_oracle(config.protocol), config)
    assert after == expected_after
    _assert_same_fields(plan, expected)


def _config(protocol, **overrides):
    base = dict(
        protocol=protocol,
        intervals=16,
        receivers=3,
        buffers=3,
        attack_fraction=0.8,
        loss_probability=0.1,
        seed=1,
        engine="vectorized",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestPlansMatchTheScalarBuilders:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("attack", [0.0, 0.8])
    def test_attack_levels_and_seeds(self, protocol, seed, attack):
        _assert_same_plan(_config(protocol, seed=seed, attack_fraction=attack))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_attack_bursts(self, protocol, seed):
        _assert_same_plan(
            _config(protocol, seed=seed, attack_burst_fraction=0.3)
        )

    @pytest.mark.parametrize("intervals", [3, 4])
    def test_runs_no_longer_than_the_disclosure_delay(self, protocol, intervals):
        _assert_same_plan(_config(protocol, intervals=intervals, disclosure_delay=4))

    @pytest.mark.parametrize("per_interval", [1, 4])
    def test_packets_per_interval(self, protocol, per_interval):
        _assert_same_plan(_config(protocol, packets_per_interval=per_interval))

    def test_announce_copies(self, protocol):
        _assert_same_plan(
            _config(protocol, announce_copies=3, packets_per_interval=2)
        )

    def test_pebbled_chain_length(self, protocol):
        _assert_same_plan(
            _config(protocol, intervals=PEBBLED_THRESHOLD, seed=2)
        )


class _Ordered(DeterminismSanitizer):
    """Also notes the stream of every draw, in global record order."""

    def __init__(self):
        super().__init__()
        self.order = []

    def record(self, stream, method, value):
        self.order.append(stream)
        return super().record(stream, method, value)


def _attacker_draw(run, nth=3):
    """Global index of the ``nth`` attacker draw ``run()`` makes."""
    probe = _Ordered()
    with tracing(probe):
        run()
    return [i for i, stream in enumerate(probe.order) if stream == "attacker"][nth]


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
class TestCorruptedAttackerDraw:
    """A corrupting sanitizer sends the forged-byte draws down the
    scalar path, so a flipped attacker byte feeds back into the fleet
    run as it does into the DES."""

    def test_plan_matches_the_scalar_builder(self, protocol):
        config = _config(protocol, intervals=12, seed=2)
        plans = []
        for builder in (fleet._build_plan, _oracle(protocol)):
            at = _attacker_draw(lambda b=builder: _build(b, config))
            with tracing(DeterminismSanitizer(corrupt_draw=at)) as sanitizer:
                plans.append(_build(builder, config)[0])
            assert sanitizer.corrupted_site is not None
        corrupted, expected = plans
        _assert_same_fields(corrupted, expected)
        if protocol in TWO_PHASE:
            # The flipped byte is in the first forged MAC.
            clean = _build(fleet._build_plan, config)[0]
            assert corrupted.forged_macs[0] != clean.forged_macs[0]
            assert corrupted.forged_macs[1:] == clean.forged_macs[1:]

    def test_fleet_still_equals_the_des(self, protocol):
        config = _config(protocol, intervals=12, seed=2)
        des_config = dataclasses.replace(config, engine="des")
        runs = []
        for run in (
            lambda: run_scenario(des_config),
            lambda: fleet.run_fleet_scenario(config),
        ):
            at = _attacker_draw(run)
            with tracing(DeterminismSanitizer(corrupt_draw=at)) as sanitizer:
                runs.append((sanitizer, run()))
        (des_sanitizer, des), (fleet_sanitizer, vectorized) = runs
        assert des_sanitizer.trace.diff(
            fleet_sanitizer.trace, streams=["attacker"]
        ) == ()
        assert vectorized.fleet == des.fleet
