"""Unit tests for loose synchronisation and the security condition."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, SecurityConditionError
from repro.timesync.intervals import IntervalSchedule, TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition


class TestLooseTimeSync:
    def test_upper_bound(self):
        sync = LooseTimeSync(0.5)
        assert sync.sender_time_upper_bound(10.0) == 10.5

    def test_zero_offset_allowed(self):
        assert LooseTimeSync(0.0).sender_time_upper_bound(1.0) == 1.0

    def test_negative_offset_rejected(self):
        with pytest.raises(ConfigurationError):
            LooseTimeSync(-0.1)

    def test_interval_upper_bound(self, schedule):
        sync = LooseTimeSync(0.5)
        # At receiver time 0.6 the sender might already be at 1.1 ->
        # interval 2.
        assert sync.sender_interval_upper_bound(0.6, schedule) == 2

    def test_interval_upper_bound_within(self, schedule):
        sync = LooseTimeSync(0.1)
        assert sync.sender_interval_upper_bound(0.5, schedule) == 1


class TestSecurityCondition:
    @pytest.fixture
    def cond(self, schedule):
        return SecurityCondition(schedule, LooseTimeSync(0.01), disclosure_delay=1)

    def test_fresh_packet_safe(self, cond):
        # Packet of interval 3 received during interval 3: K_3 disclosed
        # in interval 4, still secret.
        assert cond.is_safe(3, 2.5)

    def test_stale_packet_unsafe(self, cond):
        # Packet of interval 1 received during interval 3: K_1 was
        # disclosed in interval 2.
        assert not cond.is_safe(1, 2.5)

    def test_disclosure_boundary_unsafe(self, cond):
        # Received during interval i+d: the key is being disclosed now.
        assert not cond.is_safe(2, 2.5)

    def test_sync_slack_matters(self, schedule):
        tight = SecurityCondition(schedule, LooseTimeSync(0.0), 1)
        loose = SecurityCondition(schedule, LooseTimeSync(0.5), 1)
        # Just before the boundary: safe under perfect sync, unsafe when
        # the sender may already be past it.
        assert tight.is_safe(2, 1.9)
        assert not loose.is_safe(2, 1.9)

    def test_larger_delay_extends_safety(self, schedule):
        d1 = SecurityCondition(schedule, LooseTimeSync(0.01), 1)
        d3 = SecurityCondition(schedule, LooseTimeSync(0.01), 3)
        assert not d1.is_safe(2, 2.5)
        assert d3.is_safe(2, 2.5)

    def test_nonpositive_interval_unsafe(self, cond):
        assert not cond.is_safe(0, 0.5)
        assert not cond.is_safe(-1, 0.5)

    def test_paper_literal_is_permissive_at_boundary(self, schedule):
        strict = SecurityCondition(schedule, LooseTimeSync(0.0), 1)
        literal = SecurityCondition(
            schedule, LooseTimeSync(0.0), 1, paper_literal=True
        )
        # Receiver in interval 3, packet from interval 2, d=1: the key is
        # being disclosed *now*. The textbook condition rejects; the
        # paper's published inequality (discard only when i + d < x)
        # accepts.
        assert not strict.is_safe(2, 2.5)
        assert literal.is_safe(2, 2.5)

    def test_paper_literal_still_rejects_clearly_stale(self, schedule):
        literal = SecurityCondition(
            schedule, LooseTimeSync(0.0), 1, paper_literal=True
        )
        assert not literal.is_safe(1, 3.5)

    def test_require_safe_raises(self, cond):
        with pytest.raises(SecurityConditionError):
            cond.require_safe(1, 5.0)

    def test_require_safe_passes(self, cond):
        cond.require_safe(6, 5.0)

    def test_disclosure_interval(self, cond):
        assert cond.disclosure_interval(4) == 5

    def test_disclosure_interval_bad_input(self, cond):
        with pytest.raises(ConfigurationError):
            cond.disclosure_interval(0)

    def test_bad_delay_rejected(self, schedule):
        with pytest.raises(ConfigurationError):
            SecurityCondition(schedule, LooseTimeSync(0.0), disclosure_delay=0)


class TestPlausibility:
    @pytest.fixture
    def cond(self, schedule):
        return SecurityCondition(schedule, LooseTimeSync(0.01), disclosure_delay=1)

    def test_current_interval_plausible(self, cond):
        assert cond.is_plausible(3, 2.5)

    def test_far_future_interval_implausible(self, cond):
        """An attacker claiming interval 10^6 cannot allocate buffers."""
        assert not cond.is_plausible(10 ** 6, 2.5)

    def test_next_interval_implausible_within_sync_bound(self, cond):
        assert not cond.is_plausible(4, 2.5)

    def test_sync_slack_extends_the_window(self, schedule):
        loose = SecurityCondition(schedule, LooseTimeSync(0.6), 1)
        # receiver at 2.5, sender may be at 3.1 -> interval 4 plausible
        assert loose.is_plausible(4, 2.5)

    def test_nonpositive_interval_implausible(self, cond):
        assert not cond.is_plausible(0, 2.5)

    def test_accepts_requires_both(self, cond):
        assert cond.accepts(3, 2.5)  # current: plausible and safe
        assert not cond.accepts(1, 2.5)  # past: plausible but unsafe
        assert not cond.accepts(9, 2.5)  # future: safe but implausible


def _conditions():
    """Plain, bounded, offset-start and two-level schedules under both
    inequalities and a range of disclosure delays and sync bounds."""
    two_level = TwoLevelSchedule(0.5, 0.25, 4, high_count=6)
    schedules = [
        IntervalSchedule(0.0, 1.0),
        IntervalSchedule(0.0, 0.1, count=30),
        IntervalSchedule(3.7, 0.3),
        two_level.high_schedule,
        two_level.low_schedule,
    ]
    for schedule in schedules:
        for offset in (0.0, 0.05, 1.3):
            for delay in (1, 2, 5):
                for literal in (False, True):
                    yield SecurityCondition(
                        schedule, LooseTimeSync(offset), delay, literal
                    )


class TestAcceptsMany:
    """The array form must return the scalar ``accepts`` verdict."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_scalar_accepts(self, seed):
        rng = random.Random(seed)
        for cond in _conditions():
            schedule, offset = cond.schedule, cond.sync.max_offset
            times = [rng.uniform(schedule.start - 2.0, schedule.start + 40.0)]
            for k in range(-3, 45):
                boundary = schedule.start + k * schedule.duration
                # Exactly on a boundary of receiver time and of sender time.
                times += [boundary, boundary - offset]
            times += [rng.uniform(-5.0, 60.0) for _ in range(40)]
            intervals = [rng.randint(-2, 50) for _ in times]
            got = cond.accepts_many(intervals, times)
            assert got.dtype == np.bool_
            assert got.tolist() == [
                cond.accepts(i, t) for i, t in zip(intervals, times)
            ]

    def test_sub_one_intervals_never_accepted(self, schedule):
        cond = SecurityCondition(schedule, LooseTimeSync(0.0), 1, paper_literal=True)
        assert not cond.accepts_many([0, -1, -7], [2.5, 2.5, 2.5]).any()

    def test_before_start_accepts_nothing(self):
        cond = SecurityCondition(IntervalSchedule(10.0, 1.0), LooseTimeSync(0.0), 3)
        assert not cond.accepts_many([1, 2, 3], [9.0, 9.5, 9.999]).any()

    def test_empty(self, schedule):
        cond = SecurityCondition(schedule, LooseTimeSync(0.0), 1)
        assert cond.accepts_many([], []).shape == (0,)


class TestAcceptsIsBothTests:
    """``accepts`` computes the sender's interval bound once; its verdict
    must still be exactly ``is_plausible and is_safe``."""

    def test_grid(self):
        checked = {True: 0, False: 0}
        for cond in _conditions():
            schedule, offset = cond.schedule, cond.sync.max_offset
            end = schedule.start + (schedule.count or 40) * schedule.duration
            times = [schedule.start - 3.0, schedule.start - offset, end + 5.0]
            for k in range(-2, 46):
                boundary = schedule.start + k * schedule.duration
                times += [boundary, boundary - offset, boundary + 0.5 * schedule.duration]
            for interval in [*range(-2, 8), *range(8, 52, 3)]:
                for time in times:
                    expected = cond.is_plausible(interval, time) and cond.is_safe(
                        interval, time
                    )
                    assert cond.accepts(interval, time) is expected
                    checked[expected] += 1
        assert checked[True] and checked[False]
