"""Unit tests for the discrete-event simulator core."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.events import Simulator
from tests.sim.per_receiver import schedule_each
from tests.sim.scalar_events import DataclassHeapSimulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("b"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(3.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_break_fifo(self):
        sim = Simulator()
        log = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: log.append(n))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_schedule_in_relative(self):
        sim = Simulator(start=10.0)
        fired = []
        sim.schedule_in(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.5]

    def test_past_scheduling_rejected(self):
        sim = Simulator(start=5.0)
        with pytest.raises(SchedulingError):
            sim.schedule(4.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_in(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append("first")
            sim.schedule_in(1.0, lambda: log.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert log == ["first", "second"]
        assert sim.now == 2.0


class TestRunControl:
    def test_until_is_inclusive(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(2.0, lambda: log.append(2))
        sim.schedule(3.0, lambda: log.append(3))
        sim.run(until=2.0)
        assert log == [1, 2]
        assert sim.now == 2.0

    def test_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_remaining_events_fire_on_next_run(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: log.append("late"))
        sim.run(until=1.0)
        assert log == []
        sim.run()
        assert log == ["late"]

    def test_max_events_budget(self):
        sim = Simulator()
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        assert sim.run(max_events=2) == 2
        assert log == [0, 1]

    def test_processed_counter(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.processed == 2

    def test_bad_max_events(self):
        with pytest.raises(ConfigurationError):
            Simulator().run(max_events=-1)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        log = []
        handle = sim.schedule(1.0, lambda: log.append("x"))
        assert handle.cancel()
        sim.run()
        assert log == []
        assert handle.cancelled

    def test_cancel_after_fire_fails(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        assert handle.fired
        assert not handle.cancel()


#: Offsets and delays with ties, zero and int/float twins (1 and 1.0).
_STEPS = (0, 0.0, 0.5, 1, 1.0, 1.5, 2, 2.75, 4.0)


def _drive(sim, seed):
    """A seeded mix of schedule / schedule_in / cancel / run calls, with
    actions that schedule and cancel events of their own. Returns every
    firing, every call's result and the state after each call."""
    rng = random.Random(seed)
    handles = []
    fired = []
    trace = []

    def action(eid):
        plan = random.Random(seed * 1_000_003 + eid)

        def fire():
            fired.append((eid, sim.now))
            for _ in range(plan.choice((0, 0, 1, 2))):
                add(sim.schedule_in, plan.choice(_STEPS))
            if handles and plan.random() < 0.25:
                trace.append(("cancel-in-action", handles[plan.randrange(len(handles))].cancel()))

        return fire

    def add(schedule, when):
        try:
            handles.append(schedule(when, action(len(handles))))
        except SchedulingError:
            trace.append(("past", when))

    for _ in range(300):
        op = rng.random()
        if op < 0.35:
            add(sim.schedule, math.floor(sim.now) + rng.choice(_STEPS) - rng.choice((0, 0, 1)))
        elif op < 0.5:
            add(sim.schedule_in, rng.choice(_STEPS))
        elif op < 0.6 and handles:
            trace.append(("cancel", handles[rng.randrange(len(handles))].cancel()))
        else:
            until = rng.choice((None, sim.now, sim.now + rng.choice(_STEPS)))
            budget = rng.choice((None, None, 0, 1, 3, 7))
            trace.append(("run", sim.run(until=until, max_events=budget)))
        trace.append((sim.now, sim.pending, sim.processed))
    trace.append(("drain", sim.run()))
    trace.append((sim.now, sim.pending, sim.processed))
    states = [(h.fired, h.cancelled) for h in handles]
    return fired, trace, states


class TestDataclassHeapOracle:
    """The tuple heap against the old dataclass-heap loop
    (``tests/sim/scalar_events.py``): same firing order and times,
    clock, ``pending``, ``processed``, run counts and handle states."""

    def test_random_sequences_match(self):
        seen = set()
        for seed in range(16):
            ours = _drive(Simulator(start=0.5 * (seed % 3)), seed)
            oracle = _drive(DataclassHeapSimulator(start=0.5 * (seed % 3)), seed)
            assert ours == oracle, seed
            fired, trace, states = ours
            seen.update(entry[:2] for entry in trace if isinstance(entry[0], str))
            seen.update(states)
            assert fired
        # The sequences reach every branch the two loops could differ on.
        assert {("cancel", True), ("cancel", False), ("run", 0)} <= seen
        assert ("cancel-in-action", True) in seen
        assert any(entry[0] == "past" for entry in seen)
        assert {(True, False), (False, True)} <= seen


#: Fan-out delays: ties, zero, and 0.1 next to the float just above it.
#: From a clock at 1.0 or later the two add up to the same arrival, so
#: grouping by delay instead of by arrival would reorder them.
_FAN_DELAYS = (0.0, 0.1, math.nextafter(0.1, 1.0), 0.25, 0.25, 0.5)


def _drive_fanouts(seed, grouped):
    """A seeded mix of fan-outs (with equal and unequal arrivals), plain
    events before and after them, and handlers that schedule more
    events and fan-outs at delay 0 while a group delivers. Returns every
    firing with its time, and the clock and ``pending`` after each run."""
    sim = Simulator(start=0.5 * (seed % 3))
    rng = random.Random(seed)
    fired = []
    trace = []
    ids = iter(range(10**9))

    def fanout(delays):
        deliveries = [(sim.now + delay, next(ids)) for delay in delays]
        if grouped:
            sim.schedule_fanout(deliveries, deliver)
        else:
            schedule_each(sim, deliveries, deliver)

    def plain(delay):
        eid = next(ids)
        sim.schedule_in(delay, lambda: fired.append(("plain", eid, sim.now)))

    def deliver(item):
        fired.append(("item", item, sim.now))
        plan = random.Random(seed * 1_000_003 + item)
        roll = plan.random()
        if roll < 0.15:
            plain(0.0)
        elif roll < 0.25:
            fanout([plan.choice((0.0, 0.0, 0.1)) for _ in range(plan.randrange(1, 4))])

    for _ in range(120):
        op = rng.random()
        if op < 0.45:
            fanout([rng.choice(_FAN_DELAYS) for _ in range(rng.randrange(1, 7))])
        elif op < 0.7:
            plain(rng.choice(_FAN_DELAYS))
        else:
            until = rng.choice((None, sim.now, sim.now + rng.choice(_FAN_DELAYS)))
            sim.run(until=until)
            trace.append((sim.now, sim.pending))
    sim.run()
    trace.append((sim.now, sim.pending))
    return fired, trace


class TestFanoutOracle:
    """:meth:`Simulator.schedule_fanout` against one event per item
    (``tests/sim/per_receiver.py``): same firings in the same order at
    the same times, same clock; ``pending`` agrees whenever the queue
    has drained up to the clock."""

    def test_random_fanouts_match_per_item_events(self):
        merged = 0
        for seed in range(24):
            ours = _drive_fanouts(seed, grouped=True)
            oracle = _drive_fanouts(seed, grouped=False)
            assert ours[0] == oracle[0], seed
            assert [now for now, _ in ours[1]] == [now for now, _ in oracle[1]]
            assert ours[1][-1] == oracle[1][-1] == (ours[1][-1][0], 0)
            times = [entry[2] for entry in ours[0] if entry[0] == "item"]
            merged += len(times) - len(set(times))
        assert merged > 0

    def test_equal_arrivals_from_different_delays_share_one_event(self):
        sim = Simulator(start=1.0)
        log = []
        low, high = 0.1, math.nextafter(0.1, 1.0)
        assert low != high and 1.0 + low == 1.0 + high
        deliveries = [(1.0 + low, "a"), (1.0 + high, "b"), (1.5, "c"), (1.0 + low, "d")]
        sim.schedule_fanout(deliveries, log.append)
        assert sim.pending == 2
        assert sim.run() == 2
        assert log == ["a", "b", "d", "c"]
        assert sim.processed == 2

    def test_group_counts_once_against_max_events(self):
        sim = Simulator()
        log = []
        sim.schedule_fanout([(1.0, 1), (1.0, 2), (2.0, 3)], log.append)
        assert sim.run(max_events=1) == 1
        assert log == [1, 2]

    def test_past_arrival_schedules_nothing(self):
        sim = Simulator(start=2.0)
        with pytest.raises(SchedulingError):
            sim.schedule_fanout([(3.0, "a"), (1.0, "b")], lambda item: None)
        assert sim.pending == 0
