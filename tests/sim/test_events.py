"""Unit tests for the discrete-event simulator core."""

from __future__ import annotations

import math
import random

import pytest

from repro.errors import ConfigurationError, SchedulingError
from repro.sim.events import Simulator
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
