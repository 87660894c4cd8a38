"""Fault-spec parsing and schedule bookkeeping."""

from __future__ import annotations

import pytest

from repro.cluster.faults import (
    FAULT_ACTIONS,
    FaultEvent,
    FaultSchedule,
    parse_fault,
)
from repro.errors import ConfigurationError


def test_parse_loss_spec():
    event = parse_fault("120:loss=0.4")
    assert event.at == 120.0
    assert event.action == "loss"
    assert event.value == 0.4


def test_parse_worker_spec():
    event = parse_fault("300:kill-worker=1")
    assert event.action == "kill-worker"
    assert event.worker == 1


@pytest.mark.parametrize(
    "spec",
    [
        "loss=0.4",  # no time
        "120:loss",  # no value
        "abc:loss=0.4",  # non-numeric time
        "120:loss=high",  # non-numeric value
        "120:reboot=1",  # unknown action
        "-5:loss=0.4",  # negative time
        "120:loss=1.0",  # loss out of range
        "120:kill-worker=1.5",  # fractional worker index
        "120:kill-worker=-1",  # negative worker index
    ],
)
def test_bad_specs_raise_configuration_error(spec):
    with pytest.raises(ConfigurationError):
        parse_fault(spec)


def test_every_documented_action_parses():
    specs = {
        "loss": "1:loss=0.2",
        "kill-worker": "1:kill-worker=0",
        "partition-worker": "1:partition-worker=0",
        "heal-worker": "1:heal-worker=0",
        "restart-worker": "1:restart-worker=0",
    }
    assert set(specs) == set(FAULT_ACTIONS)
    for action, spec in specs.items():
        assert parse_fault(spec).action == action


def test_schedule_fires_in_time_order():
    schedule = FaultSchedule.from_specs(
        ["30:kill-worker=1", "10:loss=0.2", "20:partition-worker=0"]
    )
    assert len(schedule) == 3
    assert [event.at for event in schedule.pending] == [10.0, 20.0, 30.0]
    assert [event.action for event in schedule.due(25.0)] == [
        "loss",
        "partition-worker",
    ]
    assert len(schedule) == 1
    assert schedule.due(25.0) == []  # already popped
    assert [event.action for event in schedule.due(30.0)] == ["kill-worker"]
    assert len(schedule) == 0


def test_fault_event_is_frozen():
    event = FaultEvent(at=1.0, action="loss", value=0.1)
    with pytest.raises(AttributeError):
        event.value = 0.2  # type: ignore[misc]


def test_ready_holds_back_a_due_event_and_everything_after_it():
    schedule = FaultSchedule.from_specs(
        ["1:kill-worker=1", "2:restart-worker=1", "3:loss=0.2"]
    )
    waiting = {"kill-worker"}

    def ready(event):
        return event.action not in waiting

    assert schedule.due(10.0, ready) == []
    assert len(schedule) == 3
    waiting.clear()
    assert [event.action for event in schedule.due(2.5, ready)] == [
        "kill-worker",
        "restart-worker",
    ]
    assert [event.action for event in schedule.due(3.0, ready)] == ["loss"]


class _RunningProcess:
    """A stand-in for a live worker process: ``poll()`` says running."""

    def poll(self):
        return None


def test_kill_waits_until_the_victim_holds_a_lease():
    from repro.cluster import ClusterConfig
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.scenarios import get_scenario

    kill = parse_fault("1.5:kill-worker=1")
    coordinator = ClusterCoordinator(
        ClusterConfig(
            scenario=get_scenario("crowdsensing-baseline-t0").config,
            faults=(kill,),
        )
    )
    # No process and no connection: nothing to wait for.
    assert coordinator._fault_ready(kill)
    # A worker that is still starting holds no lease yet: hold the kill.
    coordinator._processes[1] = _RunningProcess()
    assert not coordinator._fault_ready(kill)
    coordinator._fire_faults(10.0)
    assert coordinator._schedule.pending == (kill,)
    # Another worker's lease does not count; the victim's does.
    coordinator._leases.grant("task-a", 0, 1.0, now=0.0)
    assert not coordinator._fault_ready(kill)
    coordinator._leases.grant("task-b", 1, 1.0, now=0.0)
    assert coordinator._fault_ready(kill)
    # Every other action fires on time.
    assert coordinator._fault_ready(parse_fault("1:loss=0.2"))
