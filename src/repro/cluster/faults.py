"""Declarative fault schedules for long soaks.

A schedule is a list of timestamped events parsed from compact specs::

    120:loss=0.4            at t=120s, dispatch new tasks at 40% loss
    300:partition-worker=2   at t=300s, stop hearing from worker 2
    310:kill-worker=1        from t=310s, SIGKILL local worker 1 once it
                             holds a lease
    420:heal-worker=2        at t=420s, let worker 2 rejoin
    430:restart-worker=1     at t=430s, respawn killed local worker 1

Times are seconds relative to coordinator start. ``loss`` rewrites the
*scenario* of tasks dispatched after the event (folded through the
soak's own :class:`~repro.net.proxy.FaultInjectionProxy` channel
model), so the affected tasks stay exactly reconcilable against the
fleet-engine prediction of the same rewritten scenario — the event
changes what is measured, never the measurement's integrity. Worker
events act on the process/lease layer instead: a killed worker stops
heartbeating, its leases expire, and the orphaned shards re-lease to
the survivors. The coordinator holds a kill back past its time until
the victim holds a lease: a kill that lands before the worker has
connected orphans no shard, so it would test nothing. Because events
fire on wall time, a schedule deliberately trades the equal-seeds
determinism of a fault-free run for realism — each task still records
the exact scenario it ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["FAULT_ACTIONS", "FaultEvent", "FaultSchedule", "parse_fault"]

#: Actions a schedule may trigger, and what their value means.
FAULT_ACTIONS: Tuple[str, ...] = (
    "loss",  # value: loss probability in [0, 1) for later-dispatched tasks
    "kill-worker",  # value: local worker index to SIGKILL
    "partition-worker",  # value: worker index the coordinator stops hearing
    "heal-worker",  # value: worker index to un-partition
    "restart-worker",  # value: local worker index to respawn after a kill
)

_WORKER_ACTIONS = frozenset(
    {"kill-worker", "partition-worker", "heal-worker", "restart-worker"}
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at second ``at``, do ``action`` = ``value``."""

    at: float
    action: str
    value: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(
                f"fault time must be >= 0 seconds, got {self.at}"
            )
        if self.action not in FAULT_ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; pick one of"
                f" {FAULT_ACTIONS}"
            )
        if self.action == "loss" and not 0.0 <= self.value < 1.0:
            raise ConfigurationError(
                f"loss must be in [0, 1), got {self.value}"
            )
        if self.action in _WORKER_ACTIONS:
            if self.value < 0 or self.value != int(self.value):
                raise ConfigurationError(
                    f"{self.action} takes a worker index >= 0,"
                    f" got {self.value}"
                )

    @property
    def worker(self) -> int:
        """The worker index, for the worker-targeted actions."""
        return int(self.value)


def parse_fault(spec: str) -> FaultEvent:
    """Parse one ``"<seconds>:<action>=<value>"`` spec."""
    head, sep, tail = spec.partition(":")
    if not sep:
        raise ConfigurationError(
            f"fault spec {spec!r} is missing the ':' between time and"
            " action; expected e.g. '120:loss=0.4'"
        )
    action, sep, raw_value = tail.partition("=")
    if not sep:
        raise ConfigurationError(
            f"fault spec {spec!r} is missing '=<value>'; expected e.g."
            " '300:kill-worker=1'"
        )
    try:
        at = float(head)
        value = float(raw_value)
    except ValueError:
        raise ConfigurationError(
            f"fault spec {spec!r} has a non-numeric time or value"
        ) from None
    return FaultEvent(at=at, action=action.strip(), value=value)


class FaultSchedule:
    """An ordered queue of fault events, popped as soak time passes."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._events: List[FaultEvent] = sorted(events, key=lambda e: e.at)

    @classmethod
    def from_specs(cls, specs: Sequence[str]) -> "FaultSchedule":
        """Build a schedule from ``"<t>:<action>=<value>"`` specs."""
        return cls([parse_fault(spec) for spec in specs])

    @property
    def pending(self) -> Tuple[FaultEvent, ...]:
        """Events that have not fired yet, soonest first."""
        return tuple(self._events)

    def due(
        self,
        elapsed: float,
        ready: Optional[Callable[[FaultEvent], bool]] = None,
    ) -> List[FaultEvent]:
        """Pop and return every event whose time has come.

        ``ready`` may hold an event back past its time: the first due
        event it rejects stays queued, and so does every event after
        it, so events still fire in schedule order.
        """
        fired: List[FaultEvent] = []
        while self._events and self._events[0].at <= elapsed:
            if ready is not None and not ready(self._events[0]):
                break
            fired.append(self._events.pop(0))
        return fired

    def __len__(self) -> int:
        return len(self._events)
