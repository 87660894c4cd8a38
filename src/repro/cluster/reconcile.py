"""Reconciling cluster soaks against the fleet-engine prediction.

Every task's result is checked against a vectorized re-run of the
*scenario the worker echoed back* — the same seeds, the same receivers,
the same (possibly fault-rewritten) loss model. Because loopback soaks
mirror :func:`~repro.sim.scenario.run_scenario` node-for-node and the
dual-engine contract makes the vectorized engine mirror the DES, the
default tolerance is **zero**: any drift means a real bug (a worker
ran the wrong scenario, a message was corrupted, the parity anchor
broke), not noise. Scenarios the fleet engine cannot vectorize fall
back to a DES prediction transparently (same summaries), reported via
``engine_used``.

Transport-only artifacts (latencies, datagram counters, wall time)
have no in-memory equivalent and are *not* reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import List, Sequence, Tuple

from repro.net.harness import SoakResult, predicted_soak
from repro.sim.metrics import NodeSummary
from repro.sim.scenario import ScenarioConfig

__all__ = [
    "NODE_FIELDS",
    "Reconciliation",
    "TaskReconciliation",
    "reconcile_soaks",
    "reconcile_task",
]

#: Per-node outcome tallies compared between the soak and the
#: prediction: every NodeSummary field but the receiver's name.
NODE_FIELDS: Tuple[str, ...] = tuple(
    spec.name for spec in fields(NodeSummary) if spec.name != "name"
)


@dataclass(frozen=True)
class TaskReconciliation:
    """One task's verdict: the soak vs the engine prediction."""

    task_id: str
    engine_used: str
    mismatches: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        """Whether every compared tally agreed within tolerance."""
        return not self.mismatches


@dataclass(frozen=True)
class Reconciliation:
    """The whole run's verdict, one entry per completed task."""

    tolerance: int
    tasks: Tuple[TaskReconciliation, ...]

    @property
    def ok(self) -> bool:
        """Whether every task reconciled."""
        return all(task.ok for task in self.tasks)

    @property
    def checked(self) -> int:
        """How many tasks were compared."""
        return len(self.tasks)

    @property
    def mismatches(self) -> Tuple[str, ...]:
        """All mismatch descriptions across tasks, task-order."""
        return tuple(
            mismatch for task in self.tasks for mismatch in task.mismatches
        )


def reconcile_task(
    task_id: str,
    scenario: ScenarioConfig,
    soak: SoakResult,
    tolerance: int = 0,
) -> TaskReconciliation:
    """Compare one task's soak against its fleet-engine prediction."""
    from repro.sim import fleet

    vector_scenario = replace(scenario, engine="vectorized")
    engine_used = (
        "vectorized" if fleet.supports(vector_scenario) else "des-fallback"
    )
    predicted = predicted_soak(vector_scenario)
    mismatches: List[str] = []
    sent_authentic = soak.fleet.sent_authentic
    if sent_authentic != predicted.fleet.sent_authentic:
        mismatches.append(
            f"{task_id}: sent_authentic {sent_authentic} !="
            f" predicted {predicted.fleet.sent_authentic}"
        )
    actual_nodes = soak.fleet.nodes
    predicted_nodes = predicted.fleet.nodes
    if len(actual_nodes) != len(predicted_nodes):
        mismatches.append(
            f"{task_id}: {len(actual_nodes)} nodes !="
            f" predicted {len(predicted_nodes)}"
        )
    else:
        for actual, expected in zip(actual_nodes, predicted_nodes):
            for field_name in NODE_FIELDS:
                got = getattr(actual, field_name)
                want = getattr(expected, field_name)
                if abs(got - want) > tolerance:
                    mismatches.append(
                        f"{task_id}: node {actual.name} {field_name}"
                        f" {got} != predicted {want}"
                        f" (tolerance {tolerance})"
                    )
    return TaskReconciliation(
        task_id=task_id,
        engine_used=engine_used,
        mismatches=tuple(mismatches),
    )


def reconcile_soaks(
    items: Sequence[Tuple[str, ScenarioConfig, SoakResult]],
    tolerance: int = 0,
) -> Reconciliation:
    """Reconcile every ``(task_id, scenario, soak)`` triple."""
    return Reconciliation(
        tolerance=tolerance,
        tasks=tuple(
            reconcile_task(task_id, scenario, soak, tolerance=tolerance)
            for task_id, scenario, soak in items
        ),
    )
