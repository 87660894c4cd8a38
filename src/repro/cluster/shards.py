"""Shard planning: one scenario population → a fixed task list.

The coordinator never invents work at runtime: the complete task set is
planned up front from the cluster config, so a cluster soak is a pure
function of ``(scenario, shards, rounds)`` plus whatever fault events
fire. The tasks are :func:`repro.sim.scenario.shard_scenarios`, the
shard plan ``repro loadtest`` runs too — so a one-round cluster soak
reproduces ``run_loadtest`` node-for-node (pinned in ``tests/cluster``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.sim.scenario import ScenarioConfig, shard_scenarios

__all__ = ["ShardTask", "plan_tasks"]


@dataclass(frozen=True)
class ShardTask:
    """One leased unit of work: a shard of receivers at a fixed seed.

    Attributes:
        task_id: stable identifier, ``"r<round>-s<shard>"``.
        round_index: which repetition of the shard plan this is.
        shard: shard index within the round.
        scenario: the fully-derived per-shard scenario (receivers cut
            down to the shard's slice, seed laddered).
    """

    task_id: str
    round_index: int
    shard: int
    scenario: ScenarioConfig


def plan_tasks(
    scenario: ScenarioConfig, shards: int, rounds: int = 1
) -> List[ShardTask]:
    """The complete task list for a cluster soak, round-major.

    Every round re-runs the same shard split at fresh seeds (see
    :func:`~repro.sim.scenario.shard_scenarios`), so long soaks
    accumulate independent measurements instead of replaying one.
    """
    tasks: List[ShardTask] = []
    for index, shard_scenario in enumerate(
        shard_scenarios(scenario, shards, rounds)
    ):
        round_index, shard = divmod(index, shards)
        tasks.append(
            ShardTask(
                task_id=f"r{round_index}-s{shard}",
                round_index=round_index,
                shard=shard,
                scenario=shard_scenario,
            )
        )
    return tasks
