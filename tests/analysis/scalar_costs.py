"""The Fig. 7/8 engine worker as it was before the attack levels of a
run were solved together: one full :class:`~repro.game.optimizer.BufferOptimizer`
sweep per attack level, with Algorithm 3's two selection rules as the
published Python loops.

Kept as the oracle ``tests/analysis/test_costs.py`` pins
:func:`repro.analysis.costs.cost_curves` to: equal points, field by
field, in value and in type.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.analysis.costs import CostPoint
from repro.game.optimizer import BufferOptimizer, naive_defense_cost
from repro.game.parameters import GameParameters


def _select(rows, selection: str) -> int:
    """The selected ``m``: the first minimum, or the paper's last
    ``m`` whose cost beat its predecessor."""
    if selection == "argmin":
        return min(rows, key=lambda row: row.cost).m
    # Algorithm 3 lines 6-8, literally.
    optimal_m = 0
    previous = float("inf")
    for row in rows:
        if row.cost < previous:
            optimal_m = row.m
        previous = row.cost
    if optimal_m == 0:
        optimal_m = rows[0].m
    return optimal_m


def cost_point(task: Tuple[GameParameters, float, str, Optional[int]]) -> CostPoint:
    """The old ``_cost_point_worker``: one attack level's game."""
    base, p, selection, m_max = task
    params = base.with_p(p).with_m(1)
    rows = BufferOptimizer(params).optimize(m_max=m_max, selection=selection).rows
    optimal_m = _select(rows, selection)
    row = next(row for row in rows if row.m == optimal_m)
    return CostPoint(
        p=p,
        optimal_m=optimal_m,
        ess_type=row.ess_type,
        x=row.x,
        y=row.y,
        game_cost=row.cost,
        naive_cost=naive_defense_cost(params),
    )
