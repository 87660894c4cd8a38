"""Defense-cost curves — the Fig. 7 / Fig. 8 analytics (paper §VI-B-3/4).

For each attack level ``p`` the game-guided defense runs Algorithm 3 to
pick ``m`` and settles at the corresponding ESS; the naive defense arms
every node with ``M`` buffers regardless. Fig. 7 plots the chosen ``m``
against ``p``; Fig. 8 plots the two cost curves

.. math::

    E = k_2 m X^2 + [1 - (1-p^m) X] R_a Y, \\qquad
    N = k_2 M + p^M R_a Y'.

The paper's published Algorithm 3 uses a running-min update (see
:mod:`repro.game.optimizer`); its behaviour — including the jump of the
chosen ``m`` to ``M`` for ``p > 0.94`` — is reproduced by
``selection="paper"``, while ``selection="argmin"`` gives the corrected
policy. Both beat the naive defense everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import List, Optional, Sequence, Tuple

from repro.engine import Executor, ResultCache, run_tasks
from repro.errors import ConfigurationError
from repro.game.ess import EssType
from repro.game.optimizer import naive_defense_cost, optimal_rows
from repro.game.parameters import GameParameters

__all__ = ["CostPoint", "CostCurves", "cost_curves", "crossover_p"]


@dataclass(frozen=True)
class CostPoint:
    """One attack level's outcome."""

    p: float
    optimal_m: int
    ess_type: Optional[EssType]
    x: float
    y: float
    game_cost: float
    naive_cost: float

    @property
    def saving(self) -> float:
        """Absolute cost saved by the game-guided defense (``N - E``)."""
        return self.naive_cost - self.game_cost

    @property
    def saving_ratio(self) -> float:
        """Relative saving (``1 - E/N``)."""
        if self.naive_cost == 0:
            return 0.0
        return 1.0 - self.game_cost / self.naive_cost


@dataclass(frozen=True)
class CostCurves:
    """A full sweep over attack levels."""

    points: tuple
    selection: str

    def __iter__(self):
        return iter(self.points)

    @property
    def attack_levels(self) -> List[float]:
        """The swept ``p`` grid."""
        return [point.p for point in self.points]

    @property
    def optimal_ms(self) -> List[int]:
        """Fig. 7's series: chosen ``m`` per attack level."""
        return [point.optimal_m for point in self.points]

    @property
    def game_costs(self) -> List[float]:
        """Fig. 8's ``E`` series."""
        return [point.game_cost for point in self.points]

    @property
    def naive_costs(self) -> List[float]:
        """Fig. 8's ``N`` series."""
        return [point.naive_cost for point in self.points]

    def always_cheaper(self) -> bool:
        """Whether ``E <= N`` over the whole sweep (the Fig. 8 claim)."""
        return all(point.game_cost <= point.naive_cost + 1e-9 for point in self.points)


#: One attack level's engine task: ``(base, p, selection, m_max)``.
CostTask = Tuple[GameParameters, float, str, Optional[int]]


def _cost_points(tasks: Tuple[CostTask, ...]) -> List[CostPoint]:
    """Engine batch worker: a run of attack levels' games, solved as
    :func:`~repro.game.optimizer.optimal_rows` planes (one per run of
    tasks sharing ``base``, ``selection`` and ``m_max``), both
    defenses priced."""
    points: List[CostPoint] = []
    for (base, selection, m_max), group in groupby(
        tasks, key=lambda task: (task[0], task[2], task[3])
    ):
        levels = [task[1] for task in group]
        rows = optimal_rows(base, levels, selection=selection, m_max=m_max)
        points.extend(
            CostPoint(
                p=p,
                optimal_m=row.m,
                ess_type=row.ess_type,
                x=row.x,
                y=row.y,
                game_cost=row.cost,
                naive_cost=naive_defense_cost(base.with_p(p)),
            )
            for p, row in zip(levels, rows)
        )
    return points


def _cost_point_worker(task: CostTask) -> CostPoint:
    """Engine task: solve one attack level's game and price both defenses."""
    return _cost_points((task,))[0]


def cost_curves(
    base: GameParameters,
    attack_levels: Sequence[float],
    selection: str = "paper",
    m_max: Optional[int] = None,
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
) -> CostCurves:
    """Sweep attack levels and evaluate both defenses.

    Each attack level is one engine task (a full Algorithm 3 solve) and
    one cache entry, so the Fig. 7/8 grids regenerate from ``cache`` for
    free when the grid has not changed. The levels that miss the cache
    solve together as a ``(p, m)`` plane: in one batch serially, or one
    batch per worker with ``executor=ParallelExecutor(...)``.

    Args:
        base: economic constants; ``base.p``/``base.m`` are overridden.
        attack_levels: the ``p`` grid (open interval (0, 1) recommended
            — at exactly 0 or 1 the game degenerates).
        selection: Algorithm 3 mode, ``"paper"`` or ``"argmin"``.
        m_max: sweep cap (defaults to ``base.max_buffers``).
        executor: where the attack levels solve (default: serial).
        cache: reuse attack levels that already solved.
    """
    if not attack_levels:
        raise ConfigurationError("attack_levels must be non-empty")
    points = run_tasks(
        _cost_point_worker,
        tuple((base, p, selection, m_max) for p in attack_levels),
        executor=executor,
        cache=cache,
        label=f"cost_curves[{selection}]",
        task_labels=tuple(f"p={p}" for p in attack_levels),
        batch_fn=_cost_points,
    )
    return CostCurves(points=tuple(points), selection=selection)


def crossover_p(curves: CostCurves, m_cap_fraction: float = 0.9) -> Optional[float]:
    """First attack level where the chosen ``m`` saturates near the cap.

    The paper reports this at ``p ≈ 0.94`` (m pinned to 50). Returns
    ``None`` when the sweep never saturates.
    """
    if not curves.points:
        return None
    cap = max(point.optimal_m for point in curves.points)
    threshold = m_cap_fraction * cap
    for point in curves.points:
        if point.optimal_m >= threshold:
            return point.p
    return None
