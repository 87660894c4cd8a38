"""Buffer-count optimisation (paper §V-F, Algorithm 3) and cost models.

The defender population's average cost at an equilibrium ``(X, Y)`` is

.. math::

    E(m) = k_2 m X^2 + [1 - (1 - p^m) X] \\, R_a Y

(§V-F: ``E = -E(d)`` evaluated at the ESS). Algorithm 3 sweeps ``m``
and returns the cheapest choice. The published pseudocode updates
``moptm`` whenever ``Em < Em-1`` — a *last descent step*, not an
argmin; :class:`BufferOptimizer` implements a true argmin by default
and keeps the paper's literal loop behind ``selection="paper"`` so the
difference can be measured.

The naive baseline (§VI-B-4) arms every node with the maximum buffer
count ``M``:

.. math::

    N = k_2 M + p^M R_a Y'

with ``(1, Y')`` the ESS of the ``m = M`` game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.game.ess import (
    CANDIDATES,
    EssType,
    FixedPoint,
    _nearest_point,
    realized_ess,
    rest_points,
    stable_points,  # noqa: F401  (perfbench's layer tracer patches it here)
)
from repro.game.parameters import GameParameters

__all__ = [
    "defense_cost",
    "naive_defense_cost",
    "EquilibriumSolver",
    "OptimizationRow",
    "OptimizationResult",
    "BufferOptimizer",
]


#: One equilibrium: shares ``(X, Y)`` and the paper's label for them.
Equilibrium = Tuple[float, float, Optional[EssType]]


def defense_cost(params: GameParameters, x: float, y: float) -> float:
    """``E = k2·m·X² + [1 - (1 - p^m)·X]·Ra·Y`` at shares ``(x, y)``."""
    return _defense_cost(params, params.m, x, y)


def _defense_cost(base: GameParameters, m: int, x: float, y: float) -> float:
    """:func:`defense_cost` of ``base.with_m(m)``, without building it."""
    q = 1.0 - base.p ** m
    return base.k2 * m * x * x + (1.0 - q * x) * base.ra * y


def naive_defense_cost(params: GameParameters) -> float:
    """§VI-B-4's ``N``: every node defends with ``m = M`` buffers.

    ``N = k2·M + p^M·Ra·Y'`` where ``Y'`` is the attacker share at the
    ``(1, Y')`` ESS of the maxed-out game (clamped to 1 when the
    formula exceeds the simplex, i.e. the ESS is ``(1, 1)``).
    """
    big_m = params.max_buffers
    maxed = params.with_m(big_m)
    p_big_m = maxed.attack_success_probability
    if params.xa > 0:
        y_prime = min(p_big_m * params.ra / (params.k1 * params.xa), 1.0)
    else:
        y_prime = 0.0
    return params.k2 * big_m + p_big_m * params.ra * y_prime


class EquilibriumSolver:
    """Finds the equilibrium the population actually reaches.

    The analytic route (classify every §V-E candidate, take the unique
    stable one) is exact and fast; when zero or several candidates are
    stable the solver falls back to integrating the paper's dynamics
    from ``(0.5, 0.5)`` and reports where they settle.

    :meth:`solve_sweep` is the entry point :class:`BufferOptimizer`
    calls, one sweep of ``m`` at a time; a subclass that changes how
    equilibria are found overrides it (and :meth:`_solve_by_dynamics`
    for the fallback alone). :meth:`solve` is its one-cell view.
    """

    def __init__(
        self,
        x0: float = 0.5,
        y0: float = 0.5,
        dt: float = 0.01,
        max_steps: int = 100_000,
    ) -> None:
        self._x0 = x0
        self._y0 = y0
        self._dt = dt
        self._max_steps = max_steps

    def solve(self, params: GameParameters) -> Equilibrium:
        """Equilibrium shares and the paper's label for them."""
        return self.solve_sweep(params, (params.m,))[0]

    def solve_sweep(
        self, base: GameParameters, m_values: Sequence[int]
    ) -> List[Equilibrium]:
        """The equilibrium of ``base.with_m(m)`` for each ``m`` in
        ``m_values``, positionally, from one :func:`~repro.game.ess.rest_points`
        pass: the unique stable candidate where there is one. Only cells
        without exactly one stable candidate build their parameters and
        go to :meth:`_solve_by_dynamics`, one at a time."""
        points = rest_points(base, m_values)
        stable = points.stable
        counts = stable.sum(axis=0).tolist()
        rows = stable.argmax(axis=0)
        cells = np.arange(rows.size)
        xs = points.x[rows, cells].tolist()
        ys = points.y[rows, cells].tolist()
        out: List[Equilibrium] = []
        for index, (m, count, row) in enumerate(zip(m_values, counts, rows.tolist())):
            if count == 1:
                out.append((xs[index], ys[index], CANDIDATES[row]))
            else:
                out.append(self._solve_by_dynamics(
                    base.with_m(m), points.stable_points(index)
                ))
        return out

    def _solve_by_dynamics(
        self, params: GameParameters, stable: List[FixedPoint]
    ) -> Equilibrium:
        matched, trajectory = realized_ess(
            params,
            x0=self._x0,
            y0=self._y0,
            dt=self._dt,
            max_steps=self._max_steps,
        )
        if matched is not None:
            return (matched.x, matched.y, matched.ess_type)
        fx, fy = trajectory.final
        # No candidate nearby: settle for the trajectory endpoint, label
        # with the nearest stable candidate if any exists.
        nearest = _nearest_point(stable, fx, fy, math.inf)
        return (fx, fy, nearest.ess_type if nearest is not None else None)


@dataclass(frozen=True)
class OptimizationRow:
    """One row of the ``m`` sweep."""

    m: int
    x: float
    y: float
    ess_type: Optional[EssType]
    cost: float


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a buffer-count optimisation.

    Attributes:
        optimal_m: the selected buffer count.
        optimal_cost: its expected defender cost.
        rows: the full sweep, ascending in ``m``.
        selection: ``"argmin"`` or ``"paper"``.
    """

    optimal_m: int
    optimal_cost: float
    rows: Tuple[OptimizationRow, ...]
    selection: str

    def row_for(self, m: int) -> OptimizationRow:
        """The sweep row for a specific ``m``."""
        for row in self.rows:
            if row.m == m:
                return row
        raise ConfigurationError(f"m={m} was not part of the sweep")


class BufferOptimizer:
    """Algorithm 3: pick the buffer count minimising expected cost.

    Args:
        base: game parameters; ``base.m`` is ignored (swept).
        solver: equilibrium solver (defaults to the paper's setting).
    """

    def __init__(
        self, base: GameParameters, solver: Optional[EquilibriumSolver] = None
    ) -> None:
        self._base = base
        self._solver = solver or EquilibriumSolver()
        self._cache: Dict[int, OptimizationRow] = {}

    @property
    def base(self) -> GameParameters:
        """The swept game's fixed parameters."""
        return self._base

    def evaluate(self, m: int) -> OptimizationRow:
        """Equilibrium and defender cost for a specific ``m`` (cached)."""
        return self._rows((m,))[0]

    def _rows(self, m_values: Sequence[int]) -> List[OptimizationRow]:
        """Cached rows for ``m_values``, solving every uncached ``m`` in
        one :meth:`EquilibriumSolver.solve_sweep` call."""
        missing = [m for m in m_values if m not in self._cache]
        if missing:
            base = self._base
            solved = self._solver.solve_sweep(base, missing)
            for m, (x, y, label) in zip(missing, solved):
                self._cache[m] = OptimizationRow(
                    m=m, x=x, y=y, ess_type=label,
                    cost=_defense_cost(base, m, x, y),
                )
        return [self._cache[m] for m in m_values]

    def optimize(
        self,
        m_min: int = 1,
        m_max: Optional[int] = None,
        selection: str = "argmin",
    ) -> OptimizationResult:
        """Sweep ``m`` and select the optimum.

        Args:
            m_min / m_max: sweep bounds (default 1..``max_buffers``).
            selection: ``"argmin"`` (correct) or ``"paper"`` (the
                published running-min loop, kept for fidelity: it sets
                ``moptm`` to the *last* ``m`` whose cost improved on its
                predecessor).
        """
        if m_max is None:
            m_max = self._base.max_buffers
        if m_min < 1 or m_max < m_min:
            raise ConfigurationError(f"bad sweep bounds [{m_min}, {m_max}]")
        if selection not in ("argmin", "paper"):
            raise ConfigurationError(f"unknown selection {selection!r}")
        rows = self._rows(range(m_min, m_max + 1))
        if selection == "argmin":
            best = min(rows, key=lambda row: row.cost)
            optimal_m = best.m
        else:
            # Algorithm 3 lines 6-8, literally.
            optimal_m = 0
            previous = float("inf")
            for row in rows:
                if row.cost < previous:
                    optimal_m = row.m
                previous = row.cost
            if optimal_m == 0:
                optimal_m = rows[0].m
        best_row = next(row for row in rows if row.m == optimal_m)
        return OptimizationResult(
            optimal_m=optimal_m,
            optimal_cost=best_row.cost,
            rows=tuple(rows),
            selection=selection,
        )
