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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.game.ess import (
    CANDIDATES,
    EssType,
    FixedPoint,
    RestPoints,
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
    "optimal_rows",
]


#: One equilibrium: shares ``(X, Y)`` and the paper's label for them.
Equilibrium = Tuple[float, float, Optional[EssType]]


def defense_cost(params: GameParameters, x: float, y: float) -> float:
    """``E = k2·m·X² + [1 - (1 - p^m)·X]·Ra·Y`` at shares ``(x, y)``."""
    return _defense_cost(params, params.p, params.m, x, y)


def _defense_cost(
    base: GameParameters, p: float, m: int, x: float, y: float
) -> float:
    """:func:`defense_cost` of ``base.with_p(p).with_m(m)``, without
    building it."""
    q = 1.0 - p ** m
    return base.k2 * m * x * x + (1.0 - q * x) * base.ra * y


def naive_defense_cost(params: GameParameters) -> float:
    """§VI-B-4's ``N``: every node defends with ``m = M`` buffers.

    ``N = k2·M + p^M·Ra·Y'`` where ``Y'`` is the attacker share at the
    ``(1, Y')`` ESS of the maxed-out game (clamped to 1 when the
    formula exceeds the simplex, i.e. the ESS is ``(1, 1)``).
    """
    big_m = params.max_buffers
    p_big_m = params.p ** big_m
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
        self,
        base: GameParameters,
        m_values: Sequence[int],
        p_values: Optional[Sequence[float]] = None,
    ) -> List[Equilibrium]:
        """The equilibrium of ``base.with_m(m)`` for each ``m`` in
        ``m_values``, positionally, from one :func:`~repro.game.ess.rest_points`
        pass: the unique stable candidate where there is one. Only cells
        without exactly one stable candidate build their parameters and
        go to :meth:`_solve_by_dynamics`, one at a time.

        With ``p_values``, cell ``i`` is the game at attack level
        ``p_values[i]`` and ``m_values[i]``: cells of the ``(p, m)``
        plane instead of one ``m`` sweep.
        """
        _, x, y, rows, fallbacks = self._solve_cells(base, m_values, p_values)
        xs = x.tolist()
        ys = y.tolist()
        return [
            fallbacks[index] if index in fallbacks
            else (xs[index], ys[index], CANDIDATES[row])
            for index, row in enumerate(rows.tolist())
        ]

    def _solve_cells(
        self,
        base: GameParameters,
        m_values: Sequence[int],
        p_values: Optional[Sequence[float]],
    ) -> Tuple[
        RestPoints, np.ndarray, np.ndarray, np.ndarray, Dict[int, Equilibrium]
    ]:
        """:meth:`solve_sweep` as arrays: ``(points, x, y, rows,
        fallbacks)``.

        ``points`` is the grid's :func:`~repro.game.ess.rest_points`.
        ``x``, ``y`` and ``rows`` (the candidate row) hold each cell's
        unique stable candidate; they are meaningless at the other
        cells, whose :meth:`_solve_by_dynamics` answers ``fallbacks``
        holds by cell index, solved in cell order.
        """
        points = rest_points(base, m_values, p_values)
        stable = points.stable
        rows = stable.argmax(axis=0)
        cells = np.arange(rows.size)
        fallbacks: Dict[int, Equilibrium] = {}
        for index in np.flatnonzero(stable.sum(axis=0) != 1).tolist():
            p = base.p if p_values is None else p_values[index]
            fallbacks[index] = self._solve_by_dynamics(
                replace(base, p=p, m=m_values[index]), points.stable_points(index)
            )
        return points, points.x[rows, cells], points.y[rows, cells], rows, fallbacks

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
                    cost=_defense_cost(base, base.p, m, x, y),
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
        m_values = _sweep(self._base, m_min, m_max, selection)
        rows = self._rows(m_values)
        costs = np.array([[row.cost for row in rows]])
        best_row = rows[int(_selected(costs, selection)[0])]
        return OptimizationResult(
            optimal_m=best_row.m,
            optimal_cost=best_row.cost,
            rows=tuple(rows),
            selection=selection,
        )


def _sweep(
    base: GameParameters, m_min: int, m_max: Optional[int], selection: str
) -> range:
    """The checked ``m`` sweep ``m_min..m_max`` (default cap
    ``base.max_buffers``) of an Algorithm 3 run."""
    if m_max is None:
        m_max = base.max_buffers
    if m_min < 1 or m_max < m_min:
        raise ConfigurationError(f"bad sweep bounds [{m_min}, {m_max}]")
    if selection not in ("argmin", "paper"):
        raise ConfigurationError(f"unknown selection {selection!r}")
    return range(m_min, m_max + 1)


def _selected(costs: np.ndarray, selection: str) -> np.ndarray:
    """The selected column of each row of a ``(sweeps, m)`` cost array.

    ``"argmin"`` takes the first minimum, as ``min(..., key=cost)``
    does (the costs are finite: every equilibrium lies in the unit
    square). ``"paper"`` is Algorithm 3 lines 6-8: the last column whose
    cost beat its predecessor's (the first column's predecessor costs
    infinity), column 0 when none did.
    """
    if selection == "argmin":
        return costs.argmin(axis=1)
    improved = np.empty(costs.shape, dtype=bool)
    improved[:, 0] = costs[:, 0] < math.inf
    improved[:, 1:] = costs[:, 1:] < costs[:, :-1]
    last = costs.shape[1] - 1 - improved[:, ::-1].argmax(axis=1)
    return np.where(improved.any(axis=1), last, 0)


#: Attack levels per :func:`optimal_rows` array pass. It bounds the
#: plane's arrays, and so peak memory; larger blocks are no faster.
_PLANE_LEVELS = 10


def optimal_rows(
    base: GameParameters,
    attack_levels: Sequence[float],
    selection: str = "argmin",
    m_max: Optional[int] = None,
) -> List[OptimizationRow]:
    """Algorithm 3 at each attack level, over the ``(p, m)`` plane.

    Row ``i`` is the selected row of ``BufferOptimizer(base.with_p(p))
    .optimize(m_max=m_max, selection=selection)`` for ``p = attack_levels[i]``,
    equal in value and type. Each block of attack levels solves as one
    ``(p, m)`` grid of :meth:`EquilibriumSolver.solve_sweep`, and its
    costs and selections are array code; only the selected rows become
    :class:`OptimizationRow` objects.
    """
    m_values = list(_sweep(base, 1, m_max, selection))
    solver = EquilibriumSolver()
    width = len(m_values)
    out: List[OptimizationRow] = []
    for start in range(0, len(attack_levels), _PLANE_LEVELS):
        levels = attack_levels[start : start + _PLANE_LEVELS]
        m_cells = m_values * len(levels)
        points, x, y, rows, fallbacks = solver._solve_cells(
            base, m_cells, [p for p in levels for _ in m_values]
        )
        for index, (fx, fy, _label) in fallbacks.items():
            x[index] = fx
            y[index] = fy
        # _defense_cost, elementwise in its operation order.
        m = np.array(m_cells, dtype=float)
        q = 1.0 - points.attack
        costs = base.k2 * m * x * x + (1.0 - q * x) * base.ra * y
        columns = _selected(costs.reshape(len(levels), width), selection)
        for level, (p, column) in enumerate(zip(levels, columns.tolist())):
            index = level * width + column
            if index in fallbacks:
                fx, fy, label = fallbacks[index]
            else:
                fx, fy = x[index].item(), y[index].item()
                label = CANDIDATES[rows[index]]
            optimal_m = m_values[column]
            out.append(OptimizationRow(
                m=optimal_m, x=fx, y=fy, ess_type=label,
                cost=_defense_cost(base, p, optimal_m, fx, fy),
            ))
    return out
