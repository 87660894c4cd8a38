"""Unit tests for the Fig. 7 / Fig. 8 cost-curve analytics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import costs
from repro.analysis.costs import cost_curves, crossover_p
from repro.analysis.sweep import open_interval_grid
from repro.engine import ParallelExecutor, ResultCache
from repro.errors import ConfigurationError, TaskError
from repro.game.optimizer import EquilibriumSolver
from repro.game.parameters import paper_parameters
from tests.analysis import scalar_costs

GRID = [0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.97, 0.99]


@pytest.fixture(scope="module")
def paper_curves():
    return cost_curves(paper_parameters(p=0.5, m=1), GRID, selection="paper")


@pytest.fixture(scope="module")
def argmin_curves():
    return cost_curves(paper_parameters(p=0.5, m=1), GRID, selection="argmin")


class TestCostCurves:
    def test_grid_preserved(self, paper_curves):
        assert paper_curves.attack_levels == GRID

    def test_game_always_cheaper_than_naive(self, paper_curves, argmin_curves):
        """Fig. 8: E <= N over the whole sweep."""
        assert paper_curves.always_cheaper()
        assert argmin_curves.always_cheaper()

    def test_saving_reopens_at_extreme_attack(self, paper_curves):
        """§VI-B-4: "especially when p > 0.94 our defense mechanism
        greatly reduces the average overall cost" — the E-vs-N gap
        shrinks toward p ≈ 0.95 and then re-opens sharply."""
        by_p = {point.p: point.saving for point in paper_curves}
        assert by_p[0.99] > by_p[0.95] + 30
        assert all(point.saving >= 0 for point in paper_curves)

    def test_optimal_m_grows_with_p_below_saturation(self, argmin_curves):
        ms = argmin_curves.optimal_ms
        assert ms[0] < ms[4]  # 0.2 -> 0.9

    def test_paper_mode_saturates_near_cap(self, paper_curves):
        """Fig. 7: m pinned near M = 50 for p > 0.94."""
        by_p = dict(zip(paper_curves.attack_levels, paper_curves.optimal_ms))
        assert by_p[0.97] > 35
        assert by_p[0.99] > 35
        assert by_p[0.8] < 20

    def test_crossover_near_094(self, paper_curves):
        crossover = crossover_p(paper_curves)
        assert crossover is not None
        assert 0.9 <= crossover <= 0.99

    def test_naive_cost_is_selection_independent(self, paper_curves, argmin_curves):
        assert paper_curves.naive_costs == argmin_curves.naive_costs

    def test_argmin_never_worse_than_paper_mode(self, paper_curves, argmin_curves):
        for a, p in zip(argmin_curves, paper_curves):
            assert a.game_cost <= p.game_cost + 1e-9

    def test_point_accessors(self, paper_curves):
        point = paper_curves.points[0]
        assert point.saving == pytest.approx(point.naive_cost - point.game_cost)
        assert 0.0 <= point.saving_ratio <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            cost_curves(paper_parameters(p=0.5, m=1), [])


#: The benchmark's 99-level NumPy-float grid and a Python-float twin.
NUMPY_GRID = open_interval_grid(0.0, 1.0, 99, margin=0.005)
FLOAT_GRID = [float(p) for p in open_interval_grid(0.0, 1.0, 99, margin=0.0047)]
#: The Fig. 7 bench's grid: its high-p levels need the dynamics fallback.
FIG7_GRID = open_interval_grid(0.0, 1.0, 25, margin=0.02)
BASE = paper_parameters(p=0.5, m=1)


def _bits(point):
    """Every field of a cost point with its type, floats as exact bits."""
    return tuple(
        (type(value), value.hex() if isinstance(value, float) else repr(value))
        for value in (point.p, point.optimal_m, point.ess_type, point.x,
                      point.y, point.game_cost, point.naive_cost)
    )


def _oracle(grid, selection, m_max=None):
    return [_bits(scalar_costs.cost_point((BASE, p, selection, m_max))) for p in grid]


class TestPlaneOracle:
    """The ``(p, m)`` plane against the per-level worker it replaced
    (``tests/analysis/scalar_costs.py``): equal values and types."""

    @pytest.mark.parametrize("selection", ["paper", "argmin"])
    @pytest.mark.parametrize("m_max", [None, 17])
    @pytest.mark.parametrize("grid", [NUMPY_GRID, FLOAT_GRID], ids=["numpy", "float"])
    def test_grids(self, grid, selection, m_max):
        curves = cost_curves(BASE, grid, selection=selection, m_max=m_max)
        assert [_bits(point) for point in curves] == _oracle(grid, selection, m_max)
        assert repr(curves.points) == repr(tuple(
            scalar_costs.cost_point((BASE, p, selection, m_max)) for p in grid
        ))

    def test_numpy_float_p_keeps_numpy_costs(self):
        point = cost_curves(BASE, NUMPY_GRID[:1]).points[0]
        assert type(point.p) is np.float64
        assert type(point.game_cost) is np.float64
        assert type(point.x) is float and type(point.y) is float
        point = cost_curves(BASE, FLOAT_GRID[:1]).points[0]
        assert type(point.game_cost) is float

    def test_fig7_grid_with_fallback_cells(self, monkeypatch):
        fallbacks = []
        original = EquilibriumSolver._solve_by_dynamics

        def spy(self, params, stable):
            fallbacks.append((params.p, params.m))
            return original(self, params, stable)

        monkeypatch.setattr(EquilibriumSolver, "_solve_by_dynamics", spy)
        for selection in ("paper", "argmin"):
            fallbacks.clear()
            ours = [_bits(point) for point in cost_curves(BASE, FIG7_GRID, selection)]
            plane_fallbacks = list(fallbacks)
            assert ours == _oracle(FIG7_GRID, selection)
            assert plane_fallbacks and sorted(plane_fallbacks) == sorted(fallbacks[
                len(plane_fallbacks):
            ])

    def test_serial_parallel_and_cached_agree(self):
        grid = NUMPY_GRID[::7]
        serial = cost_curves(BASE, grid, "paper")
        with ParallelExecutor(jobs=2) as executor:
            parallel = cost_curves(BASE, grid, "paper", executor=executor)
        cache = ResultCache()
        cost_curves(BASE, grid[::2], "paper", cache=cache)
        cached = cost_curves(BASE, grid, "paper", cache=cache)
        assert cache.stats.hits == len(grid[::2])
        replay = cost_curves(BASE, grid, "paper", cache=cache)
        expected = [_bits(point) for point in serial]
        for curves in (parallel, cached, replay):
            assert [_bits(point) for point in curves] == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_attack_level_is_named(self, monkeypatch, jobs):
        grid = NUMPY_GRID[:12]
        bad = grid[7]
        real = costs.naive_defense_cost

        def fail_at_bad(params):
            if params.p == bad:
                raise RuntimeError("naive cost exploded")
            return real(params)

        monkeypatch.setattr(costs, "naive_defense_cost", fail_at_bad)
        with ParallelExecutor(jobs=jobs) as executor:
            with pytest.raises(TaskError) as excinfo:
                cost_curves(BASE, grid, executor=executor)
        assert excinfo.value.label == f"p={bad}"
        assert excinfo.value.index == 7

    def test_batch_worker_groups_tasks_by_game(self):
        tasks = (
            [(BASE, p, "paper", None) for p in NUMPY_GRID[:3]]
            + [(BASE, p, "argmin", 12) for p in NUMPY_GRID[3:5]]
            + [(BASE.with_m(4), p, "paper", None) for p in NUMPY_GRID[5:6]]
        )
        assert [_bits(point) for point in costs._cost_points(tuple(tasks))] == [
            _bits(scalar_costs.cost_point(task)) for task in tasks
        ]
