"""Unit tests for Algorithm 3 and the cost models (§V-F, §VI-B)."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.analysis.sweep import open_interval_grid
from repro.errors import ConfigurationError
from repro.game import ess, optimizer
from repro.game.ess import EssType, FixedPoint, Stability
from repro.game.optimizer import (
    BufferOptimizer,
    EquilibriumSolver,
    defense_cost,
    naive_defense_cost,
)
from repro.game.parameters import GameParameters, paper_parameters
from repro.game.replicator import Trajectory
from tests.game import scalar_ess


class TestDefenseCost:
    def test_formula(self):
        """E = k2 m X^2 + [1 - (1-p^m) X] Ra Y."""
        params = paper_parameters(p=0.8, m=10)
        q = 1 - 0.8 ** 10
        x, y = 0.7, 0.4
        expected = 4 * 10 * x * x + (1 - q * x) * 200 * y
        assert defense_cost(params, x, y) == pytest.approx(expected)

    def test_no_attack_no_defense_is_free(self):
        assert defense_cost(paper_parameters(p=0.8, m=10), 0.0, 0.0) == 0.0

    def test_cost_at_x_prime_1_equals_ra(self):
        """At the (X', 1) equilibrium the algebra collapses to E = Ra —
        the 'give up' cost plateau behind the paper's p > 0.94 regime."""
        from repro.game.ess import edge_x_prime

        params = paper_parameters(p=0.99, m=40)
        x_prime = edge_x_prime(params)
        assert defense_cost(params, x_prime, 1.0) == pytest.approx(200.0)


class TestNaiveCost:
    def test_formula(self):
        """N = k2 M + p^M Ra Y' with Y' from the maxed game."""
        params = paper_parameters(p=0.9, m=1)
        p50 = 0.9 ** 50
        y_prime = min(p50 * 200 / (20 * 0.9), 1.0)
        assert naive_defense_cost(params) == pytest.approx(4 * 50 + p50 * 200 * y_prime)

    def test_approaches_k2_m_for_weak_attack(self):
        assert naive_defense_cost(paper_parameters(p=0.3, m=1)) == pytest.approx(
            200.0, abs=1e-6
        )

    def test_grows_sharply_at_extreme_attack(self):
        mild = naive_defense_cost(paper_parameters(p=0.9, m=1))
        extreme = naive_defense_cost(paper_parameters(p=0.99, m=1))
        assert extreme > mild + 50


class TestEquilibriumSolver:
    def test_analytic_route_for_unique_stable_point(self):
        solver = EquilibriumSolver()
        x, y, label = solver.solve(paper_parameters(p=0.8, m=30))
        assert label is EssType.INTERIOR
        assert 0 < x < 1 and 0 < y < 1

    def test_solution_is_rest_point(self):
        from repro.game.replicator import ReplicatorDynamics

        params = paper_parameters(p=0.8, m=14)
        x, y, _ = EquilibriumSolver().solve(params)
        dx, dy = ReplicatorDynamics(params).derivatives(x, y)
        assert abs(dx) + abs(dy) < 1e-8

    @staticmethod
    def _stub_dynamics(monkeypatch, final):
        """Make the fallback's integration end unmatched at ``final``."""
        trajectory = Trajectory(
            xs=np.array([0.5, final[0]]),
            ys=np.array([0.5, final[1]]),
            converged=False,
            steps=1,
            dt=0.01,
            method="euler",
        )
        monkeypatch.setattr(
            optimizer, "realized_ess", lambda params, **kwargs: (None, trajectory)
        )

    def test_fallback_labels_nearest_stable_candidate(self, monkeypatch):
        eigs = (-1 + 0j, -2 + 0j)
        corner = FixedPoint(1.0, 1.0, EssType.CORNER_11, Stability.STABLE, eigs)
        edge = FixedPoint(1.0, 0.3, EssType.EDGE_1Y, Stability.STABLE, eigs)
        self._stub_dynamics(monkeypatch, (0.9, 0.35))
        x, y, label = EquilibriumSolver()._solve_by_dynamics(
            paper_parameters(p=0.8, m=14), [corner, edge]
        )
        assert (x, y) == (0.9, 0.35)
        assert label is EssType.EDGE_1Y

    def test_fallback_without_stable_candidate_is_unlabelled(self, monkeypatch):
        self._stub_dynamics(monkeypatch, (0.9, 0.35))
        _, _, label = EquilibriumSolver()._solve_by_dynamics(
            paper_parameters(p=0.8, m=14), []
        )
        assert label is None


class TestBufferOptimizer:
    def test_paper_sweep_m13_at_p08(self):
        """At p = 0.8 the cost-optimal buffer count is 13 (argmin)."""
        result = BufferOptimizer(paper_parameters(p=0.8, m=1)).optimize()
        assert result.optimal_m == 13

    def test_costs_u_shaped_at_p08(self):
        result = BufferOptimizer(paper_parameters(p=0.8, m=1)).optimize()
        costs = [row.cost for row in result.rows]
        best = costs.index(min(costs))
        assert all(costs[i] >= costs[i + 1] - 1e-9 for i in range(best))
        assert all(costs[i] <= costs[i + 1] + 1e-9 for i in range(best, len(costs) - 1))

    def test_optimal_m_increases_with_p(self):
        """Fig. 7's main trend."""
        optima = [
            BufferOptimizer(paper_parameters(p=p, m=1)).optimize().optimal_m
            for p in (0.3, 0.5, 0.8, 0.9)
        ]
        assert optima == sorted(optima)
        assert optima[0] < optima[-1]

    def test_paper_selection_saturates_at_high_p(self):
        """Fig. 7's jump to m ≈ M for p > 0.94, reproduced by the
        published running-min loop (the (X',1) cost plateau keeps
        triggering its `Em < Em-1` update)."""
        argmin = BufferOptimizer(paper_parameters(p=0.97, m=1)).optimize(
            selection="argmin"
        )
        paper = BufferOptimizer(paper_parameters(p=0.97, m=1)).optimize(
            selection="paper"
        )
        assert paper.optimal_m > 30
        assert argmin.optimal_m < 25
        # the bug costs real money:
        assert paper.optimal_cost >= argmin.optimal_cost

    def test_selections_agree_below_crossover(self):
        for p in (0.5, 0.8, 0.9):
            opt = BufferOptimizer(paper_parameters(p=p, m=1))
            assert (
                opt.optimize(selection="argmin").optimal_m
                == opt.optimize(selection="paper").optimal_m
            )

    def test_game_cost_beats_naive_everywhere(self):
        """Fig. 8's claim, E <= N, under both selection rules."""
        for p in (0.2, 0.5, 0.8, 0.9, 0.95, 0.99):
            base = paper_parameters(p=p, m=1)
            naive = naive_defense_cost(base)
            for selection in ("argmin", "paper"):
                result = BufferOptimizer(base).optimize(selection=selection)
                assert result.optimal_cost <= naive + 1e-6

    def test_rows_cover_sweep(self):
        result = BufferOptimizer(paper_parameters(p=0.8, m=1)).optimize(
            m_min=3, m_max=7
        )
        assert [row.m for row in result.rows] == [3, 4, 5, 6, 7]

    def test_row_for_lookup(self):
        result = BufferOptimizer(paper_parameters(p=0.8, m=1)).optimize()
        assert result.row_for(5).m == 5
        with pytest.raises(ConfigurationError):
            result.row_for(400)

    def test_evaluate_is_cached(self):
        optimizer = BufferOptimizer(paper_parameters(p=0.8, m=1))
        assert optimizer.evaluate(10) is optimizer.evaluate(10)

    def test_bad_arguments(self):
        optimizer = BufferOptimizer(paper_parameters(p=0.8, m=1))
        with pytest.raises(ConfigurationError):
            optimizer.optimize(m_min=0)
        with pytest.raises(ConfigurationError):
            optimizer.optimize(m_min=5, m_max=3)
        with pytest.raises(ConfigurationError):
            optimizer.optimize(selection="greedy")


def _stub_fallback(params, stable):
    """A deterministic stand-in for the dynamics fallback, so sweeps that
    need it compare without integrating."""
    label = stable[-1].ess_type if stable else None
    return (params.m / 128.0, 1.0 - params.p / 3.0, label)


class RecordingSolver(EquilibriumSolver):
    """Records every fallback call and answers with :func:`_stub_fallback`."""

    def __init__(self):
        super().__init__()
        self.fallbacks = []

    def _solve_by_dynamics(self, params, stable):
        self.fallbacks.append((params, stable))
        return _stub_fallback(params, stable)


def _row_bits(row):
    return (row.m, float(row.x).hex(), float(row.y).hex(), row.ess_type,
            float(row.cost).hex())


class TestSolveSweep:
    """The sweep against the scalar one-cell rule (tests/game/scalar_ess.py)."""

    @staticmethod
    def _sweeps():
        for p in open_interval_grid(0.0, 1.0, 99, margin=0.005):
            yield paper_parameters(p=p, m=1), list(range(1, 51))
        rng = random.Random(20)
        for index in range(2000):
            base = GameParameters(
                ra=rng.uniform(1.0, 500.0),
                k1=rng.uniform(0.5, 50.0),
                k2=rng.uniform(0.1, 20.0),
                p=rng.random() if index % 40 else float(index % 80 == 0),
                m=1,
                max_buffers=100,
            )
            m_min = rng.randint(1, 97)
            yield base, list(range(m_min, m_min + rng.randint(1, 4)))

    def test_rows_match_the_scalar_rule_bit_for_bit(self):
        fallbacks = 0
        for base, m_values in self._sweeps():
            solver = RecordingSolver()
            rows = BufferOptimizer(base, solver).optimize(
                m_min=m_values[0], m_max=m_values[-1]
            ).rows
            by_m = {row.m: row for row in rows}
            expected_fallbacks = []

            def fallback(params, stable):
                expected_fallbacks.append((params, stable))
                return _stub_fallback(params, stable)

            for m in range(m_values[0], m_values[-1] + 1):
                params = base.with_m(m)
                x, y, label = scalar_ess.solve(params, fallback)
                cost = scalar_ess.defense_cost(params, x, y)
                assert _row_bits(by_m[m]) == _row_bits(
                    optimizer.OptimizationRow(m, x, y, label, cost)
                ), params
            # Fallback cells reach it one at a time, in sweep order, with
            # the same parameters and stable candidates in candidate order.
            assert solver.fallbacks == expected_fallbacks
            fallbacks += len(expected_fallbacks)
        assert fallbacks > 0

    def test_several_stable_candidates_fall_back_in_candidate_order(
        self, monkeypatch
    ):
        # No real cell has two stable candidates; a tolerance below
        # -max|Re λ| calls every candidate stable in both classifiers.
        monkeypatch.setattr(ess, "_STABILITY_TOL", -1e300)
        monkeypatch.setattr(scalar_ess, "_STABILITY_TOL", -1e300)
        base = paper_parameters(p=0.8, m=1, max_buffers=100)
        solver = RecordingSolver()
        solved = solver.solve_sweep(base, [5, 14, 30, 70])
        assert [len(stable) for _, stable in solver.fallbacks] == [4, 5, 6, 6]
        for (params, stable), m, answer in zip(solver.fallbacks, [5, 14, 30, 70],
                                               solved):
            oracle = [p for p in scalar_ess.fixed_points(params) if p.is_ess]
            assert params == base.with_m(m)
            assert stable == oracle
            assert [p.ess_type for p in stable][:4] == list(ess.CANDIDATES[:4])
            assert answer == _stub_fallback(params, stable)

    def test_no_stable_candidate_falls_back(self):
        solver = RecordingSolver()
        base = paper_parameters(p=1.0, m=1)
        solved = solver.solve_sweep(base, [1, 2, 3])
        assert [stable for _, stable in solver.fallbacks] == [[], [], []]
        assert solved == [_stub_fallback(base.with_m(m), []) for m in (1, 2, 3)]

    def test_solve_is_the_one_cell_sweep(self):
        class Fixed(EquilibriumSolver):
            def solve_sweep(self, base, m_values):
                return [(0.5, base.p * m, None) for m in m_values]

        assert Fixed().solve(paper_parameters(p=0.5, m=3)) == (0.5, 1.5, None)
        solver = EquilibriumSolver()
        base = paper_parameters(p=0.8, m=1, max_buffers=100)
        swept = solver.solve_sweep(base, list(range(1, 101)))
        assert swept == [solver.solve(base.with_m(m)) for m in range(1, 101)]
        assert all(type(x) is float and type(y) is float for x, y, _ in swept)

    def test_evaluate_equals_the_optimize_row(self):
        base = paper_parameters(p=0.9, m=1)
        rows = BufferOptimizer(base).optimize().rows
        for row in rows:
            assert BufferOptimizer(base).evaluate(row.m) == row

    def test_custom_solver_subclass_is_used(self):
        class Fixed(EquilibriumSolver):
            def solve_sweep(self, base, m_values):
                return [(0.5, 0.25, None) for _ in m_values]

        result = BufferOptimizer(paper_parameters(p=0.8, m=1), Fixed()).optimize(
            m_max=5
        )
        assert [(row.x, row.y, row.ess_type) for row in result.rows] == [
            (0.5, 0.25, None)
        ] * 5
        solver = RecordingSolver()
        row = BufferOptimizer(paper_parameters(p=1.0, m=1), solver).evaluate(3)
        assert [params.m for params, _ in solver.fallbacks] == [3]
        assert (row.x, row.y) == _stub_fallback(paper_parameters(p=1.0, m=3), [])[:2]

    def test_optimize_solves_only_uncached_m_in_one_sweep(self, monkeypatch):
        calls = []
        original = EquilibriumSolver.solve_sweep

        def spy(self, base, m_values):
            calls.append(list(m_values))
            return original(self, base, m_values)

        monkeypatch.setattr(EquilibriumSolver, "solve_sweep", spy)
        opt = BufferOptimizer(paper_parameters(p=0.8, m=1))
        opt.evaluate(3)
        opt.optimize(m_max=6)
        opt.optimize(m_max=6)
        assert calls == [[3], [1, 2, 4, 5, 6]]
