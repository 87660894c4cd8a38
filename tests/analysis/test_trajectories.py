"""Unit tests for trajectory analytics (Fig. 6 support)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.trajectories import (
    classify_trajectory,
    is_spiral,
    phase_portrait,
    regime_bands,
    settling_steps,
)
from repro.errors import ConfigurationError
from repro.game.ess import EssType, _nearest_point
from repro.game.parameters import paper_parameters
from repro.game.replicator import BatchedReplicator, ReplicatorDynamics
from tests.game import scalar_ess


class TestClassifyTrajectory:
    def test_classifies_destination(self):
        params = paper_parameters(p=0.8, m=5)
        trajectory = ReplicatorDynamics(params).integrate()
        assert classify_trajectory(params, trajectory) is EssType.CORNER_11

    def test_unsettled_trajectory_unclassified(self):
        params = paper_parameters(p=0.8, m=30)
        trajectory = ReplicatorDynamics(params).integrate(max_steps=3)
        assert classify_trajectory(params, trajectory, tol=1e-4) is None


class TestSettlingSteps:
    def test_settles_before_end(self):
        params = paper_parameters(p=0.8, m=5)
        trajectory = ReplicatorDynamics(params).integrate(max_steps=10_000)
        steps = settling_steps(trajectory)
        assert steps is not None
        assert 0 < steps < len(trajectory.xs)

    def test_constant_trajectory_settles_immediately(self):
        from repro.game.replicator import Trajectory

        flat = Trajectory(
            xs=np.full(10, 0.5),
            ys=np.full(10, 0.5),
            converged=True,
            steps=9,
            dt=0.01,
            method="euler",
        )
        assert settling_steps(flat) == 0


class TestSpiralDetection:
    def test_interior_regime_is_spiral(self):
        params = paper_parameters(p=0.8, m=30)
        trajectory = ReplicatorDynamics(params).integrate()
        assert is_spiral(trajectory)

    def test_fast_corner_convergence_is_not(self):
        params = paper_parameters(p=0.8, m=3)
        trajectory = ReplicatorDynamics(params).integrate()
        assert not is_spiral(trajectory)


class TestRegimeBands:
    def test_paper_band_structure_at_p08(self):
        """The §VI-B-2 regimes in order: (1,1), (1,Y'), interior, (X',1).

        Band boundaries must match the paper within ±1 in m (the exact
        (1,Y')/(X,Y) edge depends on the Euler clipping artifact the
        paper itself exhibits — see EXPERIMENTS.md).
        """
        base = paper_parameters(p=0.8, m=1, max_buffers=100)
        m_values = [1, 5, 11, 12, 14, 17, 19, 25, 40, 54, 55, 70, 100]
        bands, labels = regime_bands(base, m_values)
        order = [band.ess_type for band in bands]
        assert order == [
            EssType.CORNER_11,
            EssType.EDGE_1Y,
            EssType.INTERIOR,
            EssType.EDGE_X1,
        ]
        assert labels[11] is EssType.CORNER_11
        assert labels[12] is EssType.EDGE_1Y
        assert labels[54] is EssType.INTERIOR
        assert labels[55] is EssType.EDGE_X1

    @pytest.mark.parametrize("p", [0.8, 0.95])
    def test_labels_match_the_scalar_oracle(self, p):
        """One sweep labels every endpoint exactly as the per-m scalar
        classification with ``math.hypot`` nearest matching did (a tie
        goes to the later candidate)."""
        base = paper_parameters(p=p, m=1, max_buffers=100)
        m_values = list(range(1, 101))
        _, labels = regime_bands(base, m_values)
        batch = BatchedReplicator([base.with_m(m) for m in m_values]).integrate()
        for index, m in enumerate(m_values):
            fx, fy = batch.final(index)
            params = base.with_m(m)
            nearest = _nearest_point(scalar_ess.fixed_points(params), fx, fy, 5e-2)
            assert labels[m] is (nearest.ess_type if nearest else None), m

    def test_band_widths(self):
        base = paper_parameters(p=0.8, m=1, max_buffers=100)
        bands, _ = regime_bands(base, [5, 20, 70])
        assert sum(band.width for band in bands) >= 3

    def test_validation(self):
        base = paper_parameters(p=0.8, m=1)
        with pytest.raises(ConfigurationError):
            regime_bands(base, [])
        with pytest.raises(ConfigurationError):
            regime_bands(base, [5, 5])
        with pytest.raises(ConfigurationError):
            regime_bands(base, [7, 3])


class TestPhasePortrait:
    def test_shapes(self):
        xs, ys, dxs, dys = phase_portrait(paper_parameters(p=0.8, m=30), grid=11)
        assert xs.shape == ys.shape == dxs.shape == dys.shape == (11, 11)

    def test_boundary_rows_have_zero_normal_flow(self):
        xs, ys, dxs, dys = phase_portrait(paper_parameters(p=0.8, m=30), grid=5)
        assert np.allclose(dxs[:, 0], 0.0)  # x = 0 column
        assert np.allclose(dxs[:, -1], 0.0)  # x = 1 column
        assert np.allclose(dys[0, :], 0.0)  # y = 0 row
        assert np.allclose(dys[-1, :], 0.0)  # y = 1 row

    def test_bad_grid(self):
        with pytest.raises(ConfigurationError):
            phase_portrait(paper_parameters(p=0.8, m=30), grid=1)
