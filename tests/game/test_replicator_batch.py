"""The replicator integrator == the oracle loops, bit for bit.

``BatchedReplicator.integrate`` (and ``ReplicatorDynamics.integrate``,
its one-cell call) against the loops kept in
``tests/game/scalar_replicator.py``: the scalar Python-float loop and
the gathered batched loop. The batch precomputes its per-cell constants
with Python scalar arithmetic and evaluates the field in the scalar
expression's exact operation order, so no tolerance is needed anywhere
in this file: every comparison is ``==``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigurationError, ConvergenceError
from repro.game.parameters import GameParameters, paper_parameters
from repro.game.replicator import TAIL_CELLS, BatchedReplicator, ReplicatorDynamics
from tests.game.scalar_replicator import GatheredReplicator, scalar_integrate

CASES = [(0.5, 4), (0.8, 1), (0.8, 12), (0.8, 18), (0.8, 30), (0.8, 55), (0.95, 50)]


def scalar_trajectories(cases, method="euler", **kwargs):
    return [
        scalar_integrate(paper_parameters(p=p, m=m), method=method, **kwargs)
        for p, m in cases
    ]


class TestBitEquivalence:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_endpoints_match_scalar(self, method):
        cells = [paper_parameters(p=p, m=m) for p, m in CASES]
        batch = BatchedReplicator(cells).integrate(method=method)
        for i, trajectory in enumerate(scalar_trajectories(CASES, method=method)):
            assert batch.final(i) == trajectory.final
            assert int(batch.steps[i]) == trajectory.steps
            assert bool(batch.converged[i]) == trajectory.converged

    def test_origin_grid_matches_scalar(self):
        params = paper_parameters(p=0.8, m=30)
        origins = [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.3, 0.7)]
        batch = BatchedReplicator.uniform(params, len(origins)).integrate(
            x0=np.array([o[0] for o in origins]),
            y0=np.array([o[1] for o in origins]),
        )
        for i, (x0, y0) in enumerate(origins):
            assert batch.final(i) == scalar_integrate(params, x0=x0, y0=y0).final

    def test_derivatives_batch_matches_scalar(self):
        dynamics = ReplicatorDynamics(paper_parameters(p=0.8, m=30))
        axis = np.array([j / 10 for j in range(11)])
        gx, gy = np.meshgrid(axis, axis)
        dxs, dys = dynamics.derivatives_batch(gx, gy)
        for i in range(11):
            for j in range(11):
                dx, dy = dynamics.derivatives(gx[i, j], gy[i, j])
                assert dxs[i, j] == dx
                assert dys[i, j] == dy


class TestTrajectoryReconstruction:
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_matches_scalar_recording(self, record_every):
        cases = [(0.8, 5), (0.8, 30)]
        cells = [paper_parameters(p=p, m=m) for p, m in cases]
        batch = BatchedReplicator(cells).integrate(record_every=record_every)
        scalars = scalar_trajectories(cases, record_every=record_every)
        for i, scalar in enumerate(scalars):
            reconstructed = batch.trajectory(i)
            assert reconstructed.xs.tolist() == scalar.xs.tolist()
            assert reconstructed.ys.tolist() == scalar.ys.tolist()
            assert reconstructed.steps == scalar.steps
            assert reconstructed.converged == scalar.converged

    def test_trajectory_requires_history(self):
        batch = BatchedReplicator.uniform(paper_parameters(p=0.8, m=5), 2).integrate()
        with pytest.raises(ConfigurationError):
            batch.trajectory(0)


class TestBatchApi:
    def test_len_and_all_converged(self):
        batch = BatchedReplicator.uniform(paper_parameters(p=0.8, m=5), 3).integrate()
        assert len(batch) == 3
        assert batch.all_converged

    def test_cells_and_size(self):
        kernel = BatchedReplicator.uniform(paper_parameters(p=0.8, m=5), 4)
        assert kernel.size == 4
        assert len(kernel.cells) == 4

    def test_empty_cells_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchedReplicator(())

    def test_uniform_count_validated(self):
        with pytest.raises(ConfigurationError):
            BatchedReplicator.uniform(paper_parameters(p=0.8, m=5), 0)

    def test_integrate_validates_settings(self):
        kernel = BatchedReplicator.uniform(paper_parameters(p=0.8, m=5), 1)
        with pytest.raises(ConfigurationError):
            kernel.integrate(dt=0.0)
        with pytest.raises(ConfigurationError):
            kernel.integrate(max_steps=0)
        with pytest.raises(ConfigurationError):
            kernel.integrate(method="heun")
        with pytest.raises(ConfigurationError):
            kernel.integrate(record_every=0)

    def test_divergence_raises_when_asked(self):
        kernel = BatchedReplicator.uniform(paper_parameters(p=0.8, m=30), 2)
        with pytest.raises(ConvergenceError):
            kernel.integrate(max_steps=3, raise_on_divergence=True)
        # ...and reports unconverged flags when not asked to raise.
        batch = kernel.integrate(max_steps=3)
        assert not batch.all_converged


def _hex(values):
    """An array's dtype and its floats as exact bits."""
    if values is None:
        return None
    values = np.asarray(values)
    return (values.dtype.str, values.shape, [float(v).hex() for v in values.ravel()])


def _batch_bits(batch):
    return (
        _hex(batch.final_x), _hex(batch.final_y),
        batch.converged.dtype.str, batch.converged.tolist(),
        batch.steps.dtype.str, batch.steps.tolist(),
        _hex(batch.xs), _hex(batch.ys),
        batch.dt, batch.method, batch.record_every,
    )


def _random_cells(rng, count):
    return [
        GameParameters(
            ra=rng.uniform(1.0, 500.0),
            k1=rng.uniform(0.5, 50.0),
            k2=rng.uniform(0.1, 20.0),
            p=rng.choice((rng.random(), np.float64(rng.random()), 1.0)),
            m=rng.randint(1, 100),
            max_buffers=100,
        )
        for _ in range(count)
    ]


class TestGatheredOracle:
    """The carried-derivative loop against the loop it replaced
    (``tests/game/scalar_replicator.py``), bit for bit."""

    @pytest.mark.parametrize("p", [0.5, 0.8, 0.95])
    def test_fig6_sweep(self, p):
        base = paper_parameters(p=p, m=1, max_buffers=100)
        cells = [base.with_m(m) for m in range(1, 101)]
        # At p = 0.5 four cells have not converged by 20,000 steps.
        ours = BatchedReplicator(cells).integrate(max_steps=20_000)
        oracle = GatheredReplicator(cells).integrate(max_steps=20_000)
        assert _batch_bits(ours) == _batch_bits(oracle)

    def test_seeded_random_grids(self):
        rng = random.Random(2306)
        unconverged = 0
        for trial in range(24):
            cells = _random_cells(rng, rng.randint(1, 40))
            n = len(cells)
            settings = dict(
                method=rng.choice(("euler", "rk4")),
                record_every=rng.choice((None, 1, 7)),
                max_steps=rng.choice((1, 40, 800)),
                dt=rng.choice((0.01, 0.05)),
            )
            if trial % 2:
                settings["x0"] = np.array([rng.random() for _ in range(n)])
                settings["y0"] = np.array([rng.random() for _ in range(n)])
            ours = BatchedReplicator(cells).integrate(**settings)
            oracle = GatheredReplicator(cells).integrate(**settings)
            assert _batch_bits(ours) == _batch_bits(oracle), settings
            unconverged += not ours.all_converged
            if not ours.all_converged:
                with pytest.raises(ConvergenceError) as mine:
                    BatchedReplicator(cells).integrate(
                        raise_on_divergence=True, **settings
                    )
                with pytest.raises(ConvergenceError) as theirs:
                    GatheredReplicator(cells).integrate(
                        raise_on_divergence=True, **settings
                    )
                assert str(mine.value) == str(theirs.value)
        assert unconverged

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_scalar_loop_matches_the_one_cell_oracle(self, method):
        rng = random.Random(7)
        for params in _random_cells(rng, 12) + [paper_parameters(p=0.98, m=1)]:
            x0, y0 = rng.random(), rng.random()
            scalar = ReplicatorDynamics(params).integrate(
                x0=x0, y0=y0, method=method, max_steps=3_000, record_every=3
            )
            oracle = GatheredReplicator([params]).integrate(
                x0=x0, y0=y0, method=method, max_steps=3_000, record_every=3
            )
            reconstructed = oracle.trajectory(0)
            assert _hex(scalar.xs) == _hex(reconstructed.xs)
            assert _hex(scalar.ys) == _hex(reconstructed.ys)
            assert (scalar.steps, scalar.converged) == (
                reconstructed.steps, reconstructed.converged
            )


def _crossing(steps):
    """The step after which at most ``TAIL_CELLS`` cells are still
    moving: where the array phase hands over to the scalar tail."""
    return sorted(steps)[-(TAIL_CELLS + 1)]


def _sweep(p, m_values):
    base = paper_parameters(p=p, m=1, max_buffers=100)
    return [base.with_m(m) for m in m_values]


def _assert_oracle(cells, **settings):
    """Our run and the oracle's, bit for bit; returns the oracle's."""
    oracle = GatheredReplicator(cells).integrate(**settings)
    ours = BatchedReplicator(cells).integrate(**settings)
    assert _batch_bits(ours) == _batch_bits(oracle), settings
    return oracle


def _assert_same_error(cells, **settings):
    with pytest.raises(ConvergenceError) as mine:
        BatchedReplicator(cells).integrate(raise_on_divergence=True, **settings)
    with pytest.raises(ConvergenceError) as theirs:
        GatheredReplicator(cells).integrate(raise_on_divergence=True, **settings)
    assert str(mine.value) == str(theirs.value)


class TestScalarTail:
    """Both phases of ``BatchedReplicator.integrate`` — arrays while more
    than ``TAIL_CELLS`` cells move, Python floats after — against the
    gathered oracle, bit for bit, around the hand-over."""

    # Each grid hands over to the tail at a different step.
    GRIDS = {
        "fig6-p0.8": _sweep(0.8, range(1, 101)),
        "fig6-p0.95": _sweep(0.95, range(1, 101)),
        "p0.8-narrow": _sweep(0.8, range(12, 2 * TAIL_CELLS + 12)),
        "just-over": _random_cells(random.Random(11), TAIL_CELLS + 1),
        "random": _random_cells(random.Random(5), TAIL_CELLS + 20),
    }

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_threshold_crossed_at_different_steps(self, method):
        crossings = {}
        for name, cells in self.GRIDS.items():
            oracle = _assert_oracle(cells, method=method, max_steps=5_000)
            steps = oracle.steps.tolist()
            crossings[name] = _crossing(steps)
            # The tail takes steps of its own after the hand-over.
            assert max(steps) > crossings[name], name
        assert len(set(crossings.values())) == len(crossings), crossings

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("size", [1, 2, TAIL_CELLS])
    def test_grids_at_or_below_threshold(self, size, method):
        rng = random.Random(size)
        for cells in (
            _random_cells(rng, size),
            _sweep(0.8, range(1, 101, 100 // size)[:size]),
        ):
            _assert_oracle(cells, method=method, max_steps=5_000, record_every=7)
            _assert_oracle(cells, method=method, max_steps=5_000)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    @pytest.mark.parametrize("record_every", [None, 1, 7])
    def test_recording_with_cells_converging_in_both_phases(
        self, record_every, method
    ):
        cells = _sweep(0.8, range(1, TAIL_CELLS + 21))
        oracle = _assert_oracle(cells, method=method, record_every=record_every)
        steps = oracle.steps.tolist()
        crossing = _crossing(steps)
        assert oracle.all_converged
        assert any(s <= crossing for s in steps)
        assert any(s > crossing for s in steps)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_budget_runs_out_in_either_phase(self, method):
        cells = _sweep(0.8, range(1, TAIL_CELLS + 21))
        steps = GatheredReplicator(cells).integrate(method=method).steps.tolist()
        crossing = _crossing(steps)
        for budget in (crossing - 1, (crossing + max(steps)) // 2):
            for record_every in (None, 7):
                oracle = _assert_oracle(
                    cells, method=method, max_steps=budget, record_every=record_every
                )
                assert not oracle.all_converged
            _assert_same_error(cells, method=method, max_steps=budget)

    def test_divergence_messages_match(self):
        # Stuck in the array phase, stuck in the tail, and a grid that
        # never leaves the tail: at p = 0.5, m = 9..19 take 5,039 steps
        # or more, and m = 16..19 never converge.
        cells = _sweep(0.5, range(1, 101))
        _assert_same_error(cells, max_steps=100)
        _assert_same_error(cells, max_steps=20_000)
        _assert_same_error(_sweep(0.5, range(9, 9 + TAIL_CELLS)), max_steps=2_000)

    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_per_cell_origins(self, method):
        rng = random.Random(41)
        for cells in (_sweep(0.8, range(1, TAIL_CELLS + 21)), _random_cells(rng, TAIL_CELLS)):
            n = len(cells)
            origins = dict(
                x0=np.array([rng.random() for _ in range(n)]),
                y0=np.array([rng.random() for _ in range(n)]),
            )
            oracle = _assert_oracle(cells, method=method, max_steps=4_000, **origins)
            _assert_oracle(
                cells, method=method, max_steps=4_000, record_every=7, **origins
            )
            if n > TAIL_CELLS:
                assert max(oracle.steps) > _crossing(oracle.steps.tolist())


def _trajectory_bits(trajectory):
    return (
        _hex(trajectory.xs), _hex(trajectory.ys),
        trajectory.steps, trajectory.converged, trajectory.dt, trajectory.method,
    )


class TestScalarLoopOracle:
    """``ReplicatorDynamics.integrate``, now a one-cell batched call,
    against the scalar loop it replaced (``scalar_integrate``)."""

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.8, 0.95, 0.98])
    def test_one_cell_call_matches_scalar_loop(self, p):
        for m in (1, 2, 12, 40):
            params = paper_parameters(p=p, m=m, max_buffers=100)
            for method, budget in (("euler", 20_000), ("rk4", 3_000)):
                settings = dict(method=method, max_steps=budget)
                ours = ReplicatorDynamics(params).integrate(**settings)
                assert _trajectory_bits(ours) == _trajectory_bits(
                    scalar_integrate(params, **settings)
                ), (m, method)

    @pytest.mark.parametrize("p, m", [(0.1, 2), (0.98, 1)])
    def test_fig7_fallback_cells(self, p, m):
        """The cells Algorithm 3 hands to the dynamics on fig7's grid,
        at the fallback's budget and recording stride."""
        params = paper_parameters(p=p, m=m)
        settings = dict(max_steps=100_000, record_every=10)
        ours = ReplicatorDynamics(params).integrate(**settings)
        assert _trajectory_bits(ours) == _trajectory_bits(
            scalar_integrate(params, **settings)
        )
