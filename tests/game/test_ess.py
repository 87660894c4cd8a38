"""Unit tests for fixed points and ESS classification (§V-E, Fig. 6)."""

from __future__ import annotations

import collections
import random

import numpy as np
import pytest

from repro.analysis.sweep import open_interval_grid
from repro.errors import ConfigurationError
from repro.game.ess import (
    _STABILITY_TOL,
    CANDIDATES,
    EssType,
    FixedPoint,
    Stability,
    _nearest_point,
    edge_x_prime,
    edge_y_prime,
    fixed_points,
    interior_fixed_point,
    label_point,
    realized_ess,
    rest_points,
    stable_points,
)
from repro.game.parameters import GameParameters, paper_parameters
from repro.game.replicator import ReplicatorDynamics
from tests.game import scalar_ess


class TestCandidateFormulas:
    def test_interior_formula(self):
        """§V-E case 5 closed form at p=0.8, m=30."""
        params = paper_parameters(p=0.8, m=30)
        q = 1 - 0.8 ** 30
        denom = 20 * 4 * 30 * 0.8 + q * q * 200 ** 2
        x, y = interior_fixed_point(params)
        assert x == pytest.approx(q * 200 ** 2 / denom)
        assert y == pytest.approx(4 * 30 * 200 / denom)

    def test_interior_is_a_rest_point(self):
        params = paper_parameters(p=0.8, m=30)
        dynamics = ReplicatorDynamics(params)
        x, y = interior_fixed_point(params)
        dx, dy = dynamics.derivatives(x, y)
        assert abs(dx) < 1e-9
        assert abs(dy) < 1e-9

    def test_interior_leaves_square_for_large_m(self):
        assert interior_fixed_point(paper_parameters(p=0.8, m=60, max_buffers=100)) is None

    def test_edge_y_prime_formula(self):
        params = paper_parameters(p=0.8, m=14)
        assert edge_y_prime(params) == pytest.approx(0.8 ** 14 * 200 / (20 * 0.8))

    def test_edge_y_prime_is_rest_point(self):
        params = paper_parameters(p=0.8, m=14)
        dynamics = ReplicatorDynamics(params)
        dx, dy = dynamics.derivatives(1.0, edge_y_prime(params))
        assert dx == 0.0
        assert abs(dy) < 1e-9

    def test_edge_y_prime_outside_for_small_m(self):
        # p^m Ra / (k1 xa) > 1 for m <= 11 at p = 0.8
        assert edge_y_prime(paper_parameters(p=0.8, m=5)) is None

    def test_edge_x_prime_formula(self):
        params = paper_parameters(p=0.8, m=70, max_buffers=100)
        assert edge_x_prime(params) == pytest.approx(
            (1 - 0.8 ** 70) * 200 / (4 * 70)
        )

    def test_edge_x_prime_is_rest_point(self):
        params = paper_parameters(p=0.8, m=70, max_buffers=100)
        dynamics = ReplicatorDynamics(params)
        dx, dy = dynamics.derivatives(edge_x_prime(params), 1.0)
        assert abs(dx) < 1e-9
        assert dy == 0.0

    def test_edge_x_prime_outside_for_small_m(self):
        assert edge_x_prime(paper_parameters(p=0.8, m=10)) is None


class TestClassification:
    def test_corners_always_candidates(self):
        points = fixed_points(paper_parameters(p=0.8, m=10))
        types = {point.ess_type for point in points}
        assert {
            EssType.CORNER_00,
            EssType.CORNER_01,
            EssType.CORNER_10,
            EssType.CORNER_11,
        } <= types

    def test_corner_00_never_stable_under_paper_assumptions(self):
        """§V-E case 1: Ra > Ca means (0,0) cannot be ESS."""
        for m in (1, 10, 30, 60):
            points = fixed_points(paper_parameters(p=0.8, m=m, max_buffers=100))
            corner = next(p for p in points if p.ess_type is EssType.CORNER_00)
            assert corner.stability is not Stability.STABLE

    def test_corner_10_never_stable(self):
        """§V-E case 2: (1,0) cannot be ESS."""
        for m in (1, 10, 30, 60):
            points = fixed_points(paper_parameters(p=0.8, m=m, max_buffers=100))
            corner = next(p for p in points if p.ess_type is EssType.CORNER_10)
            assert corner.stability is not Stability.STABLE

    def test_exactly_one_stable_point_in_paper_regimes(self):
        for m in (5, 14, 30, 70):
            stable = stable_points(paper_parameters(p=0.8, m=m, max_buffers=100))
            assert len(stable) == 1

    def test_paper_regime_small_m_is_11(self):
        stable = stable_points(paper_parameters(p=0.8, m=5))
        assert stable[0].ess_type is EssType.CORNER_11

    def test_paper_regime_medium_m_is_1_y(self):
        stable = stable_points(paper_parameters(p=0.8, m=14))
        assert stable[0].ess_type is EssType.EDGE_1Y

    def test_paper_regime_interior(self):
        stable = stable_points(paper_parameters(p=0.8, m=30))
        assert stable[0].ess_type is EssType.INTERIOR

    def test_paper_regime_large_m_is_x_1(self):
        stable = stable_points(paper_parameters(p=0.8, m=70, max_buffers=100))
        assert stable[0].ess_type is EssType.EDGE_X1

    def test_interior_is_spiral_sink(self):
        """The paper observes spiral convergence: complex eigenvalues
        with negative real parts."""
        points = fixed_points(paper_parameters(p=0.8, m=30))
        interior = next(p for p in points if p.ess_type is EssType.INTERIOR)
        assert interior.stability is Stability.STABLE
        assert all(abs(e.imag) > 0 for e in interior.eigenvalues)

    def test_regime_boundaries_match_paper(self):
        """(1,1) stable up to m=11, (1,Y') from m=12 (paper §VI-B-2)."""
        stable_11 = stable_points(paper_parameters(p=0.8, m=11))
        stable_12 = stable_points(paper_parameters(p=0.8, m=12))
        assert stable_11[0].ess_type is EssType.CORNER_11
        assert stable_12[0].ess_type is EssType.EDGE_1Y

    def test_regime_boundary_54_55(self):
        """Interior up to m=54, (X',1) from m=55 (paper §VI-B-2)."""
        stable_54 = stable_points(paper_parameters(p=0.8, m=54, max_buffers=100))
        stable_55 = stable_points(paper_parameters(p=0.8, m=55, max_buffers=100))
        assert stable_54[0].ess_type is EssType.INTERIOR
        assert stable_55[0].ess_type is EssType.EDGE_X1


class TestRealizedEss:
    def test_reaches_1_1_fast_for_small_m(self):
        point, trajectory = realized_ess(paper_parameters(p=0.8, m=5))
        assert point is not None
        assert point.ess_type is EssType.CORNER_11
        assert trajectory.converged

    def test_reaches_1_y_for_medium_m(self):
        point, _ = realized_ess(paper_parameters(p=0.8, m=14))
        assert point.ess_type is EssType.EDGE_1Y
        assert point.y == pytest.approx(0.55, abs=0.01)

    def test_reaches_interior_spiral(self):
        from repro.analysis.trajectories import is_spiral

        point, trajectory = realized_ess(paper_parameters(p=0.8, m=30))
        assert point.ess_type is EssType.INTERIOR
        assert is_spiral(trajectory)

    def test_reaches_x_1_for_large_m(self):
        point, _ = realized_ess(paper_parameters(p=0.8, m=70, max_buffers=100))
        assert point.ess_type is EssType.EDGE_X1
        assert point.x == pytest.approx(200 / (4 * 70), abs=1e-6)

    def test_paper_y_044_around_m_15(self):
        """§VI-B-2: "Y converges to 0.44" in the (1, Y') regime —
        matched at m = 15."""
        point, _ = realized_ess(paper_parameters(p=0.8, m=15))
        assert point.y == pytest.approx(0.44, abs=0.01)


class TestLabelPoint:
    def test_labels_known_points(self):
        params = paper_parameters(p=0.8, m=30)
        x, y = interior_fixed_point(params)
        assert label_point(params, x, y) is EssType.INTERIOR
        assert label_point(params, 1.0, 1.0) is EssType.CORNER_11

    def test_unknown_point_is_none(self):
        params = paper_parameters(p=0.8, m=30)
        assert label_point(params, 0.5, 0.5, tol=1e-3) is None

    def test_out_of_square_rejected(self):
        with pytest.raises(ConfigurationError):
            label_point(paper_parameters(p=0.8, m=30), 1.5, 0.5)


#: ``RestPoints.stability`` codes index the enum in declaration order.
_CODES = list(Stability)


def _lapack_codes(eigs: np.ndarray) -> np.ndarray:
    """The classification rule applied to ``np.linalg.eigvals`` output
    (pairs on the last axis), as ``RestPoints.stability`` codes."""
    reals = np.real(eigs)
    neg = reals < -_STABILITY_TOL
    pos = reals > _STABILITY_TOL
    return np.where(
        neg.all(axis=-1), 0,
        np.where(pos.all(axis=-1), 1,
                 np.where(pos.any(axis=-1) & neg.any(axis=-1), 2, 3)),
    )


def _parity_sweeps():
    """``(base, m_values)`` sweeps: the Fig. 7/8 grid (and the
    benchmark's NumPy-float ``p`` grid), a seeded random sample of
    one-cell and many-cell sweeps, and ``p`` in {0, 1}."""
    full = list(range(1, 101))
    for i in range(1, 100):
        yield paper_parameters(p=i / 100, m=1, max_buffers=100), full
    for p in open_interval_grid(0.0, 1.0, 99, margin=0.005):
        yield paper_parameters(p=p, m=1), list(range(1, 51))
    rng = random.Random(2016)
    for index in range(2000):
        base = GameParameters(
            ra=rng.uniform(1.0, 500.0),
            k1=rng.uniform(0.5, 50.0),
            k2=rng.uniform(0.1, 20.0),
            p=rng.random() if index % 50 else float(index % 100 == 0),
            m=1,
            max_buffers=100,
        )
        if index % 10:
            yield base, [rng.randint(1, 100)]
        else:
            yield base, sorted(rng.sample(full, rng.randint(2, 20)))
    for p in (0.0, 1.0):
        yield paper_parameters(p=p, m=1, max_buffers=100), full


def _oracle_grid(base, m_values):
    """The scalar oracle's cells laid out as a ``RestPoints`` sweep:
    ``(present, x, y, stability codes, eigenvalues, jacobians)``."""
    shape = (len(CANDIDATES), len(m_values))
    present = np.zeros(shape, dtype=bool)
    x = np.zeros(shape)
    y = np.zeros(shape)
    codes = np.zeros(shape, dtype=np.int8)
    eigs = np.zeros(shape + (2,), dtype=complex)
    jacobians = np.zeros(shape + (2, 2))
    for col, m in enumerate(m_values):
        params = base.with_m(m)
        for point in scalar_ess.fixed_points(params):
            cell = (CANDIDATES.index(point.ess_type), col)
            present[cell] = True
            x[cell] = point.x
            y[cell] = point.y
            codes[cell] = _CODES.index(point.stability)
            eigs[cell] = point.eigenvalues
            jacobians[cell] = scalar_ess.jacobian_entries(params, point.x, point.y)
    return present, x, y, codes, eigs, jacobians


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal floats, bit for bit (``-0.0`` is not ``0.0``)."""
    return a.shape == b.shape and bool(np.all(a.view(np.uint64) == b.view(np.uint64)))


def _bits(point: FixedPoint):
    """Everything a fixed point holds, floats as their exact bits."""
    return (
        point.ess_type,
        point.stability,
        float(point.x).hex(),
        float(point.y).hex(),
        tuple((e.real.hex(), e.imag.hex()) for e in point.eigenvalues),
    )


class TestClosedFormClassification:
    """The array classifier against the scalar oracle (bit for bit) and
    LAPACK (stability class, eigenvalues within 1e-12 relative)."""

    def test_matches_lapack(self):
        """Every cell of every sweep equals the scalar oracle bit for bit,
        and every candidate's class and eigenvalues match LAPACK."""
        ours, lapack_in, stable_counts = [], [], collections.Counter()
        for base, m_values in _parity_sweeps():
            sweep = rest_points(base, m_values)
            present, x, y, codes, eigs, jacobians = _oracle_grid(base, m_values)
            assert np.array_equal(sweep.present, present), (base, m_values)
            assert _same_bits(sweep.x[present], x[present]), (base, m_values)
            assert _same_bits(sweep.y[present], y[present]), (base, m_values)
            assert np.array_equal(sweep.stability[present], codes[present])
            assert _same_bits(sweep.eigenvalues[present], eigs[present])
            stable_counts.update(sweep.stable.sum(axis=0).tolist())
            ours.append(sweep.eigenvalues[present])
            lapack_in.append(jacobians[present])
        mine = np.concatenate(ours)
        assert len(mine) > 80_000
        # Cells without a stable candidate (p in {0, 1}: marginal) are in
        # the sample next to the analytic ones. No sampled cell has two;
        # tests/game/test_optimizer.py forces that case.
        assert stable_counts[0] and stable_counts[1]
        assert np.any(_lapack_codes(mine) == 3) and np.any(mine.imag != 0)
        lapack = np.linalg.eigvals(np.concatenate(lapack_in))
        assert np.array_equal(_lapack_codes(lapack), _lapack_codes(mine))
        # complex sorts by real part, then imaginary part
        mine, lapack = np.sort(mine, axis=1), np.sort(lapack, axis=1)
        assert np.all(np.abs(mine - lapack) <= 1e-12 * np.abs(lapack))

    def test_fixed_points_is_the_sweep_cell(self):
        base = paper_parameters(p=0.8, m=1, max_buffers=100)
        sweep = rest_points(base, range(1, 101))
        for index, m in enumerate(range(1, 101)):
            mine = sweep.fixed_points(index)
            assert fixed_points(base.with_m(m)) == mine
            assert all(type(e) is complex for p in mine for e in p.eigenvalues)
            assert all(type(p.x) is float and type(p.y) is float for p in mine)

    def test_one_cell_views_match_the_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            params = GameParameters(
                ra=rng.uniform(1.0, 500.0),
                k1=rng.uniform(0.5, 50.0),
                k2=rng.uniform(0.1, 20.0),
                p=rng.random(),
                m=rng.randint(1, 100),
                max_buffers=100,
            )
            assert interior_fixed_point(params) == scalar_ess.interior_fixed_point(params)
            assert edge_x_prime(params) == scalar_ess.edge_x_prime(params)
            assert edge_y_prime(params) == scalar_ess.edge_y_prime(params)
            oracle = scalar_ess.fixed_points(params)
            assert [_bits(p) for p in fixed_points(params)] == [_bits(p) for p in oracle]
            assert stable_points(params) == [point for point in oracle if point.is_ess]
            x, y = rng.random(), rng.random()
            assert ReplicatorDynamics(params).jacobian_entries(x, y) == (
                scalar_ess.jacobian_entries(params, x, y)
            )

    def test_sweep_rejects_bad_m(self):
        base = paper_parameters(p=0.8, m=1)
        with pytest.raises(ConfigurationError):
            rest_points(base, [])
        with pytest.raises(ConfigurationError):
            rest_points(base, [0, 1])

    def test_plane_rejects_bad_p(self):
        base = paper_parameters(p=0.8, m=1)
        with pytest.raises(ConfigurationError):
            rest_points(base, [1, 2], [0.5])
        with pytest.raises(ConfigurationError):
            rest_points(base, [1, 2], [0.5, 1.5])

    def test_plane_cells_equal_their_one_p_sweeps(self):
        """A (p, m) plane cell equals the same cell of its own p's
        sweep bit for bit, wherever the candidate is present, and so the
        scalar oracle (``test_matches_lapack``)."""
        rng = random.Random(23)
        levels = (
            list(open_interval_grid(0.0, 1.0, 99, margin=0.005))
            + [rng.random() for _ in range(20)] + [0.0, 1.0]
        )
        base = GameParameters(ra=150.0, k1=12.0, k2=3.0, p=0.5, m=1, max_buffers=60)
        m_values = list(range(1, 61))
        plane = rest_points(
            base,
            m_values * len(levels),
            [p for p in levels for _ in m_values],
        )
        for level, p in enumerate(levels):
            sweep = rest_points(base.with_p(p), m_values)
            cells = slice(level * len(m_values), (level + 1) * len(m_values))
            present = plane.present[:, cells]
            assert np.array_equal(present, sweep.present)
            assert _same_bits(plane.attack[cells], sweep.attack)
            assert _same_bits(plane.x[:, cells][present], sweep.x[present])
            assert _same_bits(plane.y[:, cells][present], sweep.y[present])
            assert np.array_equal(
                plane.stability[:, cells][present], sweep.stability[present]
            )
            assert _same_bits(
                plane.eigenvalues[:, cells][present], sweep.eigenvalues[present]
            )

    def test_exact_zero_eigenvalue_is_marginal(self):
        params = paper_parameters(p=1.0, m=5)
        corner = next(
            point for point in fixed_points(params)
            if point.ess_type is EssType.CORNER_00
        )
        assert corner.stability is Stability.MARGINAL
        assert corner.eigenvalues == (0j, complex(params.ra))
        eigs = np.linalg.eigvals(
            ReplicatorDynamics(params).jacobian(corner.x, corner.y)
        )
        assert _CODES[_lapack_codes(eigs)] is Stability.MARGINAL

    def test_jacobian_entries_equal_jacobian(self):
        rng = random.Random(7)
        for m in (1, 14, 30, 70):
            dynamics = ReplicatorDynamics(
                paper_parameters(p=0.8, m=m, max_buffers=100)
            )
            for _ in range(50):
                x, y = rng.random(), rng.random()
                entries = dynamics.jacobian_entries(x, y)
                assert dynamics.jacobian(x, y).tolist() == [
                    list(row) for row in entries
                ]


class TestNearestPoint:
    def _point(self, x, y, ess_type):
        return FixedPoint(x, y, ess_type, Stability.STABLE, (-1 + 0j, -2 + 0j))

    def test_tie_goes_to_the_later_point(self):
        first = self._point(0.0, 0.5, EssType.CORNER_00)
        second = self._point(1.0, 0.5, EssType.CORNER_11)
        assert _nearest_point([first, second], 0.5, 0.5, 1.0) is second

    def test_nothing_within_tol(self):
        point = self._point(1.0, 1.0, EssType.CORNER_11)
        assert _nearest_point([point], 0.0, 0.0, 0.5) is None
