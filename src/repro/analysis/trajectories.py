"""Trajectory analytics for the Fig. 6 evolution-process study.

Fig. 6 shows the population shares evolving from ``(0.5, 0.5)`` into
four qualitatively different equilibria as ``m`` varies. These helpers
classify a trajectory's destination, measure how fast it settled, and
map out the regime bands over a whole ``m`` range (the paper reports
1-11 / 12-17 / 18-54 / 55-100 for ``p = 0.8``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.game.ess import EssType, label_point, rest_points
from repro.game.parameters import GameParameters
from repro.game.replicator import BatchedReplicator, ReplicatorDynamics, Trajectory

__all__ = [
    "classify_trajectory",
    "settling_steps",
    "is_spiral",
    "RegimeBand",
    "regime_bands",
    "phase_portrait",
]


def classify_trajectory(
    params: GameParameters, trajectory: Trajectory, tol: float = 5e-2
) -> Optional[EssType]:
    """Which §V-E candidate the trajectory settled at (``None`` if none)."""
    fx, fy = trajectory.final
    return label_point(params, fx, fy, tol=tol)


def settling_steps(trajectory: Trajectory, tol: float = 1e-3) -> Optional[int]:
    """First recorded index after which the trajectory stays within
    ``tol`` (infinity norm) of its final point; ``None`` if it never
    settles inside the recording."""
    fx, fy = trajectory.final
    dev = np.maximum(np.abs(trajectory.xs - fx), np.abs(trajectory.ys - fy))
    outside = np.nonzero(dev > tol)[0]
    if len(outside) == 0:
        return 0
    first_settled = int(outside[-1]) + 1
    if first_settled >= len(dev):
        return None
    return first_settled


def is_spiral(trajectory: Trajectory, min_crossings: int = 3) -> bool:
    """Heuristic spiral detector for the interior-ESS regime.

    The paper notes the ``(X̄, Ȳ)`` regime "converges spirally": the
    displacement vector to the final point keeps rotating, so its angle
    crosses quadrant boundaries repeatedly. We count sign changes of
    the x-displacement as crossings.
    """
    fx, fy = trajectory.final
    dx = trajectory.xs - fx
    signs = np.sign(dx[np.abs(dx) > 1e-9])
    if len(signs) < 2:
        return False
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    return crossings >= min_crossings


@dataclass(frozen=True)
class RegimeBand:
    """A maximal run of consecutive ``m`` reaching the same ESS type."""

    ess_type: Optional[EssType]
    m_min: int
    m_max: int

    @property
    def width(self) -> int:
        """Number of ``m`` values in the band."""
        return self.m_max - self.m_min + 1


def regime_bands(
    base: GameParameters,
    m_values: Sequence[int],
    x0: float = 0.5,
    y0: float = 0.5,
    dt: float = 0.01,
    max_steps: int = 200_000,
) -> Tuple[List[RegimeBand], Dict[int, Optional[EssType]]]:
    """Realized-ESS label for each ``m`` plus the contiguous bands.

    This regenerates the paper's §VI-B-2 regime table. ``m_values``
    must be strictly increasing.

    The whole ``m`` range integrates as one
    :class:`~repro.game.replicator.BatchedReplicator` grid — one
    vectorized Euler loop instead of one scalar loop per ``m`` — with
    endpoints identical to the per-``m`` scalar integration (converged
    cells freeze, so each cell reproduces its scalar trajectory bit for
    bit; the equivalence tests pin this).
    """
    if not m_values:
        raise ConfigurationError("m_values must be non-empty")
    if any(b <= a for a, b in zip(m_values, m_values[1:])):
        raise ConfigurationError("m_values must be strictly increasing")
    cells = [base.with_m(m) for m in m_values]
    batch = BatchedReplicator(cells).integrate(
        x0=x0, y0=y0, dt=dt, max_steps=max_steps
    )
    points = rest_points(base, m_values)
    labels: Dict[int, Optional[EssType]] = {}
    for index, m in enumerate(m_values):
        fx, fy = batch.final(index)
        labels[m] = points.label(index, fx, fy, tol=5e-2)
    bands: List[RegimeBand] = []
    start = m_values[0]
    current = labels[start]
    prev = start
    for m in m_values[1:]:
        if labels[m] != current:
            bands.append(RegimeBand(current, start, prev))
            start = m
            current = labels[m]
        prev = m
    bands.append(RegimeBand(current, start, prev))
    return bands, labels


def phase_portrait(
    params: GameParameters, grid: int = 21
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The replicator vector field sampled on a uniform grid.

    Returns ``(X, Y, dX, dY)`` meshes — handy for plotting Fig. 6-style
    phase portraits or for tests asserting field directions.
    """
    if grid < 2:
        raise ConfigurationError(f"grid must be >= 2, got {grid}")
    dynamics = ReplicatorDynamics(params)
    axis = np.linspace(0.0, 1.0, grid)
    xs, ys = np.meshgrid(axis, axis)
    dxs, dys = dynamics.derivatives_batch(xs, ys)
    return xs, ys, dxs, dys
