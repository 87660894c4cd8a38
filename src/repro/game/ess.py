"""Fixed points and evolutionary stable strategies (paper §V-E).

Setting ``dX/dt = dY/dt = 0`` yields the candidate rest points

- the four corners of the unit square,
- edge points ``(X', 1)`` with ``X' = (1-p^m) Ra / (k2 m)``
  and ``(1, Y')`` with ``Y' = p^m Ra / (k1 xa)``,
- the interior point

  .. math::

     \\bar X = \\frac{(1-p^m) R_a^2}{k_1 k_2 m x_a + (1-p^m)^2 R_a^2},
     \\qquad
     \\bar Y = \\frac{k_2 m R_a}{k_1 k_2 m x_a + (1-p^m)^2 R_a^2}.

The paper enumerates which of these "can be ESS"; here every candidate
is classified rigorously through the Jacobian of the replicator field
(asymptotically stable = all eigenvalue real parts negative). The
Jacobian is ``2 × 2``, so its eigenvalues are taken in closed form with
plain floats: exactly the diagonal when an off-diagonal entry is zero
(every corner and both edge families), otherwise
``tr/2 ± sqrt(tr²/4 - det)``. :func:`realized_ess` reports which
candidate the paper's own Euler dynamics actually reach from
``(0.5, 0.5)``. For the §VI-B constants this reproduces the paper's
four regimes in ``m``: ``(1,1)`` for small ``m``, then ``(1, Y')``,
then the interior spiral, then ``(X', 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.game.parameters import GameParameters
from repro.game.replicator import ReplicatorDynamics, Trajectory

__all__ = [
    "EssType",
    "Stability",
    "FixedPoint",
    "interior_fixed_point",
    "edge_x_prime",
    "edge_y_prime",
    "fixed_points",
    "stable_points",
    "realized_ess",
    "label_point",
]

#: Eigenvalue real parts within this of zero count as marginal.
_STABILITY_TOL = 1e-9


class EssType(Enum):
    """The paper's names for the candidate rest points (§V-E)."""

    CORNER_00 = "(0,0)"
    CORNER_01 = "(0,1)"
    CORNER_10 = "(1,0)"
    CORNER_11 = "(1,1)"
    EDGE_X1 = "(X',1)"
    EDGE_1Y = "(1,Y')"
    INTERIOR = "(X,Y)"


class Stability(Enum):
    """Linear classification of a rest point."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    SADDLE = "saddle"
    MARGINAL = "marginal"


@dataclass(frozen=True)
class FixedPoint:
    """A rest point of the replicator dynamics, classified.

    Attributes:
        x, y: coordinates in the unit square.
        ess_type: the paper's label for this candidate.
        stability: linear classification at the point.
        eigenvalues: the Jacobian's eigenvalues.
    """

    x: float
    y: float
    ess_type: EssType
    stability: Stability
    eigenvalues: Tuple[complex, complex]

    @property
    def is_ess(self) -> bool:
        """Asymptotically stable under the replicator dynamics."""
        return self.stability is Stability.STABLE

    def distance_to(self, x: float, y: float) -> float:
        """Euclidean distance from ``(x, y)``."""
        return math.hypot(self.x - x, self.y - y)


def interior_fixed_point(params: GameParameters) -> Optional[Tuple[float, float]]:
    """The §V-E interior candidate ``(X̄, Ȳ)``; ``None`` if it leaves
    the open unit square (then one of the edge/corner points takes over)."""
    q = 1.0 - params.attack_success_probability
    denom = params.k1 * params.k2 * params.m * params.xa + q * q * params.ra ** 2
    if denom <= 0:
        return None
    x = q * params.ra ** 2 / denom
    y = params.k2 * params.m * params.ra / denom
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        return None
    return (x, y)


def edge_x_prime(params: GameParameters) -> Optional[float]:
    """``X' = (1-p^m) Ra / (k2 m)`` on the ``Y = 1`` edge, if interior."""
    q = 1.0 - params.attack_success_probability
    x = q * params.ra / (params.k2 * params.m)
    return x if 0.0 < x < 1.0 else None


def edge_y_prime(params: GameParameters) -> Optional[float]:
    """``Y' = p^m Ra / (k1 xa)`` on the ``X = 1`` edge, if interior."""
    if params.xa == 0:
        return None
    y = params.attack_success_probability * params.ra / (params.k1 * params.xa)
    return y if 0.0 < y < 1.0 else None


def _eigenvalues(
    a: float, b: float, c: float, d: float
) -> Tuple[complex, complex]:
    """Eigenvalues of ``[[a, b], [c, d]]`` in closed form.

    A zero off-diagonal entry makes the matrix triangular, and the
    diagonal is returned exactly. Otherwise the roots are
    ``tr/2 ± sqrt(disc)`` with ``disc = tr²/4 - det``, written as
    ``((a - d)/2)² + bc`` so equal diagonals do not cancel; distinct real
    roots are split the way LAPACK's ``dlanv2`` splits them, so the
    smaller one keeps its relative accuracy.
    """
    if b == 0.0 or c == 0.0:
        return (complex(a), complex(d))
    half_gap = 0.5 * (a - d)
    bc = b * c
    disc = half_gap * half_gap + bc
    if disc > 0.0:
        z = half_gap + math.copysign(math.sqrt(disc), half_gap)
        return (complex(d + z), complex(d - bc / z))
    half_trace = 0.5 * (a + d)
    imag = math.sqrt(-disc)
    return (complex(half_trace, imag), complex(half_trace, -imag))


def _classify(dynamics: ReplicatorDynamics, x: float, y: float) -> Tuple[
    Stability, Tuple[complex, complex]
]:
    (a, b), (c, d) = dynamics.jacobian_entries(x, y)
    eigs = _eigenvalues(a, b, c, d)
    r1 = eigs[0].real
    r2 = eigs[1].real
    if r1 < -_STABILITY_TOL and r2 < -_STABILITY_TOL:
        stability = Stability.STABLE
    elif r1 > _STABILITY_TOL and r2 > _STABILITY_TOL:
        stability = Stability.UNSTABLE
    elif (r1 > _STABILITY_TOL and r2 < -_STABILITY_TOL) or (
        r1 < -_STABILITY_TOL and r2 > _STABILITY_TOL
    ):
        stability = Stability.SADDLE
    else:
        stability = Stability.MARGINAL
    return stability, eigs


def fixed_points(params: GameParameters) -> List[FixedPoint]:
    """Every §V-E candidate present for these parameters, classified."""
    dynamics = ReplicatorDynamics(params)
    candidates: List[Tuple[float, float, EssType]] = [
        (0.0, 0.0, EssType.CORNER_00),
        (0.0, 1.0, EssType.CORNER_01),
        (1.0, 0.0, EssType.CORNER_10),
        (1.0, 1.0, EssType.CORNER_11),
    ]
    xp = edge_x_prime(params)
    if xp is not None:
        candidates.append((xp, 1.0, EssType.EDGE_X1))
    yp = edge_y_prime(params)
    if yp is not None:
        candidates.append((1.0, yp, EssType.EDGE_1Y))
    interior = interior_fixed_point(params)
    if interior is not None:
        candidates.append((interior[0], interior[1], EssType.INTERIOR))
    points = []
    for x, y, ess_type in candidates:
        stability, eigs = _classify(dynamics, x, y)
        points.append(FixedPoint(x, y, ess_type, stability, eigs))
    return points


def stable_points(params: GameParameters) -> List[FixedPoint]:
    """The candidates that are asymptotically stable (the ESS set)."""
    return [point for point in fixed_points(params) if point.is_ess]


def _nearest_point(
    points: Iterable[FixedPoint], x: float, y: float, tol: float
) -> Optional[FixedPoint]:
    """The point nearest ``(x, y)`` within ``tol``, ``None`` when none is.

    A tie goes to the later point.
    """
    best: Optional[FixedPoint] = None
    best_distance = tol
    for point in points:
        distance = point.distance_to(x, y)
        if distance <= best_distance:
            best = point
            best_distance = distance
    return best


def label_point(
    params: GameParameters, x: float, y: float, tol: float = 1e-2
) -> Optional[EssType]:
    """Match a point (e.g. where a trajectory settled) to the nearest
    candidate within ``tol``; ``None`` when nothing is close."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise ConfigurationError(f"point ({x}, {y}) outside the unit square")
    best = _nearest_point(fixed_points(params), x, y, tol)
    return best.ess_type if best is not None else None


def realized_ess(
    params: GameParameters,
    x0: float = 0.5,
    y0: float = 0.5,
    dt: float = 0.01,
    max_steps: int = 200_000,
    method: str = "euler",
    match_tol: float = 5e-2,
) -> Tuple[Optional[FixedPoint], Trajectory]:
    """Integrate the paper's dynamics and identify the ESS it reaches.

    Returns the matched :class:`FixedPoint` (``None`` if the trajectory
    did not settle near any candidate) and the full trajectory. This is
    what the Fig. 6 bench runs for each ``m``, and what the optimizer
    uses to price the cost at the *realized* equilibrium rather than a
    merely-plausible one.
    """
    dynamics = ReplicatorDynamics(params)
    trajectory = dynamics.integrate(
        x0=x0, y0=y0, dt=dt, max_steps=max_steps, method=method, record_every=10
    )
    fx, fy = trajectory.final
    return _nearest_point(fixed_points(params), fx, fy, match_tol), trajectory
