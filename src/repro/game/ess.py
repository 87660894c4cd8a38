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
Jacobian is ``2 × 2``, so its eigenvalues are taken in closed form:
exactly the diagonal when an off-diagonal entry is zero (every corner
and both edge families), otherwise ``tr/2 ± sqrt(tr²/4 - det)``.

Algorithm 3 and the Fig. 6-8 sweeps classify every ``m`` of a sweep at
one attack level, so :func:`rest_points` does exactly that as array
code: one :class:`RestPoints` grid of ``(candidate, m)`` cells, or, with
a ``p`` per cell, cells of the whole ``(p, m)`` plane. Only the
interior candidate's Jacobian needs the general eigenvalue formula:
every corner and edge point has ``x`` or ``y`` at 0 or 1, where the
Jacobian is triangular. It is the only classifier; :func:`fixed_points`, :func:`stable_points`,
:func:`label_point` and the candidate formulas are one-cell views of
it. :func:`realized_ess` reports which candidate the paper's own Euler
dynamics actually reach from ``(0.5, 0.5)``. For the §VI-B constants
this reproduces the paper's four regimes in ``m``: ``(1,1)`` for small
``m``, then ``(1, Y')``, then the interior spiral, then ``(X', 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.game.parameters import GameParameters
from repro.game.replicator import ReplicatorDynamics, Trajectory, jacobian_terms

__all__ = [
    "EssType",
    "Stability",
    "FixedPoint",
    "CANDIDATES",
    "RestPoints",
    "rest_points",
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


#: The §V-E candidates in the order every view lists them: row ``r``
#: of a :class:`RestPoints` grid is candidate ``CANDIDATES[r]``.
CANDIDATES: Tuple[EssType, ...] = (
    EssType.CORNER_00,
    EssType.CORNER_01,
    EssType.CORNER_10,
    EssType.CORNER_11,
    EssType.EDGE_X1,
    EssType.EDGE_1Y,
    EssType.INTERIOR,
)
_X1, _1Y, _INTERIOR = 4, 5, 6
#: Corner coordinates, rows ``CANDIDATES[:4]``.
_CORNER_X = np.array([[0.0], [0.0], [1.0], [1.0]])
_CORNER_Y = np.array([[0.0], [1.0], [0.0], [1.0]])

#: :attr:`RestPoints.stability` codes, by index.
_STABILITIES: Tuple[Stability, ...] = (
    Stability.STABLE,
    Stability.UNSTABLE,
    Stability.SADDLE,
    Stability.MARGINAL,
)


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


@dataclass(frozen=True, eq=False)
class RestPoints:
    """Every §V-E candidate of a grid of games, classified: one ``m``
    sweep at a fixed ``p``, or cells of the ``(p, m)`` plane.

    The arrays are ``(candidates, cells)``: row ``r`` is
    ``CANDIDATES[r]`` and column ``i`` is ``m[i]``. Where ``present`` is
    ``False`` the candidate left the open unit square and the other
    entries are meaningless.

    Attributes:
        m: the swept buffer counts.
        attack: each cell's attack success probability ``p^m``.
        x, y: candidate coordinates.
        present: whether the candidate exists in that cell.
        stability: index into ``(STABLE, UNSTABLE, SADDLE, MARGINAL)``.
        eigenvalues: the Jacobian's two eigenvalues, on a last axis.
    """

    m: Tuple[int, ...]
    attack: np.ndarray
    x: np.ndarray
    y: np.ndarray
    present: np.ndarray
    stability: np.ndarray
    eigenvalues: np.ndarray

    @property
    def stable(self) -> np.ndarray:
        """Which candidates are asymptotically stable (the ESS set)."""
        return self.present & (self.stability == 0)

    def fixed_points(self, index: int) -> List[FixedPoint]:
        """Cell ``index``'s candidates, in candidate order."""
        return self._points(index, self.present[:, index])

    def stable_points(self, index: int) -> List[FixedPoint]:
        """Cell ``index``'s stable candidates, in candidate order."""
        return self._points(index, self.stable[:, index])

    def label(
        self, index: int, x: float, y: float, tol: float = 1e-2
    ) -> Optional[EssType]:
        """Cell ``index``'s candidate nearest ``(x, y)`` within ``tol``
        (a tie goes to the later candidate); ``None`` when none is."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ConfigurationError(f"point ({x}, {y}) outside the unit square")
        best = _nearest_point(self.fixed_points(index), x, y, tol)
        return best.ess_type if best is not None else None

    def _points(self, index: int, keep: np.ndarray) -> List[FixedPoint]:
        xs = self.x[:, index].tolist()
        ys = self.y[:, index].tolist()
        codes = self.stability[:, index].tolist()
        eigs = self.eigenvalues[:, index].tolist()
        return [
            FixedPoint(
                xs[row],
                ys[row],
                CANDIDATES[row],
                _STABILITIES[codes[row]],
                (eigs[row][0], eigs[row][1]),
            )
            for row in np.flatnonzero(keep).tolist()
        ]


def _candidates(
    base: GameParameters,
    m_values: Sequence[int],
    p_values: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(p^m, m, xa, x, y, present)`` for every candidate of a grid.

    Cell ``i`` is ``(p_values[i], m_values[i])``, with ``base.p`` for
    every cell when ``p_values`` is ``None``. Each element is computed
    with the operations, in the order, of the one-cell formulas in the
    module docstring, so it equals the float evaluation bit for bit;
    ``p^m`` is Python's ``**`` per cell, on ``p`` as given.
    """
    if not m_values:
        raise ConfigurationError("m_values must be non-empty")
    if min(m_values) < 1:
        raise ConfigurationError(f"m must be >= 1, got {min(m_values)}")
    if p_values is None:
        p_values = [base.p] * len(m_values)
    elif len(p_values) != len(m_values):
        raise ConfigurationError(
            f"{len(p_values)} attack levels for {len(m_values)} buffer counts"
        )
    attack = np.array([p ** m for p, m in zip(p_values, m_values)], dtype=float)
    xa = np.array(p_values, dtype=float)
    if not np.all((0.0 <= xa) & (xa <= 1.0)):
        raise ConfigurationError("attack levels must lie in [0, 1]")
    m = np.array(m_values, dtype=float)
    q = 1.0 - attack
    ra, k1, k2 = base.ra, base.k1, base.k2
    x = np.empty((len(CANDIDATES), m.size))
    y = np.empty_like(x)
    present = np.ones(x.shape, dtype=bool)
    x[:_X1] = _CORNER_X
    y[:_X1] = _CORNER_Y
    # Candidates outside the square may divide by zero; they are masked.
    with np.errstate(all="ignore"):
        x[_X1] = q * ra / (k2 * m)
        y[_X1] = 1.0
        x[_1Y] = 1.0
        y[_1Y] = np.where(xa != 0, attack * ra / (k1 * xa), 0.0)
        denom = k1 * k2 * m * xa + q * q * ra ** 2
        x[_INTERIOR] = q * ra ** 2 / denom
        y[_INTERIOR] = k2 * m * ra / denom
    present[_X1] = (0.0 < x[_X1]) & (x[_X1] < 1.0)
    present[_1Y] = (0.0 < y[_1Y]) & (y[_1Y] < 1.0) & (xa != 0)
    present[_INTERIOR] = (
        (denom > 0)
        & (0.0 < x[_INTERIOR]) & (x[_INTERIOR] < 1.0)
        & (0.0 < y[_INTERIOR]) & (y[_INTERIOR] < 1.0)
    )
    return attack, m, xa, x, y, present


def _eigenvalues(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray
) -> np.ndarray:
    """Eigenvalues of ``[[a, b], [c, d]]`` elementwise, in closed form,
    stacked on a new last axis.

    A zero off-diagonal entry makes the matrix triangular, and the
    diagonal is returned exactly. Otherwise the roots are
    ``tr/2 ± sqrt(disc)`` with ``disc = tr²/4 - det``, written as
    ``((a - d)/2)² + bc`` so equal diagonals do not cancel; distinct real
    roots are split the way LAPACK's ``dlanv2`` splits them, so the
    smaller one keeps its relative accuracy, and a negative ``disc``
    gives the complex pair ``tr/2 ± i·sqrt(-disc)``.
    """
    triangular = (b == 0.0) | (c == 0.0)
    half_gap = 0.5 * (a - d)
    bc = b * c
    disc = half_gap * half_gap + bc
    split = ~triangular & (disc > 0.0)
    pair = ~triangular & ~(disc > 0.0)
    z = half_gap + np.copysign(np.sqrt(disc), half_gap)
    half_trace = 0.5 * (a + d)
    imag = np.sqrt(-disc)
    first = np.where(triangular, a, np.where(split, d + z, half_trace))
    second = np.where(triangular, d, np.where(split, d - bc / z, half_trace))
    out = np.empty(a.shape + (2,), dtype=complex)
    out.real[..., 0] = first
    out.real[..., 1] = second
    out.imag[..., 0] = np.where(pair, imag, 0.0)
    out.imag[..., 1] = np.where(pair, -imag, 0.0)
    return out


def _stability_codes(eigenvalues: np.ndarray) -> np.ndarray:
    """:attr:`RestPoints.stability` code per eigenvalue pair, from the
    real parts: both below ``-tol`` stable, else both above ``tol``
    unstable, else one each way a saddle, else (a real part within
    ``tol`` of zero) marginal."""
    real = eigenvalues.real
    neg = real < -_STABILITY_TOL
    pos = real > _STABILITY_TOL
    neg1, neg2 = neg[..., 0], neg[..., 1]
    pos1, pos2 = pos[..., 0], pos[..., 1]
    return np.where(
        neg1 & neg2, 0,
        np.where(pos1 & pos2, 1, np.where(pos1 & neg2 | neg1 & pos2, 2, 3)),
    ).astype(np.int8)


def rest_points(
    base: GameParameters,
    m_values: Sequence[int],
    p_values: Optional[Sequence[float]] = None,
) -> RestPoints:
    """Every §V-E candidate of ``base`` at each ``m`` in ``m_values``
    (``base.m`` is ignored), classified in one array pass.

    With ``p_values``, cell ``i`` is the game at attack level
    ``p_values[i]`` and ``m_values[i]`` instead (``base.p`` is ignored
    too): a whole ``(p, m)`` plane, flattened into one row of cells.

    Each cell equals the one-cell classification of its game
    (``base.with_p(p).with_m(m)``) bit for bit: coordinates,
    eigenvalues and stability.
    """
    attack, m, xa, x, y, present = _candidates(base, m_values, p_values)
    # Every cell is evaluated, absent candidates too (their NaNs and
    # infinities are masked by ``present``), so silence their warnings.
    with np.errstate(all="ignore"):
        (a, b), (c, d) = jacobian_terms(
            base.ra, base.k1 * xa, base.k2 * m, 1.0 - attack, x, y
        )
        # A corner or edge point has x or y at 0 or 1, which zeroes an
        # off-diagonal entry: its Jacobian is triangular and its
        # eigenvalues are the diagonal. Only the interior point needs
        # the general formula.
        eigenvalues = np.zeros(x.shape + (2,), dtype=complex)
        eigenvalues.real[..., 0] = a
        eigenvalues.real[..., 1] = d
        eigenvalues[_INTERIOR] = _eigenvalues(
            a[_INTERIOR], b[_INTERIOR], c[_INTERIOR], d[_INTERIOR]
        )
    return RestPoints(
        m=tuple(m_values),
        attack=attack,
        x=x,
        y=y,
        present=present,
        stability=_stability_codes(eigenvalues),
        eigenvalues=eigenvalues,
    )


def _one_cell(params: GameParameters, row: int) -> Optional[Tuple[float, float]]:
    """Candidate ``row`` of ``params`` alone; ``None`` when absent."""
    _, _, _, x, y, present = _candidates(params, (params.m,))
    if not present[row, 0]:
        return None
    return (float(x[row, 0]), float(y[row, 0]))


def interior_fixed_point(params: GameParameters) -> Optional[Tuple[float, float]]:
    """The §V-E interior candidate ``(X̄, Ȳ)``; ``None`` if it leaves
    the open unit square (then one of the edge/corner points takes over)."""
    return _one_cell(params, _INTERIOR)


def edge_x_prime(params: GameParameters) -> Optional[float]:
    """``X' = (1-p^m) Ra / (k2 m)`` on the ``Y = 1`` edge, if interior."""
    point = _one_cell(params, _X1)
    return point[0] if point is not None else None


def edge_y_prime(params: GameParameters) -> Optional[float]:
    """``Y' = p^m Ra / (k1 xa)`` on the ``X = 1`` edge, if interior."""
    point = _one_cell(params, _1Y)
    return point[1] if point is not None else None


def fixed_points(params: GameParameters) -> List[FixedPoint]:
    """Every §V-E candidate present for these parameters, classified."""
    return rest_points(params, (params.m,)).fixed_points(0)


def stable_points(params: GameParameters) -> List[FixedPoint]:
    """The candidates that are asymptotically stable (the ESS set)."""
    return rest_points(params, (params.m,)).stable_points(0)


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
    return rest_points(params, (params.m,)).label(0, x, y, tol)


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
