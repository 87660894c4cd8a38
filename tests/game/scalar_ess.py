"""Scalar §V-E rest-point classifier, kept as a test oracle.

One cell at a time, with plain floats: the four corners, ``X'``, ``Y'``
and the interior point, the analytic Jacobian, closed-form ``2 × 2``
eigenvalues and the stability rule. ``repro.game.ess.rest_points``
classifies a whole ``m`` sweep as array code and must equal this cell
by cell, bit for bit. LAPACK (``np.linalg.eigvals``) checks both.
Also here: the one-cell equilibrium rule of Algorithm 3 (the unique
stable candidate, else the dynamics fallback) and the defender cost.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

from repro.game.ess import _STABILITY_TOL, EssType, FixedPoint, Stability
from repro.game.parameters import GameParameters

Fallback = Callable[
    [GameParameters, List[FixedPoint]], Tuple[float, float, Optional[EssType]]
]


def interior_fixed_point(params: GameParameters) -> Optional[Tuple[float, float]]:
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
    q = 1.0 - params.attack_success_probability
    x = q * params.ra / (params.k2 * params.m)
    return x if 0.0 < x < 1.0 else None


def edge_y_prime(params: GameParameters) -> Optional[float]:
    if params.xa == 0:
        return None
    y = params.attack_success_probability * params.ra / (params.k1 * params.xa)
    return y if 0.0 < y < 1.0 else None


def jacobian_entries(
    params: GameParameters, x: float, y: float
) -> Tuple[Tuple[float, float], Tuple[float, float]]:
    ra = params.ra
    q = 1.0 - params.attack_success_probability
    k2m = params.k2 * params.m
    k1xa = params.k1 * params.xa
    bracket_x = ra * y * q - k2m * x
    bracket_y = ra - q * x * ra - k1xa * y
    dfdx = (1.0 - 2.0 * x) * bracket_x - x * (1.0 - x) * k2m
    dfdy = x * (1.0 - x) * ra * q
    dgdx = y * (1.0 - y) * (-ra * q)
    dgdy = (1.0 - 2.0 * y) * bracket_y - y * (1.0 - y) * k1xa
    return ((dfdx, dfdy), (dgdx, dgdy))


def eigenvalues(a: float, b: float, c: float, d: float) -> Tuple[complex, complex]:
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


def classify(
    params: GameParameters, x: float, y: float
) -> Tuple[Stability, Tuple[complex, complex]]:
    (a, b), (c, d) = jacobian_entries(params, x, y)
    eigs = eigenvalues(a, b, c, d)
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
        stability, eigs = classify(params, x, y)
        points.append(FixedPoint(x, y, ess_type, stability, eigs))
    return points


def solve(
    params: GameParameters, fallback: Fallback
) -> Tuple[float, float, Optional[EssType]]:
    """Algorithm 3's equilibrium for one cell: the unique stable
    candidate, else ``fallback(params, stable)``."""
    stable = [point for point in fixed_points(params) if point.is_ess]
    if len(stable) == 1:
        return (stable[0].x, stable[0].y, stable[0].ess_type)
    return fallback(params, stable)


def defense_cost(params: GameParameters, x: float, y: float) -> float:
    q = 1.0 - params.attack_success_probability
    return params.k2 * params.m * x * x + (1.0 - q * x) * params.ra * y
