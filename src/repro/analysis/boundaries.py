"""Analytic regime boundaries of the evolutionary game.

The paper reports the four ESS regimes for p = 0.8 as empirical bands
(m = 1-11, 12-17, 18-54, 55-100). The band edges are actually roots of
the §V-E stability conditions, so they can be computed for *any*
attack level:

- ``(1,1) -> (1,Y')``: the corner loses stability when ``Y'`` enters
  the simplex, i.e. ``p^m Ra = k1 xa`` — closed form
  ``m = log(k1 p / Ra) / log(p)`` (using ``xa = p``).
- ``(1,Y') -> (X̄,Ȳ)``: the edge point loses stability when
  ``Ra (1-p^m) Y' = k2 m`` — transcendental, solved by bisection.
- ``(X̄,Ȳ) -> (X',1)``: the interior point exits through ``Ȳ = 1``,
  ``k2 m Ra = k1 k2 m xa + (1-p^m)^2 Ra^2`` — bisection.

These power the Fig. 6/7 analyses without sweeping every ``m``, and
the test suite pins them against the numeric stability classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.game.parameters import GameParameters

__all__ = [
    "RegimeBoundaries",
    "corner_to_edge_boundary",
    "edge_to_interior_boundary",
    "interior_to_give_up_boundary",
    "regime_boundaries",
    "numeric_band_mismatches",
]


def _check_open_p(params: GameParameters) -> None:
    if not 0.0 < params.p < 1.0:
        raise ConfigurationError(
            f"regime boundaries need p in (0, 1), got {params.p}"
        )


def _bisect(
    fn: Callable[[float], float], lo: float, hi: float, iterations: int = 200
) -> Optional[float]:
    """Root of ``fn`` in [lo, hi] by bisection; ``None`` if no sign change."""
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        return None
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def corner_to_edge_boundary(params: GameParameters) -> float:
    """Real-valued ``m`` where (1,1) hands over to (1,Y').

    Closed form from ``p^m Ra = k1 xa``: the corner is stable for all
    integer ``m`` strictly below this value.
    """
    _check_open_p(params)
    ratio = params.k1 * params.xa / params.ra
    if ratio >= 1.0:
        raise ConfigurationError(
            "k1·xa >= Ra violates the paper's Ra > Ca assumption"
        )
    return math.log(ratio) / math.log(params.p)


def edge_to_interior_boundary(params: GameParameters) -> Optional[float]:
    """Real-valued ``m`` where (1,Y') hands over to the interior point.

    Root of the (1,Y') stability condition
    ``Ra (1 - p^m) Y'(m) = k2 m`` with ``Y' = p^m Ra / (k1 xa)``.
    """
    _check_open_p(params)

    def gap(m: float) -> float:
        pm = params.p ** m
        y_prime = pm * params.ra / (params.k1 * params.xa)
        return params.ra * (1.0 - pm) * y_prime - params.k2 * m

    lower = corner_to_edge_boundary(params)
    return _bisect(gap, lower + 1e-9, 10_000.0)


def interior_to_give_up_boundary(params: GameParameters) -> Optional[float]:
    """Real-valued ``m`` where the interior point exits through Ȳ = 1.

    The condition ``Ȳ < 1`` reads ``g(m) < 0`` with
    ``g(m) = k2 m Ra - k1 k2 m xa - (1-p^m)^2 Ra^2``; ``g`` has two
    roots (it is positive for tiny ``m``, negative through the interior
    regime, and grows linearly for large ``m``). The regime hand-over is
    the *upper* root, so we bracket from inside the interior band.
    """
    _check_open_p(params)

    def gap(m: float) -> float:
        q = 1.0 - params.p ** m
        return (
            params.k2 * m * params.ra
            - params.k1 * params.k2 * m * params.xa
            - q * q * params.ra ** 2
        )

    lower = edge_to_interior_boundary(params)
    probe = (lower or 1.0) + 1e-6
    # walk right until we are inside the interior band (g < 0)
    for _ in range(64):
        if gap(probe) < 0:
            break
        probe += max(probe, 1.0)
        if probe > 10_000.0:
            return None
    else:
        return None
    return _bisect(gap, probe, 1_000_000.0)


@dataclass(frozen=True)
class RegimeBoundaries:
    """The three band edges for one attack level (real-valued ``m``).

    The integer bands follow by flooring: e.g. (1,1) is the ESS for
    ``m <= floor(corner_to_edge)``.
    """

    p: float
    corner_to_edge: float
    edge_to_interior: Optional[float]
    interior_to_give_up: Optional[float]

    def band_of(self, m: int) -> str:
        """Which analytic regime an integer ``m`` falls in.

        Ordered so that the test also works at extreme attack levels
        where the middle bands collapse (the boundaries then interleave
        and one or both intermediate regimes are empty).
        """
        if m <= self.corner_to_edge:
            return "(1,1)"
        if self.interior_to_give_up is not None and m > self.interior_to_give_up:
            return "(X',1)"
        if self.edge_to_interior is not None and m > self.edge_to_interior:
            return "(X,Y)"
        return "(1,Y')"


def regime_boundaries(params: GameParameters) -> RegimeBoundaries:
    """All three band edges for ``params.p``."""
    return RegimeBoundaries(
        p=params.p,
        corner_to_edge=corner_to_edge_boundary(params),
        edge_to_interior=edge_to_interior_boundary(params),
        interior_to_give_up=interior_to_give_up_boundary(params),
    )


def numeric_band_mismatches(
    params: GameParameters,
    m_values: Sequence[int],
    x0: float = 0.5,
    y0: float = 0.5,
    dt: float = 0.01,
    max_steps: int = 200_000,
) -> List[int]:
    """``m`` values whose analytic band disagrees with the dynamics.

    Cross-validates :func:`regime_boundaries` against the paper's own
    Euler iteration: the whole ``m`` grid integrates as one
    :class:`~repro.game.replicator.BatchedReplicator` batch and each
    endpoint's §V-E label, from one :func:`~repro.game.ess.rest_points`
    sweep, is compared with :meth:`RegimeBoundaries.band_of`.
    An empty list means the closed forms and the simulation agree
    everywhere; the known Euler clipping artifact (EXPERIMENTS.md F-6)
    shows up as one or two ``m`` hugging the ``(1,Y')``/interior edge.
    """
    from repro.game.ess import rest_points
    from repro.game.replicator import BatchedReplicator

    if not m_values:
        raise ConfigurationError("m_values must be non-empty")
    bands = regime_boundaries(params)
    cells = [params.with_m(m) for m in m_values]
    batch = BatchedReplicator(cells).integrate(
        x0=x0, y0=y0, dt=dt, max_steps=max_steps
    )
    points = rest_points(params, m_values)
    mismatches: List[int] = []
    for index, m in enumerate(m_values):
        fx, fy = batch.final(index)
        label = points.label(index, fx, fy, tol=5e-2)
        realized = label.value if label is not None else None
        if realized != bands.band_of(m):
            mismatches.append(m)
    return mismatches
