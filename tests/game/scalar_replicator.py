"""Two replicator loops kept as oracles.

:class:`GatheredReplicator` is the batched loop as it was before it
carried its derivative from one step to the next: every step gathers
the active cells' four constants by index, evaluates the field once to
step and once more at the new point for the convergence test, and
scatters the new shares back into full-width arrays.

:func:`scalar_integrate` is the one-cell loop
:meth:`repro.game.replicator.ReplicatorDynamics.integrate` ran before it
became a one-cell :class:`~repro.game.replicator.BatchedReplicator`
call: Python floats, the field carried as the next step's slope.

``tests/game/test_replicator_batch.py`` pins
:meth:`~repro.game.replicator.BatchedReplicator.integrate` to the first
and ``ReplicatorDynamics.integrate`` to the second: equal endpoints,
steps, convergence flags and recorded history, bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConvergenceError
from repro.game.parameters import GameParameters
from repro.game.replicator import BatchTrajectories, Trajectory

_EPS = 1e-12


class GatheredReplicator:
    """The old :class:`~repro.game.replicator.BatchedReplicator` body
    (argument validation left out: the tests pass valid settings)."""

    def __init__(self, cells: Sequence[GameParameters]) -> None:
        cells = tuple(cells)
        self._ra = np.array([c.ra for c in cells], dtype=float)
        self._q = np.array(
            [1.0 - c.attack_success_probability for c in cells], dtype=float
        )
        self._k2m = np.array([c.k2 * c.m for c in cells], dtype=float)
        self._k1xa = np.array([c.k1 * c.xa for c in cells], dtype=float)
        self.size = len(cells)

    def _derivs(
        self, x: np.ndarray, y: np.ndarray, sel: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        ra = self._ra[sel]
        q = self._q[sel]
        k2m = self._k2m[sel]
        k1xa = self._k1xa[sel]
        dx = x * (1.0 - x) * (ra * y * q - k2m * x)
        dy = y * (1.0 - y) * (-q * x * ra + ra - k1xa * y)
        return (dx, dy)

    @staticmethod
    def _clip(values: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(values, _EPS), 1.0)

    def _step_euler(self, x, y, dt, sel):
        dx, dy = self._derivs(x, y, sel)
        return (self._clip(x + dx * dt), self._clip(y + dy * dt))

    def _step_rk4(self, x, y, dt, sel):
        k1x, k1y = self._derivs(x, y, sel)
        k2x, k2y = self._derivs(
            self._clip(x + 0.5 * dt * k1x), self._clip(y + 0.5 * dt * k1y), sel
        )
        k3x, k3y = self._derivs(
            self._clip(x + 0.5 * dt * k2x), self._clip(y + 0.5 * dt * k2y), sel
        )
        k4x, k4y = self._derivs(
            self._clip(x + dt * k3x), self._clip(y + dt * k3y), sel
        )
        nx = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        ny = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        return (self._clip(nx), self._clip(ny))

    def integrate(
        self,
        x0: Union[float, Sequence[float], np.ndarray] = 0.5,
        y0: Union[float, Sequence[float], np.ndarray] = 0.5,
        dt: float = 0.01,
        max_steps: int = 200_000,
        tol: float = 1e-10,
        method: str = "euler",
        record_every: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> BatchTrajectories:
        n = self.size
        x = self._clip(np.broadcast_to(np.asarray(x0, dtype=float), (n,)).copy())
        y = self._clip(np.broadcast_to(np.asarray(y0, dtype=float), (n,)).copy())
        step = self._step_euler if method == "euler" else self._step_rk4
        steps = np.zeros(n, dtype=np.int64)
        converged = np.zeros(n, dtype=bool)
        active = np.arange(n)
        history_x: List[np.ndarray] = [x.copy()] if record_every else []
        history_y: List[np.ndarray] = [y.copy()] if record_every else []
        for i in range(1, max_steps + 1):
            nx, ny = step(x[active], y[active], dt, active)
            x[active] = nx
            y[active] = ny
            steps[active] = i
            if record_every is not None and i % record_every == 0:
                history_x.append(x.copy())
                history_y.append(y.copy())
            dx, dy = self._derivs(nx, ny, active)
            done = np.abs(dx) + np.abs(dy) < tol
            if done.any():
                converged[active[done]] = True
                active = active[~done]
            if active.size == 0:
                break
        if raise_on_divergence and not converged.all():
            stuck = np.nonzero(~converged)[0]
            raise ConvergenceError(
                f"{stuck.size} of {n} cells did not converge in"
                f" {max_steps} steps (first stuck cell: {int(stuck[0])})"
            )
        return BatchTrajectories(
            final_x=x,
            final_y=y,
            converged=converged,
            steps=steps,
            dt=dt,
            method=method,
            xs=np.asarray(history_x) if record_every else None,
            ys=np.asarray(history_y) if record_every else None,
            record_every=record_every,
        )


def _clip_share(value: float) -> float:
    return min(max(value, _EPS), 1.0)


def scalar_integrate(
    params: GameParameters,
    x0: float = 0.5,
    y0: float = 0.5,
    dt: float = 0.01,
    max_steps: int = 200_000,
    tol: float = 1e-10,
    method: str = "euler",
    record_every: int = 1,
) -> Trajectory:
    """The old ``ReplicatorDynamics.integrate`` body (argument checks
    and ``raise_on_divergence`` left out: the tests pass valid settings
    and read the flags)."""
    ra = float(params.ra)
    q = float(1.0 - params.attack_success_probability)
    k2m = float(params.k2 * params.m)
    k1xa = float(params.k1 * params.xa)

    def field(x: float, y: float) -> Tuple[float, float]:
        dx = x * (1.0 - x) * (ra * y * q - k2m * x)
        dy = y * (1.0 - y) * (-q * x * ra + ra - k1xa * y)
        return (dx, dy)

    clip = _clip_share
    x = clip(float(x0))
    y = clip(float(y0))
    xs: List[float] = [x]
    ys: List[float] = [y]
    converged = False
    steps_taken = 0
    dx, dy = field(x, y)
    for i in range(1, max_steps + 1):
        if method == "rk4":
            k2x, k2y = field(clip(x + 0.5 * dt * dx), clip(y + 0.5 * dt * dy))
            k3x, k3y = field(clip(x + 0.5 * dt * k2x), clip(y + 0.5 * dt * k2y))
            k4x, k4y = field(clip(x + dt * k3x), clip(y + dt * k3y))
            x = clip(x + dt * (dx + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0)
            y = clip(y + dt * (dy + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0)
        else:
            x = min(max(x + dx * dt, _EPS), 1.0)
            y = min(max(y + dy * dt, _EPS), 1.0)
        steps_taken = i
        if i % record_every == 0:
            xs.append(x)
            ys.append(y)
        dx, dy = field(x, y)
        if abs(dx) + abs(dy) < tol:
            converged = True
            break
    if xs[-1] != x or ys[-1] != y:
        xs.append(x)
        ys.append(y)
    return Trajectory(
        xs=np.asarray(xs),
        ys=np.asarray(ys),
        converged=converged,
        steps=steps_taken,
        dt=dt,
        method=method,
    )
