"""Replicator dynamics of the attack-defense game (paper §V-D).

The population shares evolve by

.. math::

    dX/dt = X (1-X) [ R_a Y (1 - p^m) - k_2 m X ]

    dY/dt = Y (1-Y) [ (p^m - 1) X R_a + R_a - k_1 x_a Y ]

which are the standard replicator equations
``dX/dt = X [E(Ud) - E(d)]``, ``dY/dt = Y [E(Ua) - E(a)]`` with the
§V-C cost specifications substituted in (the test suite verifies the
closed forms against :func:`repro.game.payoff.expected_utilities`).

Integration follows the paper's §VI-B-2 update — explicit Euler with
``t = 0.01`` and shares clipped to ``(0, 1]`` — plus an RK4 alternative
for the ablation that shows the reached ESS does not depend on the
integrator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, TypeVar, Union

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError
from repro.game.parameters import GameParameters
from repro.game.payoff import expected_utilities

__all__ = [
    "PAPER_TIME_STEP",
    "PAPER_INITIAL_SHARES",
    "Trajectory",
    "ReplicatorDynamics",
    "BatchTrajectories",
    "jacobian_terms",
    "BatchedReplicator",
]

#: §VI-B-2: "where t = 0.01".
PAPER_TIME_STEP = 0.01
#: §VI-B-2: "(X, Y) = (0.5, 0.5) as the origin setting".
PAPER_INITIAL_SHARES = (0.5, 0.5)

#: Lower clip bound: the paper keeps 0 < X <= 1 so boundary fixed points
#: never freeze the dynamics from the inside.
_EPS = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """A recorded evolution of the population shares.

    Attributes:
        xs, ys: share sequences including the initial point.
        converged: whether the derivative norm fell below tolerance.
        steps: integration steps actually taken.
        dt: step size used.
        method: ``"euler"`` or ``"rk4"``.
    """

    xs: np.ndarray
    ys: np.ndarray
    converged: bool
    steps: int
    dt: float
    method: str

    @property
    def final(self) -> Tuple[float, float]:
        """The last recorded point ``(X, Y)``."""
        return (float(self.xs[-1]), float(self.ys[-1]))

    @property
    def initial(self) -> Tuple[float, float]:
        """The initial point ``(X0, Y0)``."""
        return (float(self.xs[0]), float(self.ys[0]))

    def settles_within(self, x: float, y: float, tol: float = 1e-3) -> bool:
        """Whether the trajectory ends within ``tol`` of ``(x, y)``."""
        fx, fy = self.final
        return abs(fx - x) <= tol and abs(fy - y) <= tol


#: A share, or an array of them.
Shares = TypeVar("Shares", float, np.ndarray)


def jacobian_terms(
    ra: float, k1xa: float, k2m: Shares, q: Shares, x: Shares, y: Shares
) -> Tuple[Tuple[Shares, Shares], Tuple[Shares, Shares]]:
    """The replicator field's Jacobian, row-major ``((df/dx, df/dy),
    (dg/dx, dg/dy))``, at shares ``(x, y)``.

    ``k2m = k2·m``, ``k1xa = k1·xa`` and ``q = 1 - p^m``. Plain
    arithmetic, so it takes floats or broadcastable arrays alike, and
    each array element equals the float result bit for bit. This is the
    one place the formula lives: :meth:`ReplicatorDynamics.jacobian_entries`
    evaluates one point, :func:`repro.game.ess.rest_points` a whole
    ``(candidates, m)`` grid. A rest point is asymptotically stable (an
    ESS of the dynamics) when every eigenvalue has negative real part.
    """
    bracket_x = ra * y * q - k2m * x
    bracket_y = ra - q * x * ra - k1xa * y
    dfdx = (1.0 - 2.0 * x) * bracket_x - x * (1.0 - x) * k2m
    dfdy = x * (1.0 - x) * ra * q
    dgdx = y * (1.0 - y) * (-ra * q)
    dgdy = (1.0 - 2.0 * y) * bracket_y - y * (1.0 - y) * k1xa
    return ((dfdx, dfdy), (dgdx, dgdy))


class ReplicatorDynamics:
    """The game's replicator vector field plus integrators.

    Args:
        params: the game instance (fixed ``p`` and ``m``).
    """

    def __init__(self, params: GameParameters) -> None:
        self._params = params

    @property
    def params(self) -> GameParameters:
        """The game instance."""
        return self._params

    # ------------------------------------------------------------------
    # vector field

    def derivatives(self, x: float, y: float) -> Tuple[float, float]:
        """Closed-form ``(dX/dt, dY/dt)`` from §V-D."""
        p = self._params
        q = 1.0 - p.attack_success_probability  # 1 - p^m
        dx = x * (1.0 - x) * (p.ra * y * q - p.k2 * p.m * x)
        dy = y * (1.0 - y) * (-q * x * p.ra + p.ra - p.k1 * p.xa * y)
        return (dx, dy)

    def derivatives_batch(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`derivatives` over same-shape share arrays.

        One numpy expression instead of ``x.size`` Python calls — this
        is what phase portraits sample their vector field with. The
        arithmetic is written in the exact operation order of the
        scalar form, so each element equals the scalar result bit for
        bit.
        """
        p = self._params
        q = 1.0 - p.attack_success_probability
        k2m = p.k2 * p.m
        k1xa = p.k1 * p.xa
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        dx = x * (1.0 - x) * (p.ra * y * q - k2m * x)
        dy = y * (1.0 - y) * (-q * x * p.ra + p.ra - k1xa * y)
        return (dx, dy)

    def derivatives_from_utilities(self, x: float, y: float) -> Tuple[float, float]:
        """``(dX/dt, dY/dt)`` computed from the §V-D expectations.

        Mathematically identical to :meth:`derivatives`; kept as an
        independent implementation so tests can cross-check the algebra.
        """
        u = expected_utilities(self._params, x, y)
        return (x * (u.defend - u.defender_mean), y * (u.attack - u.attacker_mean))

    def jacobian_entries(
        self, x: float, y: float
    ) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        """Analytic Jacobian of the vector field at ``(x, y)``, as floats.

        Row-major ``((df/dx, df/dy), (dg/dx, dg/dy))``; one cell of
        :func:`jacobian_terms`.
        """
        p = self._params
        return jacobian_terms(
            p.ra, p.k1 * p.xa, p.k2 * p.m, 1.0 - p.attack_success_probability, x, y
        )

    def jacobian(self, x: float, y: float) -> np.ndarray:
        """:meth:`jacobian_entries` as a ``2 × 2`` array."""
        return np.array(self.jacobian_entries(x, y), dtype=float)

    # ------------------------------------------------------------------
    # integration

    @staticmethod
    def _clip(value: float) -> float:
        """Keep a share in ``(0, 1]`` as the paper's update does."""
        return min(max(value, _EPS), 1.0)

    def step_euler(self, x: float, y: float, dt: float) -> Tuple[float, float]:
        """One explicit-Euler step (the paper's §VI-B-2 update rule)."""
        dx, dy = self.derivatives(x, y)
        return (self._clip(x + dx * dt), self._clip(y + dy * dt))

    def step_rk4(self, x: float, y: float, dt: float) -> Tuple[float, float]:
        """One classical Runge-Kutta step (integrator ablation)."""
        k1x, k1y = self.derivatives(x, y)
        k2x, k2y = self.derivatives(
            self._clip(x + 0.5 * dt * k1x), self._clip(y + 0.5 * dt * k1y)
        )
        k3x, k3y = self.derivatives(
            self._clip(x + 0.5 * dt * k2x), self._clip(y + 0.5 * dt * k2y)
        )
        k4x, k4y = self.derivatives(
            self._clip(x + dt * k3x), self._clip(y + dt * k3y)
        )
        nx = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
        ny = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
        return (self._clip(nx), self._clip(ny))

    def integrate(
        self,
        x0: float = PAPER_INITIAL_SHARES[0],
        y0: float = PAPER_INITIAL_SHARES[1],
        dt: float = PAPER_TIME_STEP,
        max_steps: int = 200_000,
        tol: float = 1e-10,
        method: str = "euler",
        record_every: int = 1,
        raise_on_divergence: bool = False,
    ) -> Trajectory:
        """Integrate from ``(x0, y0)`` until the field vanishes.

        Args:
            dt: step size (paper: 0.01).
            max_steps: step budget.
            tol: convergence threshold on ``|dX| + |dY|`` (per unit
                time, i.e. on the derivative norm).
            method: ``"euler"`` (paper) or ``"rk4"``.
            record_every: trajectory subsampling stride (1 = keep all).
            raise_on_divergence: raise :class:`ConvergenceError` instead
                of returning an unconverged trajectory.

        Returns:
            the recorded :class:`Trajectory`.
        """
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
        if method not in ("euler", "rk4"):
            raise ConfigurationError(f"unknown method {method!r}")
        if record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {record_every}"
            )
        step = self.step_euler if method == "euler" else self.step_rk4
        x = self._clip(float(x0))
        y = self._clip(float(y0))
        xs: List[float] = [x]
        ys: List[float] = [y]
        converged = False
        steps_taken = 0
        for i in range(1, max_steps + 1):
            x, y = step(x, y, dt)
            steps_taken = i
            if i % record_every == 0:
                xs.append(x)
                ys.append(y)
            dx, dy = self.derivatives(x, y)
            if abs(dx) + abs(dy) < tol:
                converged = True
                break
        if xs[-1] != x or ys[-1] != y:
            xs.append(x)
            ys.append(y)
        if not converged and raise_on_divergence:
            raise ConvergenceError(
                f"replicator dynamics did not converge in {max_steps} steps"
                f" (p={self._params.p}, m={self._params.m})"
            )
        return Trajectory(
            xs=np.asarray(xs),
            ys=np.asarray(ys),
            converged=converged,
            steps=steps_taken,
            dt=dt,
            method=method,
        )


# ----------------------------------------------------------------------
# batched kernel


@dataclass(frozen=True)
class BatchTrajectories:
    """A whole grid of trajectories integrated as one array.

    Attributes:
        final_x, final_y: where each cell's trajectory ended, ``(n,)``.
        converged: per-cell convergence flags.
        steps: per-cell steps taken until convergence (or the budget).
        xs, ys: recorded history ``(records, n)`` including the initial
            row — only present when ``record_every`` was requested.
        dt, method: integration settings (shared by every cell).

    Converged cells are *frozen*: once a cell's derivative norm falls
    below tolerance it stops being stepped, so its recorded history and
    final point are exactly what a scalar integration of that cell
    alone would have produced.
    """

    final_x: np.ndarray
    final_y: np.ndarray
    converged: np.ndarray
    steps: np.ndarray
    dt: float
    method: str
    xs: Optional[np.ndarray] = None
    ys: Optional[np.ndarray] = None
    record_every: Optional[int] = None

    def __len__(self) -> int:
        return int(self.final_x.shape[0])

    @property
    def all_converged(self) -> bool:
        """Whether every cell's field vanished within the budget."""
        return bool(self.converged.all())

    def final(self, i: int) -> Tuple[float, float]:
        """Cell ``i``'s endpoint ``(X, Y)``."""
        return (float(self.final_x[i]), float(self.final_y[i]))

    def trajectory(self, i: int) -> Trajectory:
        """Cell ``i`` as a scalar :class:`Trajectory`.

        Requires ``record_every``; reproduces the scalar recording rule
        (samples at multiples of ``record_every`` up to the cell's own
        convergence step, final point appended when it differs).
        """
        if self.xs is None or self.ys is None or self.record_every is None:
            raise ConfigurationError(
                "trajectory() needs integrate(record_every=...) history"
            )
        rows = 1 + int(self.steps[i]) // self.record_every
        xs = list(self.xs[:rows, i])
        ys = list(self.ys[:rows, i])
        if xs[-1] != self.final_x[i] or ys[-1] != self.final_y[i]:
            xs.append(float(self.final_x[i]))
            ys.append(float(self.final_y[i]))
        return Trajectory(
            xs=np.asarray(xs, dtype=float),
            ys=np.asarray(ys, dtype=float),
            converged=bool(self.converged[i]),
            steps=int(self.steps[i]),
            dt=self.dt,
            method=self.method,
        )


class BatchedReplicator:
    """Vectorized replicator kernel over a grid of game cells.

    Each cell is its own :class:`GameParameters` instance — a different
    ``m``, a different ``p``, or the same game started from a different
    origin — and the whole grid advances as one numpy array per Euler
    (or RK4) step instead of ``n`` Python-level scalar loops. The §V-D
    field only enters through four per-cell constants (``Ra``,
    ``1 - p^m``, ``k2·m``, ``k1·xa``), all precomputed here with scalar
    Python arithmetic so every element of the batch matches the scalar
    kernel bit for bit.

    Args:
        cells: one game instance per grid cell.
    """

    def __init__(self, cells: Sequence[GameParameters]) -> None:
        cells = tuple(cells)
        if not cells:
            raise ConfigurationError("cells must be non-empty")
        self._cells = cells
        self._ra = np.array([c.ra for c in cells], dtype=float)
        self._q = np.array(
            [1.0 - c.attack_success_probability for c in cells], dtype=float
        )
        self._k2m = np.array([c.k2 * c.m for c in cells], dtype=float)
        self._k1xa = np.array([c.k1 * c.xa for c in cells], dtype=float)

    @classmethod
    def uniform(cls, params: GameParameters, count: int) -> "BatchedReplicator":
        """One game, ``count`` cells — for grids of ``(X0, Y0)`` origins."""
        if count < 1:
            raise ConfigurationError(f"count must be >= 1, got {count}")
        return cls((params,) * count)

    @property
    def cells(self) -> Tuple[GameParameters, ...]:
        """The per-cell game instances."""
        return self._cells

    @property
    def size(self) -> int:
        """Number of grid cells."""
        return len(self._cells)

    # ------------------------------------------------------------------
    # vector field over the active subset

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

    def _step_euler(
        self, x: np.ndarray, y: np.ndarray, dt: float, sel: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        dx, dy = self._derivs(x, y, sel)
        return (self._clip(x + dx * dt), self._clip(y + dy * dt))

    def _step_rk4(
        self, x: np.ndarray, y: np.ndarray, dt: float, sel: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
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

    # ------------------------------------------------------------------
    # integration

    def integrate(
        self,
        x0: Union[float, Sequence[float], np.ndarray] = PAPER_INITIAL_SHARES[0],
        y0: Union[float, Sequence[float], np.ndarray] = PAPER_INITIAL_SHARES[1],
        dt: float = PAPER_TIME_STEP,
        max_steps: int = 200_000,
        tol: float = 1e-10,
        method: str = "euler",
        record_every: Optional[int] = None,
        raise_on_divergence: bool = False,
    ) -> BatchTrajectories:
        """Integrate every cell simultaneously until its field vanishes.

        Cells that converge are removed from the active set (their
        shares freeze), so a grid where most cells settle quickly costs
        little more than its slowest cell. Arguments mirror
        :meth:`ReplicatorDynamics.integrate`; ``x0``/``y0`` may be
        scalars (shared origin) or per-cell arrays.

        Args:
            record_every: when set, record every cell's shares at that
                step stride (``None`` keeps only endpoints — the right
                default for large grids).
        """
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        if max_steps < 1:
            raise ConfigurationError(f"max_steps must be >= 1, got {max_steps}")
        if method not in ("euler", "rk4"):
            raise ConfigurationError(f"unknown method {method!r}")
        if record_every is not None and record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {record_every}"
            )
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
