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
from functools import partial
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

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


def _field(
    ra: float, q: float, k2m: Shares, k1xa: Shares, x: Shares, y: Shares
) -> Tuple[Shares, Shares]:
    """The §V-D field ``(dX/dt, dY/dt)`` at shares ``(x, y)``.

    ``q = 1 - p^m``, ``k2m = k2·m`` and ``k1xa = k1·xa``. Like
    :func:`jacobian_terms` it takes floats or broadcastable arrays, and
    each array element equals the float result bit for bit; every
    integrator in this module evaluates the field through it.
    """
    dx = x * (1.0 - x) * (ra * y * q - k2m * x)
    dy = y * (1.0 - y) * (-q * x * ra + ra - k1xa * y)
    return (dx, dy)


def _rk4_from(
    field: Callable[[Shares, Shares], Tuple[Shares, Shares]],
    clip: Callable[[Shares], Shares],
    x: Shares,
    y: Shares,
    k1x: Shares,
    k1y: Shares,
    dt: float,
) -> Tuple[Shares, Shares]:
    """One classical Runge-Kutta step from ``(x, y)`` whose first stage
    ``(k1x, k1y)``, the field at ``(x, y)``, is already known."""
    k2x, k2y = field(clip(x + 0.5 * dt * k1x), clip(y + 0.5 * dt * k1y))
    k3x, k3y = field(clip(x + 0.5 * dt * k2x), clip(y + 0.5 * dt * k2y))
    k4x, k4y = field(clip(x + dt * k3x), clip(y + dt * k3y))
    nx = x + dt * (k1x + 2.0 * k2x + 2.0 * k3x + k4x) / 6.0
    ny = y + dt * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
    return (clip(nx), clip(ny))


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
        #: ``(Ra, 1 - p^m, k2·m, k1·xa)``: the constants the field reads.
        self._terms = (
            params.ra,
            1.0 - params.attack_success_probability,
            params.k2 * params.m,
            params.k1 * params.xa,
        )

    @property
    def params(self) -> GameParameters:
        """The game instance."""
        return self._params

    # ------------------------------------------------------------------
    # vector field

    def derivatives(self, x: float, y: float) -> Tuple[float, float]:
        """Closed-form ``(dX/dt, dY/dt)`` from §V-D."""
        return _field(*self._terms, x, y)

    def derivatives_batch(
        self, x: np.ndarray, y: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`derivatives` over same-shape share arrays.

        One numpy expression instead of ``x.size`` Python calls — this
        is what phase portraits sample their vector field with. Each
        element equals the scalar result bit for bit.
        """
        return _field(
            *self._terms, np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        )

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
        ra, q, k2m, k1xa = self._terms
        return jacobian_terms(ra, k1xa, k2m, q, x, y)

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
        return _rk4_from(self.derivatives, self._clip, x, y, k1x, k1y, dt)

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
        # The field's constants as Python floats: the same values, and
        # cheaper scalar arithmetic than NumPy scalars when p is one.
        field = partial(_field, *(float(term) for term in self._terms))
        clip = self._clip
        rk4 = method == "rk4"
        x = clip(float(x0))
        y = clip(float(y0))
        xs: List[float] = [x]
        ys: List[float] = [y]
        converged = False
        steps_taken = 0
        # The field at the current point: the convergence test's value
        # is the next step's slope (RK4's first stage).
        dx, dy = field(x, y)
        for i in range(1, max_steps + 1):
            if rk4:
                x, y = _rk4_from(field, clip, x, y, dx, dy, dt)
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
        #: Per cell ``(Ra, 1 - p^m, k2·m, k1·xa)``, as in
        #: :class:`ReplicatorDynamics`.
        self._terms = tuple(
            np.array(column, dtype=float)
            for column in zip(*(ReplicatorDynamics(c)._terms for c in cells))
        )

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

    @staticmethod
    def _clip(values: np.ndarray) -> np.ndarray:
        return np.minimum(np.maximum(values, _EPS), 1.0)

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
        clip = self._clip
        x = clip(np.broadcast_to(np.asarray(x0, dtype=float), (n,)).copy())
        y = clip(np.broadcast_to(np.asarray(y0, dtype=float), (n,)).copy())
        steps = np.zeros(n, dtype=np.int64)
        converged = np.zeros(n, dtype=bool)
        history_x: List[np.ndarray] = [x.copy()] if record_every else []
        history_y: List[np.ndarray] = [y.copy()] if record_every else []
        # The active cells as compact arrays: their indices, shares and
        # field constants, and the field at their shares, which is both
        # the convergence test's value and the next step's slope (RK4's
        # first stage). They shrink only when cells converge; shares
        # are scattered back when a cell converges, at record steps and
        # at the end.
        cells = np.arange(n)
        terms = self._terms
        ax, ay = x, y
        dx, dy = _field(*terms, ax, ay)
        for i in range(1, max_steps + 1):
            if method == "rk4":
                ax, ay = _rk4_from(partial(_field, *terms), clip, ax, ay, dx, dy, dt)
            else:
                ax = clip(ax + dx * dt)
                ay = clip(ay + dy * dt)
            if record_every is not None and i % record_every == 0:
                x[cells] = ax
                y[cells] = ay
                history_x.append(x.copy())
                history_y.append(y.copy())
            dx, dy = _field(*terms, ax, ay)
            done = np.abs(dx) + np.abs(dy) < tol
            if done.any():
                finished = cells[done]
                x[finished] = ax[done]
                y[finished] = ay[done]
                steps[finished] = i
                converged[finished] = True
                keep = ~done
                cells = cells[keep]
                ax, ay, dx, dy = ax[keep], ay[keep], dx[keep], dy[keep]
                if cells.size == 0:
                    break
                terms = tuple(term[keep] for term in terms)
        x[cells] = ax
        y[cells] = ay
        steps[cells] = max_steps
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
