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
    "TAIL_CELLS",
]

#: §VI-B-2: "where t = 0.01".
PAPER_TIME_STEP = 0.01
#: §VI-B-2: "(X, Y) = (0.5, 0.5) as the origin setting".
PAPER_INITIAL_SHARES = (0.5, 0.5)

#: Lower clip bound: the paper keeps 0 < X <= 1 so boundary fixed points
#: never freeze the dynamics from the inside.
_EPS = 1e-12

#: ``1`` and ``_EPS`` as read-only 0-d arrays for the array phase's
#: ufunc calls: the same values, without a Python float to convert on
#: every call.
_ONE = np.array(1.0)
_EPS_ARRAY = np.array(_EPS)
_ONE.flags.writeable = False
_EPS_ARRAY.flags.writeable = False

#: Active cells at or below which :meth:`BatchedReplicator.integrate`
#: stops stepping arrays and finishes each remaining cell with
#: Python-float steps. A NumPy Euler step costs fifteen ufunc calls
#: however few lanes are left, a float step about 0.4 µs per cell; the
#: value comes from a threshold sweep (CHANGES.md).
TAIL_CELLS = 40


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
    each array element equals the float result bit for bit. RK4 stages
    evaluate the field through it; Euler's two phases write out the same
    operations in the same order, :func:`_lane_field` on stacked rows
    and :func:`_finish_cell` on floats.
    """
    dx = x * (1.0 - x) * (ra * y * q - k2m * x)
    dy = y * (1.0 - y) * (-q * x * ra + ra - k1xa * y)
    return (dx, dy)


def _clip_share(value: float) -> float:
    """Keep a share in ``(0, 1]`` as the paper's update does."""
    return min(max(value, _EPS), 1.0)


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
    """The game's replicator vector field, its Jacobian and one-cell integration.

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

        A one-cell :meth:`BatchedReplicator.integrate` run (which steps a
        single cell with Python floats), returned as its
        :meth:`BatchTrajectories.trajectory`.

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
        trajectory = BatchedReplicator((self._params,)).integrate(
            x0=x0,
            y0=y0,
            dt=dt,
            max_steps=max_steps,
            tol=tol,
            method=method,
            record_every=record_every,
        ).trajectory(0)
        if not trajectory.converged and raise_on_divergence:
            raise ConvergenceError(
                f"replicator dynamics did not converge in {max_steps} steps"
                f" (p={self._params.p}, m={self._params.m})"
            )
        return trajectory


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
    final point are exactly what integrating that cell alone would
    have produced.
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
        xs = self.xs[:rows, i]
        ys = self.ys[:rows, i]
        if xs[-1] != self.final_x[i] or ys[-1] != self.final_y[i]:
            xs = np.append(xs, self.final_x[i])
            ys = np.append(ys, self.final_y[i])
        return Trajectory(
            xs=np.array(xs, dtype=float),
            ys=np.array(ys, dtype=float),
            converged=bool(self.converged[i]),
            steps=int(self.steps[i]),
            dt=self.dt,
            method=self.method,
        )


class BatchedReplicator:
    """Vectorized replicator kernel over a grid of game cells.

    Each cell is its own :class:`GameParameters` instance — a different
    ``m``, a different ``p``, or the same game started from a different
    origin — and the grid advances as one numpy array per Euler (or
    RK4) step while it is wide, then cell by cell once it thins (see
    :meth:`integrate`). This is the module's one integrator;
    :meth:`ReplicatorDynamics.integrate` is its one-cell call. The §V-D
    field only enters through four per-cell constants (``Ra``,
    ``1 - p^m``, ``k2·m``, ``k1·xa``), all precomputed here with scalar
    Python arithmetic so array and float steps agree bit for bit.

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
        little more than its slowest cell. While more than
        :data:`TAIL_CELLS` cells are active they step as arrays; the
        rest then finish one at a time with Python-float steps, which
        cost less than a NumPy step over a few lanes. Both phases take
        the same steps on the same values, so each cell's endpoint,
        step count and history are those of the cell integrated alone.
        Arguments mirror :meth:`ReplicatorDynamics.integrate`;
        ``x0``/``y0`` may be scalars (shared origin) or per-cell arrays.

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
        h = float(dt)
        rk4 = method == "rk4"
        stride = record_every or 0
        # The active cells as compact arrays: their indices, their shares
        # as rows (X, Y), the field's constants, and the field at their
        # shares, which is both the convergence test's value and the
        # next step's slope (RK4's first stage). They shrink only when
        # cells converge; shares are scattered back when a cell
        # converges, at record steps and when the array phase ends.
        ra, q, k2m, k1xa = self._terms
        cells = np.arange(n)
        shares = np.stack((x, y))
        slope = np.empty_like(shares)
        coef = np.stack((ra, -q, q, ra, k2m, k1xa))
        field_args, size, total = _lanes(shares, slope, coef)
        norm = total[2]
        _lane_field(*field_args)
        h0 = np.array(h)  # as _ONE: converted once, not per step
        fmin = np.fmin.reduce
        step = 0
        if n > TAIL_CELLS:
            for step in range(1, max_steps + 1):
                if rk4:
                    shares[0], shares[1] = _rk4_from(
                        partial(_field, coef[3], coef[2], coef[4], coef[5]),
                        clip,
                        shares[0],
                        shares[1],
                        slope[0],
                        slope[1],
                        h,
                    )
                else:
                    np.multiply(slope, h0, out=slope)
                    np.add(shares, slope, out=shares)
                    np.maximum(shares, _EPS_ARRAY, out=shares)
                    np.minimum(shares, _ONE, out=shares)
                if stride and step % stride == 0:
                    x[cells] = shares[0]
                    y[cells] = shares[1]
                    history_x.append(x.copy())
                    history_y.append(y.copy())
                _lane_field(*field_args)
                np.absolute(slope, out=size)
                np.add(*total)
                # fmin skips NaN, so a NaN lane cannot hide a converged one.
                if fmin(norm) < tol:
                    done = norm < tol
                    finished = cells[done]
                    x[finished] = shares[0, done]
                    y[finished] = shares[1, done]
                    steps[finished] = step
                    converged[finished] = True
                    keep = ~done
                    cells = cells[keep]
                    shares, slope, coef = shares[:, keep], slope[:, keep], coef[:, keep]
                    field_args, size, total = _lanes(shares, slope, coef)
                    norm = total[2]
                    if cells.size <= TAIL_CELLS:
                        break
        # The scalar tail: each cell still moving finishes alone, from
        # the step after the array phase's last, with its shares and
        # slope as Python floats.
        tail = []
        for lane, cell in enumerate(cells.tolist()):
            record_x: List[float] = []
            record_y: List[float] = []
            steps[cell], converged[cell], x[cell], y[cell] = _finish_cell(
                tuple(float(term[cell]) for term in self._terms),
                float(shares[0, lane]),
                float(shares[1, lane]),
                float(slope[0, lane]),
                float(slope[1, lane]),
                step + 1,
                max_steps,
                h,
                tol,
                rk4,
                stride,
                record_x,
                record_y,
            )
            tail.append((cell, record_x, record_y))
        if raise_on_divergence and not converged.all():
            stuck = np.nonzero(~converged)[0]
            raise ConvergenceError(
                f"{stuck.size} of {n} cells did not converge in"
                f" {max_steps} steps (first stuck cell: {int(stuck[0])})"
            )
        xs = ys = None
        if stride:
            # Rows run to the last step any cell took; a cell's rows past
            # its own last step hold its endpoint.
            rows = 1 + int(steps.max()) // stride
            head = len(history_x)
            xs = np.empty((rows, n))
            ys = np.empty((rows, n))
            xs[:head] = history_x
            ys[:head] = history_y
            xs[head:] = x
            ys[head:] = y
            for cell, record_x, record_y in tail:
                xs[head : head + len(record_x), cell] = record_x
                ys[head : head + len(record_y), cell] = record_y
        return BatchTrajectories(
            final_x=x,
            final_y=y,
            converged=converged,
            steps=steps,
            dt=dt,
            method=method,
            xs=xs,
            ys=ys,
            record_every=record_every,
        )


def _lanes(
    shares: np.ndarray, slope: np.ndarray, coef: np.ndarray
) -> Tuple[Tuple[np.ndarray, ...], np.ndarray, Tuple[np.ndarray, ...]]:
    """What the array phase steps ``k`` active cells with.

    ``shares`` and ``slope`` are ``(2, k)``, rows X and Y; ``coef`` is
    ``(6, k)``, rows ``(Ra, -q, q, Ra, k2·m, k1·xa)`` with ``q = 1 - p^m``.
    Returns :func:`_lane_field`'s arguments (it writes the field at
    ``shares`` into ``slope``), the ``(2, k)`` scratch that takes
    ``|slope|``, and ``np.add``'s arguments that sum its rows into the
    ``(k,)`` norm, its last. Views are taken here, once per active set,
    not once per step.
    """
    k = shares.shape[1]
    size = np.empty((2, k))
    spare = np.empty((2, k))
    field_args = (
        shares, shares[::-1], coef[0:2], coef[2:4], coef[3], coef[4:6],
        slope, slope[1], size, spare,
    )
    return field_args, size, (size[0], size[1], np.empty(k))


def _lane_field(
    shares: np.ndarray,
    flipped: np.ndarray,
    lead: np.ndarray,
    trail: np.ndarray,
    ra: np.ndarray,
    rate: np.ndarray,
    out: np.ndarray,
    out_y: np.ndarray,
    w1: np.ndarray,
    w2: np.ndarray,
) -> None:
    """:func:`_field` over shares stacked as rows ``(X, Y)``, into ``out``.

    ``flipped`` is ``shares`` with its rows swapped and ``out_y`` is
    ``out``'s Y row; ``lead``, ``trail`` and ``rate`` hold per cell
    ``(Ra, -q)``, ``(q, Ra)`` and ``(k2·m, k1·xa)``; ``w1`` and ``w2``
    are scratch. The products and sums are :func:`_field`'s in its
    order, so each element equals the float result bit for bit, in
    eight ufunc calls for both rows.
    """
    np.subtract(_ONE, shares, out=w1)
    np.multiply(shares, w1, out=w1)  # X(1-X), Y(1-Y)
    np.multiply(lead, flipped, out=out)  # Ra·Y, -q·X
    np.multiply(out, trail, out=out)  # Ra·Y·q, -q·X·Ra
    np.add(out_y, ra, out=out_y)  # -q·X·Ra + Ra
    np.multiply(rate, shares, out=w2)  # k2·m·X, k1·xa·Y
    np.subtract(out, w2, out=out)
    np.multiply(w1, out, out=out)


def _finish_cell(
    terms: Tuple[float, float, float, float],
    x: float,
    y: float,
    dx: float,
    dy: float,
    first: int,
    max_steps: int,
    dt: float,
    tol: float,
    rk4: bool,
    stride: int,
    record_x: List[float],
    record_y: List[float],
) -> Tuple[int, bool, float, float]:
    """Steps ``first..max_steps`` of one cell with Python floats.

    ``terms`` are the cell's ``(Ra, 1 - p^m, k2·m, k1·xa)`` and
    ``(dx, dy)`` the field at ``(x, y)``. Shares at multiples of a
    non-zero ``stride`` go to ``record_x``/``record_y``. Returns the
    last step taken, whether the field vanished there, and the shares.
    """
    if rk4:
        field = partial(_field, *terms)
        for i in range(first, max_steps + 1):
            x, y = _rk4_from(field, _clip_share, x, y, dx, dy, dt)
            if stride and i % stride == 0:
                record_x.append(x)
                record_y.append(y)
            dx, dy = field(x, y)
            if abs(dx) + abs(dy) < tol:
                return (i, True, x, y)
        return (max_steps, False, x, y)
    # Euler, the paper's method and the hot loop: the clip and
    # :func:`_field` written out, the same operations in the same order
    # (NaN included) at about a third of the cost of calling ``min``,
    # ``max`` and :func:`_field`.
    ra, q, k2m, k1xa = terms
    eps = _EPS
    for i in range(first, max_steps + 1):
        x += dx * dt
        if x < eps:
            x = eps
        elif x > 1.0:
            x = 1.0
        y += dy * dt
        if y < eps:
            y = eps
        elif y > 1.0:
            y = 1.0
        if stride and i % stride == 0:
            record_x.append(x)
            record_y.append(y)
        dx = x * (1.0 - x) * (ra * y * q - k2m * x)
        dy = y * (1.0 - y) * (-q * x * ra + ra - k1xa * y)
        if abs(dx) + abs(dy) < tol:
            return (i, True, x, y)
    return (max_steps, False, x, y)
