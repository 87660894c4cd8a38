"""Loss processes for the broadcast channel.

The paper evaluates "low QoS channels", and real wireless loss is
*bursty*, not i.i.d. — fades and interference kill runs of consecutive
packets. That matters here: multi-level μTESLA sends redundant CDM
copies precisely to survive loss, and a burst can take out every copy
at once, which is the failure mode EFTP's and EDRP's recovery paths
exist for. Two processes:

:class:`BernoulliLoss`
    Independent drops with fixed probability — the default model.
:class:`GilbertElliottLoss`
    The classic two-state Markov burst model: a GOOD state with low
    loss and a BAD state with high loss, with geometric sojourn times.
    Parameterised either directly or via
    :meth:`GilbertElliottLoss.from_average` (target average loss +
    mean burst length), so ablations can hold the average constant and
    vary only the burstiness.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "LossProcess",
    "BernoulliLoss",
    "GilbertElliottLoss",
    "bernoulli_drop_mask",
    "gilbert_elliott_drop_mask",
]


class LossProcess(ABC):
    """A stateful per-link loss decision process."""

    @abstractmethod
    def should_drop(self, rng: random.Random) -> bool:
        """Decide one delivery; may advance internal channel state."""

    @abstractmethod
    def average_loss(self) -> float:
        """The long-run loss probability of the process."""


class BernoulliLoss(LossProcess):
    """Independent loss with fixed probability (the memoryless model)."""

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {probability}"
            )
        self._probability = probability

    def should_drop(self, rng: random.Random) -> bool:
        return rng.random() < self._probability

    def average_loss(self) -> float:
        return self._probability


class GilbertElliottLoss(LossProcess):
    """Two-state Markov burst-loss channel.

    Args:
        p_good_to_bad: per-delivery probability of entering a fade.
        p_bad_to_good: per-delivery probability of the fade ending
            (mean burst length = ``1 / p_bad_to_good`` deliveries).
        loss_good: loss probability while GOOD (often ~0).
        loss_bad: loss probability while BAD (often ~1).
    """

    def __init__(
        self,
        p_good_to_bad: float,
        p_bad_to_good: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> None:
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        if p_bad_to_good == 0.0 and p_good_to_bad > 0.0:
            raise ConfigurationError("a fade must be able to end (p_bad_to_good > 0)")
        self._g2b = p_good_to_bad
        self._b2g = p_bad_to_good
        self._loss_good = loss_good
        self._loss_bad = loss_bad
        self._bad = False

    @classmethod
    def from_average(
        cls,
        average_loss: float,
        mean_burst: float,
        loss_good: float = 0.0,
        loss_bad: float = 1.0,
    ) -> "GilbertElliottLoss":
        """Build a channel with a target average loss and burst length.

        The stationary BAD share ``π`` solves
        ``average = π·loss_bad + (1-π)·loss_good``; the transition
        rates follow from ``π`` and ``mean_burst = 1 / p_bad_to_good``.
        """
        if not math.isfinite(average_loss) or not 0.0 <= average_loss < 1.0:
            raise ConfigurationError(
                f"average_loss must be in [0, 1), got {average_loss}"
            )
        if not math.isfinite(mean_burst) or mean_burst < 1.0:
            raise ConfigurationError(
                f"mean_burst must be finite and >= 1, got {mean_burst}"
            )
        if loss_bad <= loss_good:
            raise ConfigurationError("need loss_bad > loss_good")
        pi_bad = (average_loss - loss_good) / (loss_bad - loss_good)
        if not 0.0 <= pi_bad <= 1.0:
            raise ConfigurationError(
                f"average_loss {average_loss} unreachable with"
                f" loss_good={loss_good}, loss_bad={loss_bad}"
            )
        b2g = 1.0 / mean_burst
        if pi_bad >= 1.0:
            g2b = 1.0
        else:
            g2b = min(b2g * pi_bad / (1.0 - pi_bad), 1.0)
        return cls(g2b, b2g, loss_good, loss_bad)

    @property
    def in_fade(self) -> bool:
        """Whether the channel is currently in the BAD state."""
        return self._bad

    @property
    def p_good_to_bad(self) -> float:
        return self._g2b

    @property
    def p_bad_to_good(self) -> float:
        return self._b2g

    @property
    def loss_good(self) -> float:
        return self._loss_good

    @property
    def loss_bad(self) -> float:
        return self._loss_bad

    def stationary_bad_share(self) -> float:
        """Long-run fraction of time spent in the BAD state."""
        total = self._g2b + self._b2g
        if total == 0.0:
            return 0.0
        return self._g2b / total

    def average_loss(self) -> float:
        pi = self.stationary_bad_share()
        return pi * self._loss_bad + (1.0 - pi) * self._loss_good

    def should_drop(self, rng: random.Random) -> bool:
        # advance the channel state, then draw the loss
        if self._bad:
            if rng.random() < self._b2g:
                self._bad = False
        else:
            if rng.random() < self._g2b:
                self._bad = True
        loss = self._loss_bad if self._bad else self._loss_good
        return rng.random() < loss


def bernoulli_drop_mask(uniforms: np.ndarray, probability: float) -> np.ndarray:
    """Vectorized :meth:`BernoulliLoss.should_drop` over a uniform array.

    ``uniforms`` holds one pre-drawn ``rng.random()`` value per decision
    (the scalar path draws one even at ``probability == 0``); any shape
    is accepted and preserved.
    """
    if not 0.0 <= probability <= 1.0:
        raise ConfigurationError(
            f"probability must be in [0, 1], got {probability}"
        )
    return np.asarray(uniforms, dtype=np.float64) < probability


def gilbert_elliott_drop_mask(
    uniforms: np.ndarray,
    p_good_to_bad: float,
    p_bad_to_good: float,
    loss_good: float = 0.0,
    loss_bad: float = 1.0,
    initial_bad: np.ndarray | None = None,
    return_state: bool = False,
) -> "np.ndarray | tuple[np.ndarray, np.ndarray]":
    """Vectorized Gilbert–Elliott sampling over many independent lanes.

    ``uniforms`` has shape ``(steps, lanes, 2)``: per decision, draw 0
    is the state transition and draw 1 the loss — the exact consumption
    order of :meth:`GilbertElliottLoss.should_drop`, so feeding the
    pre-drawn stream of a ``random.Random`` reproduces the scalar
    per-lane drop sequence bit for bit. Every lane starts GOOD, as a
    fresh :class:`GilbertElliottLoss` does, unless ``initial_bad`` (a
    ``(lanes,)`` boolean array) resumes each lane mid-stream — the seam
    block-wise mask generators use to process an unbounded step axis in
    bounded memory. Returns a ``(steps, lanes)`` boolean drop mask, or
    a ``(drops, final_bad)`` pair when ``return_state`` is true so the
    caller can carry the per-lane channel state into the next block.
    Long, narrow inputs are cut into segments along the step axis and
    resolved exactly (see :func:`_segmented_drops`), so few lanes do not
    cost one round of NumPy calls per step.
    """
    u = np.asarray(uniforms, dtype=np.float64)
    if u.ndim != 3 or u.shape[2] != 2:
        raise ConfigurationError(
            f"uniforms must have shape (steps, lanes, 2), got {u.shape}"
        )
    steps, lanes, _ = u.shape
    if initial_bad is None:
        bad = np.zeros(lanes, dtype=bool)
    else:
        bad = np.asarray(initial_bad, dtype=bool)
        if bad.shape != (lanes,):
            raise ConfigurationError(
                f"initial_bad must have shape ({lanes},), got {bad.shape}"
            )
        bad = bad.copy()
    drops = np.empty((steps, lanes), dtype=bool)
    params = (p_good_to_bad, p_bad_to_good, loss_good, loss_bad)
    bad = _segmented_drops(u, bad, params, drops)
    if return_state:
        return drops, bad
    return drops


#: Lanes one NumPy call of the per-step body should cover. Narrow
#: inputs (few lanes, many steps) are cut into segments along the step
#: axis until a step spans about this many lanes, so the Python loop
#: runs once per segment step instead of once per step.
_SEGMENT_LANES = 4096

#: Running both start states doubles the element work, so fewer runs
#: than this save too few calls to pay for it: inputs wider than
#: ``_SEGMENT_LANES / (2 * _MIN_SEGMENTS)`` lanes keep a single run.
_MIN_SEGMENTS = 4


def _segmented_drops(
    u: np.ndarray,
    bad: np.ndarray,
    params: Tuple[float, float, float, float],
    drops: np.ndarray,
) -> np.ndarray:
    """Fill ``drops`` for ``u`` starting from ``bad``; return the end state.

    The step axis is cut into ``segments`` equal runs of ``length``
    steps. Each run is simulated from both start states at once (GOOD
    and BAD, as extra lanes); the true start state of run ``s`` is the
    end state of run ``s - 1`` from *its* true start, which a short
    sequential pass over the runs resolves before the matching rows are
    selected. Every decision uses the same comparisons on the same
    uniforms as the one-run loop, so the result is exact. The fewer
    than ``segments`` steps left over after the last run recurse from
    the resolved end state.
    """
    steps, lanes, _ = u.shape
    segments = min(steps, _SEGMENT_LANES // max(2 * lanes, 1))
    if segments < _MIN_SEGMENTS:
        return _run_steps(u, bad, params, drops)
    length = steps // segments
    covered = segments * length
    # (length, segments, lanes, 2) view: step j of every run at once.
    runs = u[:covered].reshape(segments, length, lanes, 2).swapaxes(0, 1)
    starts = np.zeros((2, segments, lanes), dtype=bool)
    starts[1] = True
    both = np.empty((length, 2, segments, lanes), dtype=bool)
    ends = _run_steps(runs, starts, params, both)
    chosen = np.empty((segments, lanes), dtype=bool)
    state = bad
    for segment in range(segments):
        chosen[segment] = state
        state = np.where(state, ends[1, segment], ends[0, segment])
    # Row s * length + j of ``drops`` is run s, step j.
    out = drops[:covered].reshape(segments, length, lanes).swapaxes(0, 1)
    np.copyto(out, both[:, 0])
    np.copyto(out, both[:, 1], where=chosen)
    return _segmented_drops(u[covered:], state, params, drops[covered:])


def _run_steps(
    u: np.ndarray,
    bad: np.ndarray,
    params: Tuple[float, float, float, float],
    drops: np.ndarray,
) -> np.ndarray:
    """One Gilbert–Elliott step per row of ``u``; returns the end state.

    ``u[step, ..., 0]`` must broadcast against ``bad``; ``drops[step]``
    receives the drop decisions of that step in ``bad``'s shape.
    """
    p_good_to_bad, p_bad_to_good, loss_good, loss_bad = params
    for step in range(u.shape[0]):
        transition = u[step, ..., 0]
        # BAD lanes leave the fade when transition < b2g; GOOD lanes
        # enter one when transition < g2b.
        bad = np.where(bad, transition >= p_bad_to_good, transition < p_good_to_bad)
        loss = np.where(bad, loss_bad, loss_good)
        drops[step] = u[step, ..., 1] < loss
    return bad
