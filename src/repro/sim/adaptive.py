"""Closed-loop game-guided defense inside the simulator.

:class:`AdaptiveReceiverNode` is a DAP receiver node that periodically
re-runs Algorithm 3 against its *own* reveal-time observations and
resizes its buffer count live — the paper's mechanism operating
end-to-end: estimate ``p`` from the reservoir, solve the game, deploy
the recommendation, repeat.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.game.adaptive import AdaptiveDefense
from repro.protocols.dap import DapReceiver
from repro.sim.events import Simulator
from repro.sim.nodes import ReceiverNode
from repro.timesync.intervals import IntervalSchedule

__all__ = ["Reconfiguration", "AdaptiveReceiverNode"]


@dataclass(frozen=True)
class Reconfiguration:
    """One policy decision in the node's history."""

    time: float
    estimated_p: float
    buffers: int


class AdaptiveReceiverNode(ReceiverNode):
    """A DAP receiver that steers its own buffer count by the game.

    Args:
        name / simulator / receiver: as :class:`ReceiverNode` (the
            receiver must be a :class:`DapReceiver` — it provides both
            ``observations`` and ``resize_buffers``).
        policy: the Algorithm 3 policy (owns the estimator).
        clock_offset / clock_drift: local clock skew.
    """

    def __init__(
        self,
        name: str,
        simulator: Simulator,
        receiver: DapReceiver,
        policy: AdaptiveDefense,
        clock_offset: float = 0.0,
        clock_drift: float = 0.0,
    ) -> None:
        super().__init__(
            name, simulator, receiver, clock_offset=clock_offset,
            clock_drift=clock_drift,
        )
        self._simulator = simulator
        self._policy = policy
        self._observation_cursor = 0
        self.history: List[Reconfiguration] = []

    @property
    def policy(self) -> AdaptiveDefense:
        """The node's game policy."""
        return self._policy

    @property
    def dap_receiver(self) -> DapReceiver:
        """The wrapped receiver, typed."""
        receiver = self.receiver
        assert isinstance(receiver, DapReceiver)
        return receiver

    def schedule_reconfiguration(
        self,
        schedule: IntervalSchedule,
        intervals: int,
        every: int = 1,
    ) -> None:
        """Schedule policy re-runs at the end of every ``every`` intervals."""
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        for interval in range(every, intervals + 1, every):
            # Just before the interval boundary, after its reveals landed.
            when = schedule.end_of(interval) - schedule.duration * 1e-6
            self._simulator.schedule(when, self._reconfigure)

    def _reconfigure(self) -> None:
        receiver = self.dap_receiver
        observations = receiver.observations
        for _interval, stored, matched in observations[self._observation_cursor:]:
            self._policy.estimator.observe_interval(stored, matched)
        self._observation_cursor = len(observations)
        buffers = self._policy.recommended_buffers()
        receiver.resize_buffers(buffers)
        self.history.append(
            Reconfiguration(
                time=self._simulator.now,
                estimated_p=self._policy.current_p,
                buffers=buffers,
            )
        )
