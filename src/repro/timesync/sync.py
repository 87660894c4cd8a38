"""Loose time synchronisation and the TESLA security condition.

TESLA's security rests on one check: a packet carrying ``MAC_{K_i}`` is
*safe* only if, at the moment it arrives, the sender cannot possibly
have disclosed ``K_i`` yet. With disclosure delay ``d`` intervals, key
``K_i`` is disclosed during interval ``i + d``; the receiver therefore
needs an upper bound on the sender's current interval and must verify
``upper_bound_interval < i + d``.

The paper's Algorithm 2 writes the check as "discard when ``i + d < x``"
(``x`` = receiver's current interval index under loose sync); note the
published inequality is permissive at the boundary ``x == i + d`` —
exactly the interval in which the key is being disclosed. We implement
the conservative textbook condition by default and expose the paper's
literal variant behind a flag so the difference can be tested and
ablated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError, SecurityConditionError
from repro.timesync.intervals import IntervalSchedule

__all__ = ["LooseTimeSync", "SecurityCondition"]


@dataclass(frozen=True)
class LooseTimeSync:
    """A bound on receiver-to-sender clock error.

    Attributes:
        max_offset: maximum seconds by which the sender's clock may be
            ahead of the receiver's. Loose sync only needs this one-sided
            bound; the receiver adds it to its own reading to get an
            upper bound on sender time.
    """

    max_offset: float

    def __post_init__(self) -> None:
        if self.max_offset < 0:
            raise ConfigurationError(
                f"max_offset must be >= 0, got {self.max_offset}"
            )

    def sender_time_upper_bound(self, receiver_time: float) -> float:
        """Latest time the sender's clock could read right now."""
        return receiver_time + self.max_offset

    def sender_interval_upper_bound(
        self, receiver_time: float, schedule: IntervalSchedule
    ) -> int:
        """Latest interval the sender could currently be in."""
        return schedule.index_at(self.sender_time_upper_bound(receiver_time))


@dataclass(frozen=True)
class SecurityCondition:
    """The TESLA safe-packet test for a given schedule and sync bound.

    Attributes:
        schedule: the interval schedule shared by sender and receivers.
        sync: the loose-synchronisation bound.
        disclosure_delay: ``d``, intervals between use and disclosure of
            a key (``d >= 1``; ``K_i`` is disclosed in interval ``i+d``).
        paper_literal: use the paper's published inequality
            (discard only when ``i + d < x``) instead of the conservative
            textbook condition (require ``x < i + d``).
    """

    schedule: IntervalSchedule
    sync: LooseTimeSync
    disclosure_delay: int = 1
    paper_literal: bool = False

    def __post_init__(self) -> None:
        if self.disclosure_delay < 1:
            raise ConfigurationError(
                f"disclosure_delay must be >= 1, got {self.disclosure_delay}"
            )

    def is_safe(self, packet_interval: int, receiver_time: float) -> bool:
        """Whether a packet MAC'd with ``K_packet_interval`` is still safe.

        ``True`` means the key cannot have been disclosed yet, so a MAC
        that later verifies under the disclosed key must have come from
        the legitimate sender.
        """
        if packet_interval < 1:
            return False
        upper = self.sync.sender_interval_upper_bound(receiver_time, self.schedule)
        if self.paper_literal:
            # Algorithm 2 line 2: "if i + d < x then discard".
            return not packet_interval + self.disclosure_delay < upper
        return upper < packet_interval + self.disclosure_delay

    def is_plausible(self, packet_interval: int, receiver_time: float) -> bool:
        """Whether the sender could have sent from this interval *at all*.

        A packet claiming an interval beyond the sender's latest possible
        current interval is fabricated — buffering such packets would let
        an attacker allocate receiver memory arbitrarily far into the
        future, so receivers must drop them (the dual of :meth:`is_safe`,
        which rejects packets from too far in the *past*).
        """
        if packet_interval < 1:
            return False
        upper = self.sync.sender_interval_upper_bound(receiver_time, self.schedule)
        return packet_interval <= upper

    def accepts(self, packet_interval: int, receiver_time: float) -> bool:
        """The full admission test: plausible and still safe.

        Equal to ``is_plausible(...) and is_safe(...)``, with the
        sender's interval bound computed once (the same float addition
        and :meth:`IntervalSchedule.index_at` as
        :meth:`LooseTimeSync.sender_interval_upper_bound`).
        """
        if packet_interval < 1:
            return False
        upper = self.schedule.index_at(receiver_time + self.sync.max_offset)
        if packet_interval > upper:
            return False
        if self.paper_literal:
            return not packet_interval + self.disclosure_delay < upper
        return upper < packet_interval + self.disclosure_delay

    def accepts_many(
        self, intervals: npt.ArrayLike, receiver_times: npt.ArrayLike
    ) -> npt.NDArray[np.bool_]:
        """:meth:`accepts` over paired arrays of intervals and arrival times.

        The same float operations in the same order as the scalar path
        (:meth:`LooseTimeSync.sender_interval_upper_bound` then
        :meth:`IntervalSchedule.index_at`), so every element equals the
        scalar verdict.
        """
        index = np.asarray(intervals, dtype=np.int64)
        times = np.asarray(receiver_times, dtype=np.float64)
        sender_time = times + self.sync.max_offset
        schedule = self.schedule
        elapsed = (sender_time - schedule.start) / schedule.duration
        upper = np.floor(elapsed).astype(np.int64) + 1
        if schedule.count is not None:
            upper = np.minimum(upper, schedule.count)
        # Before ``start`` the scalar bound is 0 and this one is <= 0:
        # no interval >= 1 is plausible under either, so no special case.
        deadline = index + self.disclosure_delay
        if self.paper_literal:
            safe = ~(deadline < upper)
        else:
            safe = upper < deadline
        accepted: npt.NDArray[np.bool_] = (index >= 1) & (index <= upper) & safe
        return accepted

    def require_safe(self, packet_interval: int, receiver_time: float) -> None:
        """Raise :class:`SecurityConditionError` for unsafe packets."""
        if not self.is_safe(packet_interval, receiver_time):
            upper = self.sync.sender_interval_upper_bound(
                receiver_time, self.schedule
            )
            raise SecurityConditionError(
                f"packet from interval {packet_interval} unsafe: sender may be"
                f" in interval {upper} with disclosure delay"
                f" {self.disclosure_delay}"
            )

    def disclosure_interval(self, packet_interval: int) -> int:
        """Interval in which the key for ``packet_interval`` is disclosed."""
        if packet_interval < 1:
            raise ConfigurationError(
                f"packet_interval must be >= 1, got {packet_interval}"
            )
        return packet_interval + self.disclosure_delay
