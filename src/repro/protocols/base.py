"""Shared interfaces and accounting for the broadcast-auth protocol family.

Every protocol is split into a *sender* and a *receiver* state machine,
both driven externally (by the tests, the examples, or the discrete-
event simulator):

- the sender is asked for the packets it emits in interval ``i``
  (:meth:`BroadcastSender.packets_for_interval`);
- the receiver is handed packets one at a time with the receiver-local
  arrival time (:meth:`BroadcastReceiver.receive`) and returns the list
  of authentication events the packet resolved — possibly none (packet
  buffered pending key disclosure) or several (one key disclosure can
  retroactively authenticate a whole buffered interval).

Outcomes are deliberately fine-grained so the evaluation can separate
"dropped because unsafe" from "lost to buffer eviction under flooding"
from "cryptographically rejected" — those are different phenomena in
the paper's analysis (§IV-C vs §IV-D).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from repro.protocols.packets import FORGED, LEGITIMATE

__all__ = [
    "AuthOutcome",
    "AuthEvent",
    "ReceiverStats",
    "BroadcastSender",
    "BroadcastReceiver",
]


class AuthOutcome(Enum):
    """Terminal outcome of one (interval, message) authentication attempt."""

    AUTHENTICATED = "authenticated"
    """Strong authentication succeeded; the message is trusted."""

    REJECTED_FORGED = "rejected_forged"
    """Cryptographic verification failed — MAC/μMAC mismatch."""

    REJECTED_WEAK_AUTH = "rejected_weak_auth"
    """The disclosed key did not verify against the key chain."""

    DISCARDED_UNSAFE = "discarded_unsafe"
    """The TESLA security condition failed (key may be public already)."""

    LOST_NO_RECORD = "lost_no_record"
    """An authentic message arrived but no matching buffered record
    survived (buffer eviction under flooding — the ``1 - (1-p^m)``
    failure mode the game model prices)."""

    DROPPED_NO_BUFFER = "dropped_no_buffer"
    """The receiver had no room to even consider the packet."""

    EXPIRED_UNVERIFIED = "expired_unverified"
    """Buffered records were released without the key ever arriving
    (permanent key loss)."""


@dataclass(frozen=True)
class AuthEvent:
    """One resolved authentication attempt.

    Attributes:
        index: the protocol interval of the message.
        outcome: what happened.
        provenance: provenance tag of the packet that *triggered* the
            outcome (metrics only — see :mod:`repro.protocols.packets`).
        message: the message involved, when available.
    """

    index: int
    outcome: AuthOutcome
    provenance: str = LEGITIMATE
    message: Optional[bytes] = None


@dataclass
class ReceiverStats:
    """Counters a receiver maintains across its lifetime.

    The security-critical invariant, checked throughout the test suite:
    ``forged_accepted == 0`` — no forged packet may ever reach
    ``AUTHENTICATED``.
    """

    authenticated: int = 0
    forged_accepted: int = 0
    rejected_forged: int = 0
    rejected_weak_auth: int = 0
    discarded_unsafe: int = 0
    lost_no_record: int = 0
    dropped_no_buffer: int = 0
    expired_unverified: int = 0
    packets_received: int = 0
    records_buffered: int = 0
    peak_buffer_bits: int = 0
    by_outcome: Dict[AuthOutcome, int] = field(default_factory=dict)

    def record(self, event: AuthEvent) -> None:
        """Fold one event into the counters."""
        self.by_outcome[event.outcome] = self.by_outcome.get(event.outcome, 0) + 1
        if event.outcome is AuthOutcome.AUTHENTICATED:
            self.authenticated += 1
            if event.provenance == FORGED:
                self.forged_accepted += 1
        elif event.outcome is AuthOutcome.REJECTED_FORGED:
            self.rejected_forged += 1
        elif event.outcome is AuthOutcome.REJECTED_WEAK_AUTH:
            self.rejected_weak_auth += 1
        elif event.outcome is AuthOutcome.DISCARDED_UNSAFE:
            self.discarded_unsafe += 1
        elif event.outcome is AuthOutcome.LOST_NO_RECORD:
            self.lost_no_record += 1
        elif event.outcome is AuthOutcome.DROPPED_NO_BUFFER:
            self.dropped_no_buffer += 1
        elif event.outcome is AuthOutcome.EXPIRED_UNVERIFIED:
            self.expired_unverified += 1

    @property
    def resolved(self) -> int:
        """Total resolved authentication attempts."""
        return sum(self.by_outcome.values())

    def authentication_rate(self, sent_authentic: int) -> float:
        """Fraction of authentic messages that ended up authenticated.

        Args:
            sent_authentic: how many distinct authentic messages the
                legitimate sender actually broadcast (known to the
                experiment harness, not the receiver).
        """
        if sent_authentic <= 0:
            return 0.0
        return self.authenticated / sent_authentic


class BroadcastSender(ABC):
    """Sender half of a broadcast-authentication protocol."""

    @abstractmethod
    def messages_and_macs(self, index: int) -> Tuple[List[bytes], List[bytes]]:
        """The messages of interval ``index`` and their MACs under the
        interval's key, positionally paired: the one MAC rule
        :meth:`packets_for_interval` builds its data packets from. The
        fleet engine's plans call it directly, once per interval."""

    @abstractmethod
    def packets_for_interval(self, index: int) -> Sequence[object]:
        """Packets the sender emits during interval ``index`` (1-based).

        Includes data packets for the interval *and* whatever key
        disclosures / commitment distributions the protocol schedules
        for that interval. Deterministic given the sender's seed.
        """

    @property
    @abstractmethod
    def bootstrap(self) -> Dict[str, object]:
        """Authentic bootstrap material receivers need before interval 1
        (commitments, schedule parameters, disclosure delay, ...)."""


class BroadcastReceiver(ABC):
    """Receiver half of a broadcast-authentication protocol."""

    def __init__(self) -> None:
        self._stats = ReceiverStats()

    @property
    def stats(self) -> ReceiverStats:
        """Lifetime counters (see :class:`ReceiverStats`)."""
        return self._stats

    @abstractmethod
    def receive(self, packet: object, now: float) -> List[AuthEvent]:
        """Process one packet arriving at receiver-local time ``now``.

        Returns the authentication events this packet resolved; events
        are also folded into :attr:`stats`.
        """

    def _emit(self, events: List[AuthEvent]) -> List[AuthEvent]:
        """Record ``events`` into stats and return them (helper for
        subclasses so no event can bypass the counters)."""
        for event in events:
            self._stats.record(event)
        return events
