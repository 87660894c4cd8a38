"""Key-chain renewal: DAP for deployments that outlive one chain.

A TESLA-family chain is finite; §II-A's multi-level construction is one
answer, and *chain renewal* is the other (used by the original TESLA
work for long-lived streams): before the current chain runs out, the
sender broadcasts the **next chain's commitment as an ordinary
authenticated message**, repeatedly, during the last few intervals of
the epoch. A receiver that authenticates any one of those handoffs can
verify the next epoch seamlessly — no new out-of-band bootstrap.

:class:`RenewingDapSender` / :class:`RenewingDapReceiver` wrap the DAP
machinery with epoch routing: global interval ``g`` belongs to epoch
``(g-1) // epoch_length``, within which the ordinary single-chain
protocol runs with local indices. Handoff messages travel through DAP's
own announce/reveal path, so they inherit its DoS resistance — a
flooding attacker must kill *every* handoff copy's record to orphan an
epoch (and the receiver reports exactly that via
:attr:`RenewingDapReceiver.orphaned_epochs`).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.crypto.pebbled import KeyChainLike, make_key_chain
from repro.crypto.mac import MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError
from repro.protocols._two_phase import TwoPhaseReceiverCore, TwoPhasePacket
from repro.protocols.base import (
    AuthEvent,
    AuthOutcome,
    BroadcastReceiver,
    BroadcastSender,
)
from repro.protocols.messages import MESSAGE_BYTES, default_message
from repro.protocols.packets import MacAnnouncePacket, MessageKeyPacket
from repro.timesync.intervals import IntervalSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

__all__ = [
    "RENEWAL_TAG",
    "encode_renewal",
    "parse_renewal",
    "RenewingDapSender",
    "RenewingDapReceiver",
]

#: Tag distinguishing handoff payloads from sensing reports.
RENEWAL_TAG = b"RENEW\x00"
_COMMITMENT_BYTES = 10  # 80-bit chain commitments


def encode_renewal(commitment: bytes) -> bytes:
    """Pack a next-epoch commitment into a standard 200-bit message."""
    if len(commitment) != _COMMITMENT_BYTES:
        raise ConfigurationError(
            f"commitment must be {_COMMITMENT_BYTES} bytes, got {len(commitment)}"
        )
    payload = RENEWAL_TAG + commitment
    return payload + b"\x00" * (MESSAGE_BYTES - len(payload))


def parse_renewal(message: bytes) -> Optional[bytes]:
    """Extract a commitment from a handoff payload (``None`` if ordinary)."""
    if len(message) != MESSAGE_BYTES or not message.startswith(RENEWAL_TAG):
        return None
    start = len(RENEWAL_TAG)
    return message[start : start + _COMMITMENT_BYTES]


class RenewingDapSender(BroadcastSender):
    """DAP sender spanning multiple chain epochs.

    Args:
        seed: master secret (per-epoch chains derived by label).
        epoch_length: intervals per chain epoch ``L``.
        epochs: number of epochs provisioned.
        renewal_lead: during the last ``renewal_lead`` intervals of each
            epoch, every interval carries a handoff message (redundant
            copies — the handoff must survive loss *and* flooding).
        disclosure_delay: DAP ``d`` (reveals lag announcements).
        packets_per_interval: sensing messages per interval.
        announce_copies: copies of each announcement.
        message_for: payload generator for ordinary messages, taking the
            *global* interval.
    """

    def __init__(
        self,
        seed: bytes,
        epoch_length: int,
        epochs: int,
        renewal_lead: int = 3,
        disclosure_delay: int = 1,
        packets_per_interval: int = 1,
        announce_copies: int = 1,
        message_for: Optional[Callable[[int, int], bytes]] = None,
        mac_scheme: Optional[MacScheme] = None,
        function: Optional[OneWayFunction] = None,
    ) -> None:
        if epoch_length < 3:
            raise ConfigurationError(f"epoch_length must be >= 3, got {epoch_length}")
        if epochs < 1:
            raise ConfigurationError(f"epochs must be >= 1, got {epochs}")
        if not 1 <= renewal_lead < epoch_length - disclosure_delay:
            raise ConfigurationError(
                f"renewal_lead must be in [1, epoch_length - d), got {renewal_lead}"
            )
        if disclosure_delay < 1:
            raise ConfigurationError(
                f"disclosure_delay must be >= 1, got {disclosure_delay}"
            )
        if announce_copies < 1:
            raise ConfigurationError(
                f"announce_copies must be >= 1, got {announce_copies}"
            )
        self._epoch_length = epoch_length
        self._epochs = epochs
        self._lead = renewal_lead
        self._delay = disclosure_delay
        self._per_interval = packets_per_interval
        self._announce_copies = announce_copies
        self._message_for = message_for or default_message
        self._mac = mac_scheme or MacScheme()
        self._function = function or OneWayFunction("F")
        self._chains = [
            make_key_chain(seed, epoch_length, self._function, label=f"epoch-{e}")
            for e in range(epochs)
        ]

    @property
    def epoch_length(self) -> int:
        """Intervals per epoch ``L``."""
        return self._epoch_length

    @property
    def epochs(self) -> int:
        """Provisioned epoch count."""
        return self._epochs

    @property
    def disclosure_delay(self) -> int:
        """DAP ``d``."""
        return self._delay

    @property
    def total_intervals(self) -> int:
        """Global intervals covered by all epochs."""
        return self._epoch_length * self._epochs

    def chain(self, epoch: int) -> KeyChainLike:
        """The chain of one epoch (bootstrap/tests)."""
        if not 0 <= epoch < self._epochs:
            raise ConfigurationError(f"epoch {epoch} outside 0..{self._epochs - 1}")
        return self._chains[epoch]

    @property
    def bootstrap(self) -> Dict[str, object]:
        return {
            "commitment": self._chains[0].commitment,
            "epoch_length": self._epoch_length,
            "disclosure_delay": self._delay,
        }

    def _locate(self, global_index: int) -> tuple:
        if not 1 <= global_index <= self.total_intervals:
            raise ConfigurationError(
                f"interval {global_index} outside 1..{self.total_intervals}"
            )
        return ((global_index - 1) // self._epoch_length,
                (global_index - 1) % self._epoch_length + 1)

    def _messages_for(self, global_index: int) -> List[bytes]:
        epoch, local = self._locate(global_index)
        messages = [
            self._message_for(global_index, copy)
            for copy in range(self._per_interval)
        ]
        handoff_window = local > self._epoch_length - self._lead
        if handoff_window and epoch + 1 < self._epochs:
            messages.append(encode_renewal(self._chains[epoch + 1].commitment))
        return messages

    def messages_and_macs(self, index: int) -> Tuple[List[bytes], List[bytes]]:
        """Global interval ``index``'s messages (handoff included) and
        their MACs under the owning epoch's key, in one batched call."""
        epoch, local = self._locate(index)
        messages = self._messages_for(index)
        key = self._chains[epoch].key(local)
        return messages, self._mac.compute_many(key, messages)

    def packets_for_interval(self, index: int) -> Sequence[TwoPhasePacket]:
        """Announcements for ``index`` plus reveals for ``index - d``.

        Reveals always use the chain that *owns* the revealed interval,
        so the handoff across an epoch boundary stays verifiable: the
        last intervals of epoch ``e`` are revealed during the first
        intervals of epoch ``e+1`` under epoch ``e``'s chain.
        """
        packets: List[TwoPhasePacket] = []
        for mac in self.messages_and_macs(index)[1]:
            announce = MacAnnouncePacket(index=index, mac=mac)
            packets.extend([announce] * self._announce_copies)
        reveal_global = index - self._delay
        if reveal_global >= 1:
            reveal_epoch, reveal_local = self._locate(reveal_global)
            reveal_key = self._chains[reveal_epoch].key(reveal_local)
            for message in self._messages_for(reveal_global):
                packets.append(
                    MessageKeyPacket(index=reveal_global, message=message, key=reveal_key)
                )
        return packets


class RenewingDapReceiver(BroadcastReceiver):
    """DAP receiver that follows chain handoffs across epochs.

    Routes each packet to its epoch's verification core (created when
    that epoch's commitment is learned from an authenticated handoff),
    translating between global and chain-local indices. Packets for an
    epoch whose commitment never arrived are counted in
    :attr:`orphaned_epochs` — the failure mode a flooding attacker aims
    for and the handoff redundancy defends against.
    """

    def __init__(
        self,
        first_commitment: bytes,
        epoch_length: int,
        interval_duration: float,
        sync: LooseTimeSync,
        local_key: bytes,
        buffers: int = 4,
        disclosure_delay: int = 1,
        micro_mac_bits: int = 24,
        function: Optional[OneWayFunction] = None,
        mac_scheme: Optional[MacScheme] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        if epoch_length < 3:
            raise ConfigurationError(f"epoch_length must be >= 3, got {epoch_length}")
        self._epoch_length = epoch_length
        self._duration = interval_duration
        self._sync = sync
        self._local_key = bytes(local_key)
        self._buffers = buffers
        self._delay = disclosure_delay
        self._micro_bits = micro_mac_bits
        self._function = function or OneWayFunction("F")
        self._mac = mac_scheme or MacScheme()
        self._rng = rng or random.Random()
        self._cores: Dict[int, TwoPhaseReceiverCore] = {}
        self._commitments: Dict[int, bytes] = {0: bytes(first_commitment)}
        self._renewed: Set[int] = set()
        self._orphans: Set[int] = set()
        self.orphaned_packets = 0

    @property
    def known_epochs(self) -> List[int]:
        """Epochs whose commitments have been learned, ascending."""
        return sorted(self._commitments)

    @property
    def orphaned_epochs(self) -> Set[int]:
        """Epochs for which packets arrived but no commitment is known."""
        return set(self._orphans)

    def _epoch_of(self, global_index: int) -> int:
        return (global_index - 1) // self._epoch_length

    def _local_of(self, global_index: int) -> int:
        return (global_index - 1) % self._epoch_length + 1

    def _core_for(self, epoch: int) -> Optional[TwoPhaseReceiverCore]:
        core = self._cores.get(epoch)
        if core is not None:
            return core
        commitment = self._commitments.get(epoch)
        if commitment is None:
            return None
        schedule = IntervalSchedule(
            start=epoch * self._epoch_length * self._duration,
            duration=self._duration,
        )
        condition = SecurityCondition(schedule, self._sync, self._delay)
        core = TwoPhaseReceiverCore(
            commitment=commitment,
            function=self._function,
            condition=condition,
            mac_scheme=self._mac,
            micro_scheme=MicroMacScheme(self._micro_bits),
            local_key=self._local_key,
            buffers=self._buffers,
            strategy="reservoir",
            max_intervals=None,
            stats=self._stats,
            rng=random.Random(self._rng.getrandbits(64)),
        )
        self._cores[epoch] = core
        return core

    def receive(self, packet: TwoPhasePacket, now: float) -> List[AuthEvent]:
        self._stats.packets_received += 1
        if isinstance(packet, (MacAnnouncePacket, MessageKeyPacket)):
            if packet.index < 1:
                return self._emit(
                    [AuthEvent(packet.index, AuthOutcome.DISCARDED_UNSAFE,
                               packet.provenance)]
                )
            epoch = self._epoch_of(packet.index)
        else:
            raise TypeError(
                f"RenewingDapReceiver cannot handle {type(packet).__name__}"
            )
        core = self._core_for(epoch)
        if core is None:
            self.orphaned_packets += 1
            self._orphans.add(epoch)
            return self._emit(
                [
                    AuthEvent(
                        packet.index,
                        AuthOutcome.DROPPED_NO_BUFFER,
                        packet.provenance,
                    )
                ]
            )
        local = self._local_of(packet.index)
        # Cores think in chain-local indices but wall-clock conditions in
        # global time, so translate only the index.
        if isinstance(packet, MacAnnouncePacket):
            local_events = core.handle_announce(
                local, packet.mac, packet.provenance, now
            )
        else:
            local_events = core.handle_message_key(
                local, packet.message, packet.key, packet.provenance
            )
        events = []
        for event in local_events:
            global_index = (epoch * self._epoch_length) + event.index
            events.append(dataclasses.replace(event, index=global_index))
            if (
                event.outcome is AuthOutcome.AUTHENTICATED
                and event.message is not None
            ):
                self._install_handoff(epoch, event.message, now)
        return self._emit(events)

    def _install_handoff(self, epoch: int, message: bytes, now: float) -> None:
        commitment = parse_renewal(message)
        if commitment is None:
            return
        next_epoch = epoch + 1
        if next_epoch in self._commitments:
            return
        self._commitments[next_epoch] = commitment
        self._renewed.add(next_epoch)
        self._orphans.discard(next_epoch)

    @property
    def renewed_epochs(self) -> Set[int]:
        """Epochs learned through authenticated handoffs (not bootstrap)."""
        return set(self._renewed)
