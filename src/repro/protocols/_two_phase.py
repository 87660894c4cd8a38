"""Shared machinery for two-phase (MAC-first) protocols: TESLA++ and DAP.

Both protocols broadcast in two phases (paper Fig. 4):

1. interval ``i``:   announce ``(i, MAC_{K_i}(M_i))`` — 112 bits;
2. interval ``i+d``: reveal ``(i, M_i, K_i)`` — message and key together.

Receivers never buffer messages. On announce they re-hash the incoming
MAC under a private local key and store a short record; on reveal they
run *weak authentication* (key-chain check of ``K_i``) then *strong
authentication* (recompute the re-hash and match it against the stored
records). The two protocols differ only in record width and buffering
strategy, which is why they share this core:

=========  ==================  ======================  ==============
protocol   record (bits)       buffer strategy         module
=========  ==================  ======================  ==============
TESLA++    index + 80b re-MAC  keep-first              tesla_pp
DAP        index + 24b μMAC    reservoir (Alg. 2 m/k)  dap
=========  ==================  ======================  ==============
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.buffers.pool import IndexedBufferPool
from repro.crypto.kernels import ChainWalkCache
from repro.crypto.keychain import KeyChainAuthenticator
from repro.crypto.mac import INDEX_BITS, MacScheme, MicroMacScheme
from repro.crypto.pebbled import KeyChainLike, make_key_chain
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError, KeyVerificationError
from repro.protocols.base import (
    AuthEvent,
    AuthOutcome,
    BroadcastSender,
    ReceiverStats,
)
from repro.protocols.messages import default_message
from repro.protocols.packets import (
    LEGITIMATE,
    MacAnnouncePacket,
    MessageKeyPacket,
    MicroMacRecord,
)
from repro.timesync.sync import SecurityCondition

__all__ = ["TwoPhaseSender", "TwoPhaseReceiverCore", "TwoPhasePacket"]

TwoPhasePacket = Union[MacAnnouncePacket, MessageKeyPacket]

#: Bound on the retained attack-level observation log.
_OBSERVATION_LOG_LIMIT = 1024


class TwoPhaseSender(BroadcastSender):
    """Sender half of a MAC-first protocol (DAP Algorithm 1).

    In interval ``i`` it broadcasts the MAC announcements for interval
    ``i`` and the message+key reveals for interval ``i - d``.

    Args:
        seed: secret chain seed.
        chain_length: intervals covered by the chain.
        disclosure_delay: ``d`` (the paper uses 1: reveal in ``I_{i+1}``).
        packets_per_interval: distinct messages per interval.
        announce_copies: how many times each announcement is repeated
            (redundancy against loss; the receiver's reservoir absorbs
            duplicates harmlessly).
        message_for: payload generator ``(interval, copy) -> bytes``.
    """

    def __init__(
        self,
        seed: bytes,
        chain_length: int,
        disclosure_delay: int = 1,
        packets_per_interval: int = 1,
        announce_copies: int = 1,
        message_for: Optional[Callable[[int, int], bytes]] = None,
        mac_scheme: Optional[MacScheme] = None,
        function: Optional[OneWayFunction] = None,
    ) -> None:
        if disclosure_delay < 1:
            raise ConfigurationError(
                f"disclosure_delay must be >= 1, got {disclosure_delay}"
            )
        if packets_per_interval < 1:
            raise ConfigurationError(
                f"packets_per_interval must be >= 1, got {packets_per_interval}"
            )
        if announce_copies < 1:
            raise ConfigurationError(
                f"announce_copies must be >= 1, got {announce_copies}"
            )
        # make_key_chain picks pebbled storage for long soak chains and
        # the dense reference chain for scenario-sized ones; the keys
        # are bit-identical either way.
        self._chain = make_key_chain(seed, chain_length, function)
        self._delay = disclosure_delay
        self._per_interval = packets_per_interval
        self._announce_copies = announce_copies
        self._message_for = message_for or default_message
        self._mac = mac_scheme or MacScheme()

    @property
    def chain(self) -> KeyChainLike:
        """The sender's key chain."""
        return self._chain

    @property
    def disclosure_delay(self) -> int:
        """``d`` in intervals."""
        return self._delay

    @property
    def mac_scheme(self) -> MacScheme:
        """The sender's MAC scheme."""
        return self._mac

    @property
    def bootstrap(self) -> Dict[str, object]:
        return {
            "commitment": self._chain.commitment,
            "disclosure_delay": self._delay,
            "chain_length": self._chain.length,
        }

    def messages_for(self, index: int) -> List[bytes]:
        """The authentic messages of interval ``index``."""
        return [self._message_for(index, c) for c in range(self._per_interval)]

    def messages_and_macs(self, index: int) -> Tuple[List[bytes], List[bytes]]:
        """Interval ``index``'s messages and their MACs under ``K_index``
        (one batched MAC call: the key's HMAC pads serve the whole slot)."""
        messages = self.messages_for(index)
        return messages, self._mac.compute_many(self._chain.key(index), messages)

    def packets_for_interval(self, index: int) -> Sequence[TwoPhasePacket]:
        """Announcements for ``index`` plus reveals for ``index - d``."""
        if index < 1 or index > self._chain.length:
            raise ConfigurationError(
                f"interval {index} outside chain 1..{self._chain.length}"
            )
        packets: List[TwoPhasePacket] = []
        for mac in self.messages_and_macs(index)[1]:
            announce = MacAnnouncePacket(index=index, mac=mac)
            packets.extend([announce] * self._announce_copies)
        reveal_index = index - self._delay
        if reveal_index >= 1:
            reveal_key = self._chain.key(reveal_index)
            for message in self.messages_for(reveal_index):
                packets.append(
                    MessageKeyPacket(index=reveal_index, message=message, key=reveal_key)
                )
        return packets


class TwoPhaseReceiverCore:
    """Receiver half of a MAC-first protocol (DAP Algorithm 2).

    Args:
        commitment: authenticated chain commitment ``K_0``.
        function: the chain's one-way function.
        condition: TESLA security condition for the announce phase.
        mac_scheme: the sender's MAC scheme (for recomputation).
        micro_scheme: the local re-hash scheme (24-bit for DAP, 80-bit
            for TESLA++).
        local_key: the receiver's private re-hash key ``K_recv``.
        buffers: ``m``, record slots per interval.
        strategy: ``"reservoir"`` (Algorithm 2) or ``"keep_first"``.
        max_intervals: bound on simultaneously buffered intervals.
        stats: owning receiver's counters.
        rng: RNG for the reservoir rule.
        walk_cache: optional shared back-walk memo (must wrap
            ``function``); defaults to a private per-receiver cache.
    """

    def __init__(
        self,
        commitment: bytes,
        function: OneWayFunction,
        condition: SecurityCondition,
        mac_scheme: MacScheme,
        micro_scheme: MicroMacScheme,
        local_key: bytes,
        buffers: int,
        strategy: str,
        max_intervals: Optional[int],
        stats: ReceiverStats,
        rng: Optional[random.Random] = None,
        max_key_gap: int = 4096,
        walk_cache: Optional[ChainWalkCache] = None,
    ) -> None:
        if buffers <= 0:
            raise ConfigurationError(f"buffers must be positive, got {buffers}")
        if not local_key:
            raise ConfigurationError("local_key must be non-empty")
        # Bounding the verification gap caps the hash iterations a single
        # forged disclosure can burn — an attacker submitting a huge
        # index must not be able to spend the receiver's CPU (a
        # computational-DoS vector orthogonal to the memory one).
        # ``walk_cache`` may be shared across a fleet (all receivers
        # back-walk the same disclosed keys); it must wrap ``function``.
        self._authenticator = KeyChainAuthenticator(
            commitment,
            function,
            max_gap=max_key_gap,
            walk_cache=walk_cache if walk_cache is not None else ChainWalkCache(function),
        )
        self._condition = condition
        self._mac = mac_scheme
        self._micro = micro_scheme
        self._local_key = bytes(local_key)
        record_bits = micro_scheme.micro_mac_bits + INDEX_BITS
        self._pool: IndexedBufferPool[MicroMacRecord] = IndexedBufferPool(
            per_index_capacity=buffers,
            max_indices=max_intervals,
            item_bits=record_bits,
            strategy=strategy,
            rng=rng,
        )
        self._stats = stats
        self._resolved: Set[Tuple[int, bytes]] = set()
        # (interval, records stored, records matching the reveal) — what
        # a node can legitimately observe about the attack level; the
        # adaptive defense's estimator feeds on these.
        self._observations: List[Tuple[int, int, int]] = []

    @property
    def trusted_index(self) -> int:
        """Newest authenticated chain index."""
        return self._authenticator.trusted_index

    @property
    def pool(self) -> IndexedBufferPool:
        """The μMAC record pool (memory metrics)."""
        return self._pool

    @property
    def buffers(self) -> int:
        """``m``, record slots per interval."""
        return self._pool.per_index_capacity

    @property
    def observations(self) -> List[Tuple[int, int, int]]:
        """Reveal-time observations ``(interval, stored, matched)``.

        ``1 - matched/stored`` is an unbiased sample of the forged-copy
        fraction (the reservoir holds a uniform sample of all copies),
        which is exactly what :class:`repro.game.AttackEstimator` wants.
        """
        return list(self._observations)

    def micro_mac_of(self, mac: bytes) -> bytes:
        """``μMAC = MAC_{K_recv}(mac)`` under this receiver's local key."""
        return self._micro.compute(self._local_key, mac)

    def handle_announce(
        self, index: int, mac: bytes, provenance: str, now: float
    ) -> List[AuthEvent]:
        """Algorithm 2 lines 1-14: gate, re-hash, reservoir-store."""
        if not self._condition.accepts(index, now):
            return [AuthEvent(index, AuthOutcome.DISCARDED_UNSAFE, provenance)]
        record = MicroMacRecord(index, self.micro_mac_of(mac), provenance)
        result = self._pool.offer(index, record)
        self._stats.peak_buffer_bits = max(
            self._stats.peak_buffer_bits, self._pool.peak_bits
        )
        if result.stored:
            self._stats.records_buffered += 1
        elif self._pool.rejected_no_room and not self._pool.items(index):
            return [AuthEvent(index, AuthOutcome.DROPPED_NO_BUFFER, provenance)]
        return []

    def handle_message_key(
        self, index: int, message: bytes, key: bytes, provenance: str
    ) -> List[AuthEvent]:
        """Algorithm 2 lines 15-25: weak then strong authentication."""
        if (index, message) in self._resolved:
            return []  # duplicate reveal of an already-authenticated message
        # Weak authentication: the disclosed key must verify against the
        # chain (generalised from h(K_i) != K_{i-1} to arbitrary gaps,
        # bounded by max_key_gap against CPU-burning forgeries). A key
        # *older* than the trusted anchor — a reveal overtaken in flight
        # by its successor — is checked by deriving it from the anchor,
        # which one-wayness makes sound.
        try:
            if 1 <= index <= self._authenticator.trusted_index:
                valid_key = self._authenticator.derive_older(index) == bytes(key)
            else:
                valid_key = self._authenticator.authenticate(key, index)
        except KeyVerificationError:
            valid_key = False
        if not valid_key:
            return [
                AuthEvent(index, AuthOutcome.REJECTED_WEAK_AUTH, provenance, message)
            ]
        # Housekeeping: reveals arrive one disclosure delay after their
        # announcements, so once interval ``index`` starts revealing,
        # older intervals' records are dead weight — free them, keeping
        # one interval of slack so slightly reordered reveals (adjacent
        # intervals' reveals interleaving in flight) still find their
        # records. This bounds a node's footprint at O(d·m) records
        # instead of growing with deployment lifetime.
        self._pool.release_older_than(index - 1)
        # Strong authentication: recompute μMAC' and match stored records.
        expected = self.micro_mac_of(self._mac.compute(key, message))
        records = self._pool.items(index)
        matched = sum(record.micro_mac == expected for record in records)
        if records:
            self._observations.append((index, len(records), matched))
            if len(self._observations) > _OBSERVATION_LOG_LIMIT:
                del self._observations[: -_OBSERVATION_LOG_LIMIT]
        if matched:
            self._resolved.add((index, message))
            return [AuthEvent(index, AuthOutcome.AUTHENTICATED, provenance, message)]
        if records or self._pool.seen_count(index) > 0:
            # Copies were seen for this interval but none matches: either
            # the message is forged, or the authentic announce was evicted
            # under flooding. Cryptographically both are a discard; the
            # provenance tag attributes them for metrics.
            outcome = (
                AuthOutcome.LOST_NO_RECORD
                if provenance == LEGITIMATE
                else AuthOutcome.REJECTED_FORGED
            )
            return [AuthEvent(index, outcome, provenance, message)]
        return [AuthEvent(index, AuthOutcome.LOST_NO_RECORD, provenance, message)]

    def expire_older_than(self, index: int) -> int:
        """Free record memory for intervals older than ``index``.

        Two-phase receivers can release an interval's records as soon as
        its reveals have all been processed; the harness calls this with
        the current interval minus the disclosure delay plus slack.
        Returns the number of records dropped.
        """
        return self._pool.release_older_than(index)
