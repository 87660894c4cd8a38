"""Multi-level μTESLA (Liu & Ning, TECS 2004) and its shared machinery.

Two key layers (paper §III): a *high-level* chain whose long intervals
each contain ``n`` *low-level* sub-intervals, each high interval owning
its own short low-level chain. Commitment Distribution Messages (CDMs)
broadcast during high interval ``i`` carry the commitment of the *next*
interval's low chain, MAC'd under the high key ``K_i``, plus a disclosed
older high key. Receivers defend CDMs against flooding with the
``m``-buffer random-selection rule (Algorithm 2's ancestor) — this is
the buffer count the paper's evolutionary game optimises.

The same classes implement the authors' two prior enhancements via
:class:`MultiLevelParams` flags:

- **EFTP** (``eftp_wiring=True``): low chain ``i`` hangs off ``K_i``
  instead of ``K_{i+1}``, so key-chain recovery of a lost commitment
  completes one high interval sooner (§III-A, Fig. 2).
- **EDRP** (``cdm_hash_chaining=True``): each CDM carries
  ``H(CDM_{i+1})``, letting a receiver who authenticated ``CDM_i``
  authenticate ``CDM_{i+1}`` the instant a copy arrives — continuity of
  DoS resistance under loss (§III-B, Fig. 3).

:mod:`repro.protocols.eftp` and :mod:`repro.protocols.edrp` export
preconfigured subclasses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.buffers.pool import IndexedBufferPool
from repro.crypto.keychain import (
    KeyChainAuthenticator,
    TwoLevelKeyChain,
    recover_low_chain_key,
)
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction, standard_functions
from repro.errors import (
    ConfigurationError,
    KeyChainError,
    KeyChainExhaustedError,
    KeyVerificationError,
)
from repro.protocols.base import (
    AuthEvent,
    AuthOutcome,
    BroadcastReceiver,
    BroadcastSender,
)
from repro.protocols.messages import default_message
from repro.protocols.packets import (
    CdmPacket,
    KeyDisclosurePacket,
    MuTeslaDataPacket,
    StoredPacketRecord,
)
from repro.timesync.intervals import TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

__all__ = [
    "MultiLevelParams",
    "MultiLevelSender",
    "MultiLevelReceiver",
    "CdmStats",
    "cdm_digest_payload",
    "MultiLevelPacket",
]

MultiLevelPacket = Union[CdmPacket, MuTeslaDataPacket, KeyDisclosurePacket]

#: Placeholder for a CDM that cannot carry a commitment (end of chain).
_NO_COMMITMENT = b"\x00" * 10


@dataclass(frozen=True)
class MultiLevelParams:
    """Protocol parameters shared by sender and receivers.

    Attributes:
        high_length: number of high-level intervals ``N``.
        low_length: sub-intervals per high interval ``n``.
        high_disclosure_delay: high-level ``d`` — ``K_i`` rides in CDMs
            from interval ``i + d`` on.
        low_disclosure_delay: low-level ``d`` in flat sub-intervals.
        cdm_copies: CDM copies broadcast per high interval (spread over
            its sub-intervals) — redundancy against loss and flooding.
        packets_per_low_interval: data packets per sub-interval.
        eftp_wiring: EFTP's re-wired chain connection.
        cdm_hash_chaining: EDRP's ``H(CDM_{i+1})`` field.
        key_chain_recovery: allow receivers to rebuild lost low-chain
            commitments from disclosed high keys (the F01 fault-tolerance
            path; present in all multi-level variants).
    """

    high_length: int
    low_length: int
    high_disclosure_delay: int = 1
    low_disclosure_delay: int = 2
    cdm_copies: int = 4
    packets_per_low_interval: int = 1
    eftp_wiring: bool = False
    cdm_hash_chaining: bool = False
    key_chain_recovery: bool = True

    def __post_init__(self) -> None:
        if self.high_length < 2:
            raise ConfigurationError(
                f"high_length must be >= 2, got {self.high_length}"
            )
        if self.low_length < 1:
            raise ConfigurationError(
                f"low_length must be >= 1, got {self.low_length}"
            )
        if self.high_disclosure_delay < 1:
            raise ConfigurationError(
                f"high_disclosure_delay must be >= 1, got {self.high_disclosure_delay}"
            )
        if self.low_disclosure_delay < 1:
            raise ConfigurationError(
                f"low_disclosure_delay must be >= 1, got {self.low_disclosure_delay}"
            )
        if self.cdm_copies < 1:
            raise ConfigurationError(
                f"cdm_copies must be >= 1, got {self.cdm_copies}"
            )
        if self.packets_per_low_interval < 0:
            raise ConfigurationError(
                f"packets_per_low_interval must be >= 0,"
                f" got {self.packets_per_low_interval}"
            )

    @property
    def total_low_intervals(self) -> int:
        """Flat sub-interval count over the whole deployment."""
        return self.high_length * self.low_length

    def split(self, flat: int) -> Tuple[int, int]:
        """Flat sub-interval index -> ``(high, sub)``."""
        if flat < 1:
            raise ConfigurationError(f"flat index must be >= 1, got {flat}")
        return ((flat - 1) // self.low_length + 1, (flat - 1) % self.low_length + 1)

    def flatten(self, high: int, sub: int) -> int:
        """``(high, sub)`` -> flat sub-interval index."""
        if high < 1 or not 1 <= sub <= self.low_length:
            raise ConfigurationError(f"bad position ({high}, {sub})")
        return (high - 1) * self.low_length + sub


def cdm_digest_payload(packet: CdmPacket) -> bytes:
    """Canonical bytes of a CDM covered by EDRP's ``H`` chaining.

    Covers every immutable field — index, commitment, next-hash, MAC —
    so a forged CDM cannot match the hash pinned by its authenticated
    predecessor.
    """
    return b"|".join(
        [
            packet.high_index.to_bytes(4, "big"),
            packet.low_commitment,
            packet.next_cdm_hash or b"",
            packet.mac,
        ]
    )


class MultiLevelSender(BroadcastSender):
    """Sender for multi-level μTESLA / EFTP / EDRP.

    All CDMs are precomputed at construction (newest-first so EDRP's
    backward hash chain is well-defined); per-interval emission is then
    a cheap lookup, and identical across runs for a given seed.
    """

    def __init__(
        self,
        seed: bytes,
        params: MultiLevelParams,
        message_for: Optional[Callable[[int, int], bytes]] = None,
        mac_scheme: Optional[MacScheme] = None,
        functions: Optional[Dict[str, OneWayFunction]] = None,
    ) -> None:
        self._params = params
        self._fns = functions or standard_functions()
        self._chain = TwoLevelKeyChain(
            seed,
            params.high_length,
            params.low_length,
            eftp_wiring=params.eftp_wiring,
            functions=self._fns,
        )
        self._mac = mac_scheme or MacScheme()
        self._message_for = message_for or default_message
        self._cdms = self._build_cdms()

    @property
    def params(self) -> MultiLevelParams:
        """The protocol parameters."""
        return self._params

    @property
    def chain(self) -> TwoLevelKeyChain:
        """The sender's two-level chain (tests / bootstrap)."""
        return self._chain

    @property
    def bootstrap(self) -> Dict[str, object]:
        return {
            "high_commitment": self._chain.high_chain.commitment,
            "params": self._params,
        }

    def cdm(self, high_index: int) -> CdmPacket:
        """The authentic ``CDM_high_index``."""
        if high_index < 1 or high_index > self._params.high_length:
            raise ConfigurationError(
                f"high interval {high_index} outside 1..{self._params.high_length}"
            )
        return self._cdms[high_index]

    def _build_cdms(self) -> Dict[int, CdmPacket]:
        params = self._params
        cdms: Dict[int, CdmPacket] = {}
        next_hash: Optional[bytes] = None
        h = self._fns["H"]
        for i in range(params.high_length, 0, -1):
            try:
                commitment = self._chain.low_commitment(i + 1)
            except (KeyChainError, KeyChainExhaustedError):
                commitment = _NO_COMMITMENT
            hash_field = next_hash if params.cdm_hash_chaining else None
            disclosed_index = i - params.high_disclosure_delay
            disclosed_key = (
                self._chain.high_key(disclosed_index) if disclosed_index >= 1 else None
            )
            payload = b"|".join(
                [i.to_bytes(4, "big"), commitment, hash_field or b""]
            )
            # reprolint: disable=RPL009 -- each CDM is MACed under its own high-chain key; one digest per key, nothing to batch
            mac = self._mac.compute(self._chain.high_key(i), payload)
            cdm = CdmPacket(
                high_index=i,
                low_commitment=commitment,
                mac=mac,
                disclosed_index=max(disclosed_index, 0),
                disclosed_key=disclosed_key,
                next_cdm_hash=hash_field,
            )
            cdms[i] = cdm
            if params.cdm_hash_chaining:
                next_hash = h(cdm_digest_payload(cdm))
        return cdms

    def cdm_copies_in_sub(self, sub: int) -> int:
        """How many CDM copies to send in sub-interval ``sub`` (1-based).

        The ``cdm_copies`` budget is spread round-robin across the ``n``
        sub-intervals so copies survive bursty loss.
        """
        params = self._params
        base = params.cdm_copies // params.low_length
        extra = 1 if sub <= params.cdm_copies % params.low_length else 0
        return base + extra

    def messages_and_macs(self, index: int) -> Tuple[List[bytes], List[bytes]]:
        """Flat sub-interval ``index``'s data messages and their MACs under
        its low-chain key (one batched MAC call per sub-interval)."""
        messages = [
            self._message_for(index, copy)
            for copy in range(self._params.packets_per_low_interval)
        ]
        low_key = self._chain.low_key(*self._params.split(index))
        return messages, self._mac.compute_many(low_key, messages)

    def packets_for_interval(self, index: int) -> Sequence[MultiLevelPacket]:
        """Everything broadcast in flat sub-interval ``index``.

        CDM copies for the current high interval, data packets MAC'd
        with the sub-interval key, and the delayed low-key disclosure.
        """
        params = self._params
        if index < 1 or index > params.total_low_intervals:
            raise ConfigurationError(
                f"flat interval {index} outside 1..{params.total_low_intervals}"
            )
        high, sub = params.split(index)
        packets: List[MultiLevelPacket] = []
        packets.extend([self._cdms[high]] * self.cdm_copies_in_sub(sub))
        for message, mac in zip(*self.messages_and_macs(index)):
            packets.append(
                MuTeslaDataPacket(index=index, message=message, mac=mac)
            )
        disclosed_flat = index - params.low_disclosure_delay
        if disclosed_flat >= 1:
            d_high, d_sub = params.split(disclosed_flat)
            packets.append(
                KeyDisclosurePacket(
                    index=disclosed_flat, key=self._chain.low_key(d_high, d_sub)
                )
            )
        return packets


@dataclass
class CdmStats:
    """CDM-level counters (separate from message-level ReceiverStats)."""

    copies_received: int = 0
    copies_buffered: int = 0
    copies_forged: int = 0
    discarded_unsafe: int = 0
    authenticated: int = 0
    immediate_hash_auth: int = 0
    recovered_commitments: int = 0
    forged_accepted: int = 0


class _LowChainState:
    """Receiver-side state for one high interval's low chain."""

    __slots__ = ("authenticator", "pending_disclosures")

    def __init__(self) -> None:
        self.authenticator: Optional[KeyChainAuthenticator] = None
        # sub index -> candidate keys (bounded; may contain forged junk)
        self.pending_disclosures: Dict[int, List[bytes]] = {}


_MAX_PENDING_CANDIDATES = 8


class MultiLevelReceiver(BroadcastReceiver):
    """Receiver for multi-level μTESLA / EFTP / EDRP.

    Args:
        high_commitment: authenticated high-chain commitment.
        schedule: the deployment's :class:`TwoLevelSchedule`.
        sync: loose-synchronisation bound.
        params: protocol parameters (must match the sender's).
        cdm_buffers: ``m`` — CDM copies buffered per high interval via
            the random-selection rule; the quantity the evolutionary
            game optimises.
        low_buffer_capacity: data records buffered per sub-interval.
        low_buffer_strategy: ``"reservoir"`` or ``"keep_first"``.
        mac_scheme / functions: crypto parameters.
        rng: RNG for the reservoir rules.
    """

    def __init__(
        self,
        high_commitment: bytes,
        schedule: TwoLevelSchedule,
        sync: LooseTimeSync,
        params: MultiLevelParams,
        cdm_buffers: int = 4,
        low_buffer_capacity: int = 8,
        low_buffer_strategy: str = "reservoir",
        mac_scheme: Optional[MacScheme] = None,
        functions: Optional[Dict[str, OneWayFunction]] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        if schedule.low_per_high != params.low_length:
            raise ConfigurationError(
                f"schedule low_per_high {schedule.low_per_high} differs from"
                f" params low_length {params.low_length}"
            )
        self._params = params
        self._schedule = schedule
        self._fns = functions or standard_functions()
        self._mac = mac_scheme or MacScheme()
        self._rng = rng or random.Random()
        # Gap bound: a forged CDM with a huge disclosed_index must not
        # cost unbounded hash iterations (computational-DoS hardening).
        self._high_auth = KeyChainAuthenticator(
            high_commitment, self._fns["F0"], max_gap=4 * params.high_length
        )
        self._high_cond = SecurityCondition(
            schedule.high_schedule, sync, params.high_disclosure_delay
        )
        self._low_cond = SecurityCondition(
            schedule.low_schedule, sync, params.low_disclosure_delay
        )
        probe_cdm = CdmPacket(1, _NO_COMMITMENT, b"\x00" * 10, 0, None)
        self._cdm_pool: IndexedBufferPool[CdmPacket] = IndexedBufferPool(
            per_index_capacity=cdm_buffers,
            item_bits=probe_cdm.wire_bits,
            strategy="reservoir",
            rng=self._rng,
        )
        probe_rec = StoredPacketRecord(0, b"\x00" * 25, b"\x00" * 10)
        self._data_pool: IndexedBufferPool[StoredPacketRecord] = IndexedBufferPool(
            per_index_capacity=low_buffer_capacity,
            item_bits=probe_rec.stored_bits,
            strategy=low_buffer_strategy,
            rng=self._rng,
        )
        self._chains: Dict[int, _LowChainState] = {}
        self._commitments: Dict[int, bytes] = {}
        self._commitment_known_at: Dict[int, float] = {}
        self._expected_cdm_hash: Dict[int, bytes] = {}
        self._cdm_authenticated: Set[int] = set()
        self._chains_seen: Set[int] = set()
        self._authenticated_messages: Set[Tuple[int, bytes]] = set()
        self.cdm_stats = CdmStats()

    # ------------------------------------------------------------------
    # public inspection helpers

    @property
    def params(self) -> MultiLevelParams:
        """The protocol parameters."""
        return self._params

    @property
    def high_trusted_index(self) -> int:
        """Newest authenticated high-chain index."""
        return self._high_auth.trusted_index

    @property
    def known_commitments(self) -> Dict[int, bytes]:
        """Low-chain commitments learned so far (chain -> K_{i,0})."""
        return dict(self._commitments)

    @property
    def buffered_bits(self) -> int:
        """Current buffer footprint (CDM copies + data records), bits."""
        return self._cdm_pool.stored_bits + self._data_pool.stored_bits

    def bootstrap_commitment(
        self, chain: int, commitment: bytes, now: float = 0.0
    ) -> None:
        """Install an authentically distributed low-chain commitment.

        Chain 1 has no preceding CDM, so deployments distribute its
        commitment during bootstrap exactly like the high-level
        commitment; the harness calls this once per receiver.
        """
        if chain < 1:
            raise ConfigurationError(f"chain must be >= 1, got {chain}")
        self._chains_seen.add(chain)
        self._set_commitment(chain, commitment, now)

    def commitment_latency_high_intervals(self, chain: int) -> Optional[float]:
        """How late chain ``chain``'s commitment became usable.

        Measured in high-interval units relative to the start of the
        chain's own interval: values <= 0 mean "on time" (learned before
        the chain's traffic began); positive values are the recovery
        latency the EFTP/EDRP ablations measure. ``None`` if never
        learned.
        """
        known = self._commitment_known_at.get(chain)
        if known is None:
            return None
        start = self._schedule.high_schedule.start_of(chain)
        return (known - start) / self._schedule.high_duration

    # ------------------------------------------------------------------
    # packet handling

    def receive(self, packet: MultiLevelPacket, now: float) -> List[AuthEvent]:
        self._stats.packets_received += 1
        if isinstance(packet, CdmPacket):
            events = self._handle_cdm(packet, now)
        elif isinstance(packet, MuTeslaDataPacket):
            events = self._handle_data(packet, now)
        elif isinstance(packet, KeyDisclosurePacket):
            events = self._handle_low_disclosure(packet, now)
        else:
            raise TypeError(
                f"MultiLevelReceiver cannot handle {type(packet).__name__}"
            )
        self._stats.peak_buffer_bits = max(
            self._stats.peak_buffer_bits,
            self._cdm_pool.peak_bits + self._data_pool.peak_bits,
        )
        return self._emit(events)

    def _handle_cdm(self, packet: CdmPacket, now: float) -> List[AuthEvent]:
        self.cdm_stats.copies_received += 1
        i = packet.high_index
        self._chains_seen.add(i + 1)
        events: List[AuthEvent] = []
        if i not in self._cdm_authenticated:
            if self._try_immediate_hash_auth(packet, now):
                pass  # authenticated via EDRP chaining
            elif self._high_cond.accepts(i, now):
                result = self._cdm_pool.offer(i, packet)
                if result.stored:
                    self.cdm_stats.copies_buffered += 1
            else:
                self.cdm_stats.discarded_unsafe += 1
        if packet.disclosed_key is not None:
            events.extend(
                self._handle_high_disclosure(
                    packet.disclosed_index, packet.disclosed_key, now
                )
            )
        return events

    def _try_immediate_hash_auth(self, packet: CdmPacket, now: float) -> bool:
        """EDRP fast path: authenticate a CDM copy against the hash pinned
        by its (already authenticated) predecessor."""
        expected = self._expected_cdm_hash.get(packet.high_index)
        if expected is None:
            return False
        digest = self._fns["H"](cdm_digest_payload(packet))
        if digest != expected:
            self.cdm_stats.copies_forged += 1
            return False
        self.cdm_stats.immediate_hash_auth += 1
        self._accept_cdm(packet, now)
        return True

    def _handle_high_disclosure(
        self, index: int, key: bytes, now: float
    ) -> List[AuthEvent]:
        if index < 1 or key is None:
            return []
        try:
            valid = self._high_auth.authenticate(key, index)
        except KeyVerificationError:
            valid = False
        if not valid:
            return []  # forged, stale, or gap-bounded high-key disclosure
        events: List[AuthEvent] = []
        trusted = self._high_auth.trusted_index
        # Verify buffered CDM copies now coverable.
        for high in list(self._cdm_pool.active_indices):
            if high > trusted:
                continue
            high_key = self._high_auth.derive_older(high)
            copies = self._cdm_pool.release(high)
            if high in self._cdm_authenticated:
                continue
            # One high-chain key covers every buffered CDM copy: verify
            # the batch in one call, then walk the outcomes with the
            # same first-authentic-wins/forged-count semantics as the
            # scalar loop.
            payloads = [
                b"|".join(
                    [
                        copy.high_index.to_bytes(4, "big"),
                        copy.low_commitment,
                        copy.next_cdm_hash or b"",
                    ]
                )
                for copy in copies
            ]
            outcomes = self._mac.verify_many(
                high_key,
                [(payload, copy.mac) for payload, copy in zip(payloads, copies)],
            )
            authenticated = False
            for copy, authentic in zip(copies, outcomes):
                if authentic:
                    self._accept_cdm(copy, now)
                    authenticated = True
                    break
                self.cdm_stats.copies_forged += 1
            if not authenticated and self._params.key_chain_recovery:
                # Every buffered copy was forged/lost — fall through to
                # chain recovery below.
                pass
        if self._params.key_chain_recovery:
            events.extend(self._recover_commitments(now))
        return events

    def _recover_commitments(self, now: float) -> List[AuthEvent]:
        """Rebuild missing low-chain commitments from the trusted high key."""
        events: List[AuthEvent] = []
        trusted_idx = self._high_auth.trusted_index
        trusted_key = self._high_auth.trusted_key
        anchor_offset = 0 if self._params.eftp_wiring else 1
        for chain in sorted(self._chains_seen):
            if chain in self._commitments:
                continue
            if chain + anchor_offset > trusted_idx:
                continue  # recovery not yet possible for this wiring
            commitment = recover_low_chain_key(
                trusted_key,
                trusted_idx,
                chain,
                0,
                self._params.low_length,
                self._fns["F0"],
                self._fns["F1"],
                self._fns["F01"],
                self._params.eftp_wiring,
            )
            self.cdm_stats.recovered_commitments += 1
            events.extend(self._set_commitment(chain, commitment, now))
        return events

    def _accept_cdm(self, packet: CdmPacket, now: float) -> List[AuthEvent]:
        i = packet.high_index
        if i in self._cdm_authenticated:
            return []
        self._cdm_authenticated.add(i)
        self.cdm_stats.authenticated += 1
        if packet.provenance != "legitimate":
            self.cdm_stats.forged_accepted += 1
        if packet.next_cdm_hash is not None:
            self._expected_cdm_hash[i + 1] = packet.next_cdm_hash
        if packet.low_commitment != _NO_COMMITMENT:
            return self._set_commitment(i + 1, packet.low_commitment, now)
        return []

    def _set_commitment(
        self, chain: int, commitment: bytes, now: float
    ) -> List[AuthEvent]:
        if chain in self._commitments:
            return []
        self._commitments[chain] = commitment
        self._commitment_known_at[chain] = now
        state = self._chains.setdefault(chain, _LowChainState())
        state.authenticator = KeyChainAuthenticator(commitment, self._fns["F1"])
        events: List[AuthEvent] = []
        for sub in sorted(state.pending_disclosures):
            for key in state.pending_disclosures[sub]:
                if state.authenticator.authenticate(key, sub):
                    break
        state.pending_disclosures.clear()
        events.extend(self._flush_chain_data(chain))
        return events

    def _handle_data(self, packet: MuTeslaDataPacket, now: float) -> List[AuthEvent]:
        flat = packet.index
        high, _sub = self._params.split(flat)
        self._chains_seen.add(high)
        if not self._low_cond.accepts(flat, now):
            return [
                AuthEvent(
                    flat, AuthOutcome.DISCARDED_UNSAFE, packet.provenance, packet.message
                )
            ]
        record = StoredPacketRecord(flat, packet.message, packet.mac, packet.provenance)
        result = self._data_pool.offer(flat, record)
        if result.stored:
            self._stats.records_buffered += 1
        # If this chain's key for the sub-interval is already trusted
        # (late packet), verify immediately.
        return self._flush_chain_data(high)

    def _handle_low_disclosure(
        self, packet: KeyDisclosurePacket, now: float
    ) -> List[AuthEvent]:
        flat = packet.index
        high, sub = self._params.split(flat)
        self._chains_seen.add(high)
        state = self._chains.setdefault(high, _LowChainState())
        if state.authenticator is None:
            candidates = state.pending_disclosures.setdefault(sub, [])
            if packet.key not in candidates and len(candidates) < _MAX_PENDING_CANDIDATES:
                candidates.append(packet.key)
            return []
        if not state.authenticator.authenticate(packet.key, sub):
            return [AuthEvent(flat, AuthOutcome.REJECTED_WEAK_AUTH, packet.provenance)]
        return self._flush_chain_data(high)

    def _flush_chain_data(self, chain: int) -> List[AuthEvent]:
        state = self._chains.get(chain)
        if state is None or state.authenticator is None:
            return []
        trusted_sub = state.authenticator.trusted_index
        if trusted_sub < 1:
            return []
        events: List[AuthEvent] = []
        lo = self._params.flatten(chain, 1)
        hi = self._params.flatten(chain, trusted_sub)
        for flat in list(self._data_pool.active_indices):
            if not lo <= flat <= hi:
                continue
            _high, sub = self._params.split(flat)
            key = state.authenticator.derive_older(sub)
            records = self._data_pool.release(flat)
            seen: Set[Tuple[bytes, bytes]] = set()
            unique: List[StoredPacketRecord] = []
            for record in records:
                fingerprint = (record.message, record.mac)
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                unique.append(record)
            # One low-chain key covers the whole flat interval's buffer:
            # share its HMAC key-block across the batch.
            outcomes = self._mac.verify_many(
                key, [(record.message, record.mac) for record in unique]
            )
            for record, authentic in zip(unique, outcomes):
                if authentic:
                    self._authenticated_messages.add((flat, record.message))
                    events.append(
                        AuthEvent(
                            flat,
                            AuthOutcome.AUTHENTICATED,
                            record.provenance,
                            record.message,
                        )
                    )
                else:
                    events.append(
                        AuthEvent(
                            flat,
                            AuthOutcome.REJECTED_FORGED,
                            record.provenance,
                            record.message,
                        )
                    )
        return events

    @property
    def authenticated_messages(self) -> Set[Tuple[int, bytes]]:
        """(flat interval, message) pairs that strong-authenticated."""
        return set(self._authenticated_messages)

    def expire_older_than(self, flat: int) -> List[AuthEvent]:
        """Abandon data and CDM state for intervals older than ``flat``.

        Long-lived receivers call this periodically: records whose keys
        were permanently lost (and CDM copies for long-dead high
        intervals) otherwise accumulate forever. Emits
        ``EXPIRED_UNVERIFIED`` for every abandoned data record.
        """
        if flat < 1:
            raise ConfigurationError(f"flat must be >= 1, got {flat}")
        events: List[AuthEvent] = []
        for index in list(self._data_pool.active_indices):
            if index < flat:
                for record in self._data_pool.release(index):
                    events.append(
                        AuthEvent(
                            index,
                            AuthOutcome.EXPIRED_UNVERIFIED,
                            record.provenance,
                            record.message,
                        )
                    )
        high_cutoff, _sub = self._params.split(flat)
        self._cdm_pool.release_older_than(high_cutoff)
        return self._emit(events)
