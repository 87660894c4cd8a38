"""TESLA (Perrig et al., IEEE S&P 2000) — the family's ancestor.

Each packet carries the interval message, its MAC under the interval
key, and a piggybacked disclosure of the key from ``d`` intervals ago.
Receivers buffer full ``(message, MAC)`` records (280 bits each in the
paper's accounting) until the key arrives, which is exactly the memory
exposure the later protocols attack.

This implementation is the *loss-tolerant* textbook TESLA: disclosures
authenticate across gaps via the one-way chain, and verification is
retroactive for every buffered interval the new anchor covers.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.pebbled import KeyChainLike, make_key_chain
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError
from repro.protocols._chain_receiver import ChainReceiverCore
from repro.protocols.base import AuthEvent, BroadcastReceiver, BroadcastSender
from repro.protocols.messages import default_message
from repro.protocols.packets import TeslaPacket
from repro.timesync.sync import SecurityCondition

__all__ = ["TeslaSender", "TeslaReceiver"]


class TeslaSender(BroadcastSender):
    """TESLA sender: one key chain, per-packet key disclosure.

    Args:
        seed: secret chain seed.
        chain_length: number of intervals the chain covers.
        disclosure_delay: ``d`` — ``K_i`` is disclosed starting in
            interval ``i + d``.
        packets_per_interval: data packets broadcast each interval.
        message_for: payload generator ``(interval, copy) -> bytes``.
        mac_scheme / function: crypto parameters (defaults match the
            paper's 80-bit accounting).
    """

    def __init__(
        self,
        seed: bytes,
        chain_length: int,
        disclosure_delay: int = 2,
        packets_per_interval: int = 1,
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
        self._chain = make_key_chain(seed, chain_length, function)
        self._delay = disclosure_delay
        self._per_interval = packets_per_interval
        self._message_for = message_for or default_message
        self._mac = mac_scheme or MacScheme()

    @property
    def chain(self) -> KeyChainLike:
        """The sender's key chain (exposed for tests and bootstrap)."""
        return self._chain

    @property
    def disclosure_delay(self) -> int:
        """``d`` in intervals."""
        return self._delay

    @property
    def bootstrap(self) -> Dict[str, object]:
        return {
            "commitment": self._chain.commitment,
            "disclosure_delay": self._delay,
            "chain_length": self._chain.length,
        }

    def messages_and_macs(self, index: int) -> Tuple[List[bytes], List[bytes]]:
        """Interval ``index``'s messages and their MACs under ``K_index``
        (one batched MAC call: the key's HMAC pads serve the whole slot)."""
        messages = [
            self._message_for(index, copy) for copy in range(self._per_interval)
        ]
        return messages, self._mac.compute_many(self._chain.key(index), messages)

    def packets_for_interval(self, index: int) -> Sequence[TeslaPacket]:
        """Data packets for interval ``index``, each disclosing ``K_{i-d}``."""
        if index < 1 or index > self._chain.length:
            raise ConfigurationError(
                f"interval {index} outside chain 1..{self._chain.length}"
            )
        messages, macs = self.messages_and_macs(index)
        disclosed_index = index - self._delay
        disclosed_key = (
            self._chain.key(disclosed_index) if disclosed_index >= 1 else None
        )
        packets = []
        for message, mac in zip(messages, macs):
            packets.append(
                TeslaPacket(
                    index=index,
                    message=message,
                    mac=mac,
                    disclosed_index=max(disclosed_index, 0),
                    disclosed_key=disclosed_key,
                )
            )
        return packets


class TeslaReceiver(BroadcastReceiver):
    """TESLA receiver: buffer full records, verify on piggybacked disclosure.

    The default buffering strategy is ``keep_first`` — classic TESLA has
    no flooding defence, which the DoS benches exploit. Pass
    ``buffer_strategy="reservoir"`` to graft Algorithm 2 onto it for
    ablations.
    """

    def __init__(
        self,
        commitment: bytes,
        condition: SecurityCondition,
        function: Optional[OneWayFunction] = None,
        mac_scheme: Optional[MacScheme] = None,
        buffer_capacity: int = 64,
        buffer_strategy: str = "keep_first",
        max_intervals: Optional[int] = None,
        rng: Optional[random.Random] = None,
        walk_cache: Optional[ChainWalkCache] = None,
    ) -> None:
        super().__init__()
        self._core = ChainReceiverCore(
            commitment=commitment,
            function=function or OneWayFunction("F"),
            condition=condition,
            mac_scheme=mac_scheme or MacScheme(),
            buffer_capacity=buffer_capacity,
            buffer_strategy=buffer_strategy,
            max_intervals=max_intervals,
            stats=self._stats,
            rng=rng,
            walk_cache=walk_cache,
        )

    @property
    def trusted_index(self) -> int:
        """Newest authenticated chain index."""
        return self._core.trusted_index

    @property
    def authenticated_intervals(self):
        """Intervals with at least one authenticated message."""
        return self._core.authenticated_intervals

    @property
    def buffered_bits(self) -> int:
        """Current buffer footprint in bits."""
        return self._core.pool.stored_bits

    def receive(self, packet: TeslaPacket, now: float) -> List[AuthEvent]:
        if not isinstance(packet, TeslaPacket):
            raise TypeError(f"TeslaReceiver cannot handle {type(packet).__name__}")
        self._stats.packets_received += 1
        events = self._core.handle_data(
            packet.index, packet.message, packet.mac, packet.provenance, now
        )
        if packet.disclosed_key is not None:
            events.extend(
                self._core.handle_disclosure(
                    packet.disclosed_index, packet.disclosed_key, packet.provenance
                )
            )
        return self._emit(events)

    def expire_older_than(self, interval: int) -> List[AuthEvent]:
        """Abandon unverifiable intervals older than ``interval``."""
        return self._emit(self._core.expire_older_than(interval))
