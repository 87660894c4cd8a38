"""μTESLA (SPINS, 2002) — TESLA adapted to lightweight networks.

Two changes versus TESLA (§II-A of the paper):

1. bootstrap uses symmetric mechanisms (modelled here as the authentic
   ``bootstrap`` dictionary — the simulator delivers it out of band);
2. the key is disclosed **once per epoch** in its own small packet
   instead of riding on every data packet, saving bandwidth.

Receivers share the :class:`ChainReceiverCore` machinery with TESLA:
buffer ``(message, MAC)`` records, verify retroactively on disclosure.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.pebbled import KeyChainLike, make_key_chain
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import ConfigurationError
from repro.protocols._chain_receiver import ChainReceiverCore
from repro.protocols.base import AuthEvent, BroadcastReceiver, BroadcastSender
from repro.protocols.messages import default_message
from repro.protocols.packets import KeyDisclosurePacket, MuTeslaDataPacket
from repro.timesync.sync import SecurityCondition

__all__ = ["MuTeslaSender", "MuTeslaReceiver", "MuTeslaPacketTypes"]

MuTeslaPacketTypes = Union[MuTeslaDataPacket, KeyDisclosurePacket]


class MuTeslaSender(BroadcastSender):
    """μTESLA sender: data packets plus one per-epoch key disclosure.

    Args mirror :class:`~repro.protocols.tesla.TeslaSender`; the
    difference is in what ``packets_for_interval`` emits.
    """

    def __init__(
        self,
        seed: bytes,
        chain_length: int,
        disclosure_delay: int = 2,
        packets_per_interval: int = 1,
        disclosures_per_interval: int = 1,
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
        if disclosures_per_interval < 1:
            raise ConfigurationError(
                f"disclosures_per_interval must be >= 1, got {disclosures_per_interval}"
            )
        self._chain = make_key_chain(seed, chain_length, function)
        self._delay = disclosure_delay
        self._per_interval = packets_per_interval
        self._disclosures = disclosures_per_interval
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

    def packets_for_interval(self, index: int) -> Sequence[MuTeslaPacketTypes]:
        """Data packets MAC'd with ``K_index`` plus disclosure of ``K_{index-d}``.

        Disclosures may be repeated (``disclosures_per_interval``) to
        tolerate loss — each copy is tiny (112 bits).
        """
        if index < 1 or index > self._chain.length:
            raise ConfigurationError(
                f"interval {index} outside chain 1..{self._chain.length}"
            )
        packets: List[MuTeslaPacketTypes] = []
        for message, mac in zip(*self.messages_and_macs(index)):
            packets.append(
                MuTeslaDataPacket(index=index, message=message, mac=mac)
            )
        disclosed_index = index - self._delay
        if disclosed_index >= 1:
            disclosure = KeyDisclosurePacket(
                index=disclosed_index, key=self._chain.key(disclosed_index)
            )
            packets.extend([disclosure] * self._disclosures)
        return packets


class MuTeslaReceiver(BroadcastReceiver):
    """μTESLA receiver: dispatches data vs key-disclosure packets."""

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

    def receive(self, packet: MuTeslaPacketTypes, now: float) -> List[AuthEvent]:
        self._stats.packets_received += 1
        if isinstance(packet, MuTeslaDataPacket):
            events = self._core.handle_data(
                packet.index, packet.message, packet.mac, packet.provenance, now
            )
        elif isinstance(packet, KeyDisclosurePacket):
            events = self._core.handle_disclosure(
                packet.index, packet.key, packet.provenance
            )
        else:
            raise TypeError(
                f"MuTeslaReceiver cannot handle {type(packet).__name__}"
            )
        return self._emit(events)

    def expire_older_than(self, interval: int) -> List[AuthEvent]:
        """Abandon unverifiable intervals older than ``interval``."""
        return self._emit(self._core.expire_older_than(interval))
