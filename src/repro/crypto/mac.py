"""Message-authentication-code schemes for the protocol family.

Two schemes are needed:

:class:`MacScheme`
    The sender-side MAC attached to broadcast packets,
    ``MAC_i = MAC_{K_i}(M_i)`` — 80 bits in the paper's accounting.

:class:`MicroMacScheme`
    The receiver-side re-hash used by TESLA++ and DAP,
    ``μMAC_i = MAC_{K_recv}(MAC_i)`` — 24 bits. Storing the μMAC plus a
    32-bit index (56 bits total) instead of message+MAC (280 bits) is the
    ~80% memory saving the paper claims in §IV-D.

Both are instantiated as HMAC-SHA-256 truncated to the configured width.
Truncation widths are explicit so the bit-accurate storage model in
:mod:`repro.protocols.packets` matches the paper's numbers.
"""

from __future__ import annotations

import hmac as _hmac
from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro import perf
from repro.crypto import kernels
from repro.crypto.onewayfn import truncate_to_bits
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_MAC_BITS",
    "MICRO_MAC_BITS",
    "MESSAGE_BITS",
    "INDEX_BITS",
    "MacScheme",
    "MicroMacScheme",
]

#: MAC width used on the wire (Fig. 4: "MACi (80b)").
DEFAULT_MAC_BITS = 80
#: μMAC width stored at receivers (Fig. 4: 24 bits).
MICRO_MAC_BITS = 24
#: Message payload width assumed by the paper's accounting (Fig. 4: 200b).
MESSAGE_BITS = 200
#: Interval-index width (Fig. 4 shows 32b on the wire; §IV-D stores 56
#: bits per packet = 24-bit μMAC + 32-bit index).
INDEX_BITS = 32


def _truncated_macs(
    key: bytes, messages: Iterable[bytes], bits: int, label: bytes
) -> List[bytes]:
    """HMAC-SHA-256 over ``label || "|" || m`` for each ``m``, truncated
    to ``bits`` by :func:`~repro.crypto.onewayfn.truncate_to_bits`.

    The kernel slices each digest to whole bytes; only a width with
    spare bits in its last byte needs the masking pass.
    """
    out = kernels.hmac_sha256_many(key, label, messages, (bits + 7) // 8)
    if bits % 8:
        out = [truncate_to_bits(tag, bits) for tag in out]
    return out


def _hmac_truncated(key: bytes, message: bytes, bits: int, label: bytes) -> bytes:
    """One HMAC-SHA-256 over ``label || "|" || message``, truncated as
    :func:`_truncated_macs` truncates, through the scalar kernel."""
    if perf.ACTIVE is not None:
        perf.ACTIVE.incr("crypto.mac")
    tag = kernels.hmac_sha256(key, label, message, (bits + 7) // 8)
    return truncate_to_bits(tag, bits) if bits % 8 else tag


@dataclass(frozen=True)
class MacScheme:
    """HMAC-SHA-256 truncated to ``mac_bits`` (default 80).

    Used by senders to authenticate broadcast messages under the
    interval key, and by receivers to recompute the expected MAC once
    the key is disclosed.
    """

    mac_bits: int = DEFAULT_MAC_BITS

    def __post_init__(self) -> None:
        if self.mac_bits <= 0 or self.mac_bits > 256:
            raise ConfigurationError(
                f"mac_bits must be in (0, 256], got {self.mac_bits}"
            )

    def compute(self, key: bytes, message: bytes) -> bytes:
        """Compute ``MAC_key(message)``."""
        if not key:
            raise ConfigurationError("MAC key must be non-empty")
        return _hmac_truncated(bytes(key), message, self.mac_bits, b"repro.mac")

    def compute_many(self, key: bytes, messages: Iterable[bytes]) -> List[bytes]:
        """Batched :meth:`compute` over ``messages`` under one key.

        Sender-side slot construction MACs every message of a broadcast
        slot under the same interval key; sharing the HMAC pad
        midstates across the batch pays key preparation once instead of
        per packet. Bit-identical, positionally, to per-message
        :meth:`compute`.
        """
        if not key:
            raise ConfigurationError("MAC key must be non-empty")
        items = list(messages)
        if not items:
            return []
        if perf.ACTIVE is not None:
            perf.ACTIVE.incr("crypto.mac", len(items))
            perf.ACTIVE.incr("crypto.mac.batches")
        return _truncated_macs(bytes(key), items, self.mac_bits, b"repro.mac")

    def verify(self, key: bytes, message: bytes, mac: bytes) -> bool:
        """Constant-time check that ``mac`` authenticates ``message``."""
        return _hmac.compare_digest(self.compute(key, message), bytes(mac))

    def verify_many(
        self, key: bytes, pairs: Iterable[Tuple[bytes, bytes]]
    ) -> List[bool]:
        """Batched :meth:`verify` over ``(message, mac)`` pairs.

        Receiver-side interval verification checks a whole buffer of
        records under one disclosed key; sharing the HMAC key-block
        state across the batch pays the key preparation once instead of
        per record. All expected digests are computed first, then
        compared in one pass. Results are positionally identical to
        calling :meth:`verify` per pair.
        """
        items = list(pairs)
        expected = self.compute_many(key, (message for message, _mac in items))
        return [
            _hmac.compare_digest(digest, bytes(mac))
            for digest, (_message, mac) in zip(expected, items)
        ]


@dataclass(frozen=True)
class MicroMacScheme:
    """Receiver-local re-hash of an incoming MAC into a short μMAC.

    Each receiver holds a private local key ``K_recv`` (never shared, so
    an attacker cannot target μMAC collisions offline). The μMAC is what
    gets buffered; on key disclosure the receiver recomputes
    ``μMAC' = MAC_{K_recv}(MAC_{K_i}(M_i))`` and compares.
    """

    micro_mac_bits: int = MICRO_MAC_BITS

    def __post_init__(self) -> None:
        if self.micro_mac_bits <= 0 or self.micro_mac_bits > 256:
            raise ConfigurationError(
                f"micro_mac_bits must be in (0, 256], got {self.micro_mac_bits}"
            )

    def compute(self, local_key: bytes, mac: bytes) -> bytes:
        """Compute ``μMAC = MAC_{local_key}(mac)``."""
        if not local_key:
            raise ConfigurationError("receiver local key must be non-empty")
        return _hmac_truncated(
            bytes(local_key), mac, self.micro_mac_bits, b"repro.umac"
        )

    def compute_many(self, local_key: bytes, macs: Iterable[bytes]) -> List[bytes]:
        """Batched :meth:`compute` over ``macs`` under one local key.

        The shape of reveal-time strong authentication: one receiver
        re-hashes every buffered MAC of a slot under its private key.
        One pair of HMAC pad midstates serves the whole batch; results are
        positionally identical to per-MAC :meth:`compute`.
        """
        if not local_key:
            raise ConfigurationError("receiver local key must be non-empty")
        items = list(macs)
        if not items:
            return []
        if perf.ACTIVE is not None:
            perf.ACTIVE.incr("crypto.mac", len(items))
            perf.ACTIVE.incr("crypto.mac.batches")
        return _truncated_macs(
            bytes(local_key), items, self.micro_mac_bits, b"repro.umac"
        )

    def verify(self, local_key: bytes, mac: bytes, micro_mac: bytes) -> bool:
        """Constant-time check of a stored μMAC against a recomputed MAC."""
        return _hmac.compare_digest(self.compute(local_key, mac), bytes(micro_mac))

    def verify_many(
        self, local_key: bytes, pairs: Iterable[Tuple[bytes, bytes]]
    ) -> List[bool]:
        """Batched :meth:`verify` over ``(mac, micro_mac)`` pairs.

        All expected μMACs are computed first (one key-block setup for
        the batch), then compared in one pass. Positionally identical
        to per-pair :meth:`verify`.
        """
        items = list(pairs)
        expected = self.compute_many(
            local_key, (mac for mac, _micro in items)
        )
        return [
            _hmac.compare_digest(digest, bytes(micro))
            for digest, (_mac, micro) in zip(expected, items)
        ]
