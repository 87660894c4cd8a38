"""Wire codec: byte serialization for every packet type.

The in-memory dataclasses in :mod:`repro.protocols.packets` model the
paper's bit-accurate field widths; this module gives them an actual
encoding so packets can cross a socket, be captured to disk, or be
fuzzed as byte strings. The format is deliberately simple and
deterministic:

``type_tag (1 B) | fixed-width fields in declaration order``

Variable-width fields (messages) are length-prefixed with one byte.
Encodings are byte-aligned, so ``len(encode(p)) * 8`` is slightly larger
than the information-theoretic ``p.wire_bits`` the analyses count —
:func:`framing_overhead_bits` reports exactly how much.

Decoding is strict: unknown tags, truncated buffers, trailing bytes and
presence flags other than 0 or 1 all raise
:class:`~repro.errors.ProtocolError` (never crash, never guess), so a
buffer decodes only if it is the one encoding of its packet — the
decode fuzzer in the test suite holds the codec to that.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import ProtocolError
from repro.protocols.packets import (
    LEGITIMATE,
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    TeslaPacket,
)

__all__ = ["encode_packet", "decode_packet", "framing_overhead_bits", "WirePacket"]

WirePacket = Union[
    TeslaPacket,
    MuTeslaDataPacket,
    KeyDisclosurePacket,
    CdmPacket,
    MacAnnouncePacket,
    MessageKeyPacket,
]

_KEY_BYTES = 10  # 80-bit keys/MACs/commitments/hashes
_TAGS = {
    TeslaPacket: 0x01,
    MuTeslaDataPacket: 0x02,
    KeyDisclosurePacket: 0x03,
    CdmPacket: 0x04,
    MacAnnouncePacket: 0x05,
    MessageKeyPacket: 0x06,
}
_U32 = struct.Struct(">I")


def _u32(value: int) -> bytes:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ProtocolError(f"index {value} does not fit the 32-bit wire field")
    return _U32.pack(value)


def _fixed(value: bytes, name: str) -> bytes:
    if len(value) != _KEY_BYTES:
        raise ProtocolError(
            f"{name} must be {_KEY_BYTES} bytes on the wire, got {len(value)}"
        )
    return value


def _blob(value: bytes, name: str) -> bytes:
    if len(value) > 255:
        raise ProtocolError(f"{name} exceeds the 255-byte wire limit")
    return bytes([len(value)]) + value


def _optional_fixed(value, name: str) -> bytes:
    if value is None or value == b"":
        return b"\x00"
    return b"\x01" + _fixed(value, name)


def encode_packet(packet: WirePacket) -> bytes:
    """Serialize any protocol packet to bytes.

    Raises:
        ProtocolError: for field values that cannot be represented
            (over-long messages, wrongly sized keys, huge indices).
    """
    tag = _TAGS.get(type(packet))
    if tag is None:
        raise ProtocolError(f"cannot encode {type(packet).__name__}")
    head = bytes([tag])
    if isinstance(packet, TeslaPacket):
        return (
            head
            + _u32(packet.index)
            + _blob(packet.message, "message")
            + _fixed(packet.mac, "mac")
            + _u32(packet.disclosed_index)
            + _optional_fixed(packet.disclosed_key, "disclosed_key")
        )
    if isinstance(packet, MuTeslaDataPacket):
        return (
            head
            + _u32(packet.index)
            + _blob(packet.message, "message")
            + _fixed(packet.mac, "mac")
        )
    if isinstance(packet, KeyDisclosurePacket):
        return head + _u32(packet.index) + _fixed(packet.key, "key")
    if isinstance(packet, CdmPacket):
        return (
            head
            + _u32(packet.high_index)
            + _fixed(packet.low_commitment, "low_commitment")
            + _fixed(packet.mac, "mac")
            + _u32(packet.disclosed_index)
            + _optional_fixed(packet.disclosed_key, "disclosed_key")
            + _optional_fixed(packet.next_cdm_hash, "next_cdm_hash")
        )
    if isinstance(packet, MacAnnouncePacket):
        return head + _u32(packet.index) + _fixed(packet.mac, "mac")
    # MessageKeyPacket
    return (
        head
        + _u32(packet.index)
        + _blob(packet.message, "message")
        + _fixed(packet.key, "key")
    )


# Decoding. Each tag's layout is a short run of precompiled ``struct``
# reads at known offsets; a variable part (a length-prefixed message, a
# presence-flagged field) ends one read and sizes the next. Every read
# and the final size are checked against the buffer length first, so a
# short or long buffer raises before any field is built.

_INDEX_FIXED = struct.Struct(">BI10s")  # tag, index, 10-byte field
_INDEX_LENGTH = struct.Struct(">BIB")  # tag, index, message length
_FIXED = struct.Struct(">10s")
_FIXED_INDEX = struct.Struct(">10sI")  # mac, disclosed index
_CDM_HEAD = struct.Struct(">BI10s10sI")  # tag, index, commitment, mac, disclosed


def _size_error(data: bytes, size: int) -> ProtocolError:
    """The error for a buffer that is not ``size`` bytes long."""
    if len(data) < size:
        return ProtocolError(
            f"truncated packet: wanted {size} bytes, have {len(data)}"
        )
    return ProtocolError(f"{len(data) - size} trailing bytes after packet")


def _read_optional_fixed(data: bytes, flag_at: int) -> Tuple[Optional[bytes], int]:
    """A presence byte at ``flag_at`` and the 10-byte field after it
    when the byte is 1: ``(field or None, end offset)``. Any other flag
    than 0 or 1 is rejected, so every packet has one encoding."""
    if len(data) <= flag_at:
        raise _size_error(data, flag_at + 1)
    flag = data[flag_at]
    if flag == 0:
        return None, flag_at + 1
    if flag != 1:
        raise ProtocolError(f"presence flag 0x{flag:02x} at offset {flag_at}")
    end = flag_at + 1 + _KEY_BYTES
    if len(data) < end:
        raise _size_error(data, end)
    return data[flag_at + 1 : end], end


def _decode_tesla(data: bytes, provenance: str) -> TeslaPacket:
    if len(data) < _INDEX_LENGTH.size:
        raise _size_error(data, _INDEX_LENGTH.size)
    _tag, index, length = _INDEX_LENGTH.unpack_from(data)
    body = _INDEX_LENGTH.size + length
    if len(data) < body + _FIXED_INDEX.size:
        raise _size_error(data, body + _FIXED_INDEX.size)
    mac, disclosed_index = _FIXED_INDEX.unpack_from(data, body)
    key, end = _read_optional_fixed(data, body + _FIXED_INDEX.size)
    if len(data) != end:
        raise _size_error(data, end)
    return TeslaPacket(
        index, data[_INDEX_LENGTH.size : body], mac, disclosed_index, key, provenance
    )


def _index_message_fixed(
    packet_type: Callable[..., WirePacket]
) -> Callable[[bytes, str], WirePacket]:
    """The decoder of ``tag | index | message | 10-byte field`` (the
    μTESLA data packet's MAC, the DAP reveal's key)."""

    def decode(data: bytes, provenance: str) -> WirePacket:
        if len(data) < _INDEX_LENGTH.size:
            raise _size_error(data, _INDEX_LENGTH.size)
        _tag, index, length = _INDEX_LENGTH.unpack_from(data)
        body = _INDEX_LENGTH.size + length
        if len(data) != body + _FIXED.size:
            raise _size_error(data, body + _FIXED.size)
        (field,) = _FIXED.unpack_from(data, body)
        return packet_type(index, data[_INDEX_LENGTH.size : body], field, provenance)

    return decode


def _index_fixed(
    packet_type: Callable[..., WirePacket]
) -> Callable[[bytes, str], WirePacket]:
    """The decoder of ``tag | index | 10-byte field`` (a key
    disclosure's key, a DAP announce's MAC)."""

    def decode(data: bytes, provenance: str) -> WirePacket:
        if len(data) != _INDEX_FIXED.size:
            raise _size_error(data, _INDEX_FIXED.size)
        _tag, index, field = _INDEX_FIXED.unpack_from(data)
        return packet_type(index, field, provenance)

    return decode


def _decode_cdm(data: bytes, provenance: str) -> CdmPacket:
    if len(data) < _CDM_HEAD.size:
        raise _size_error(data, _CDM_HEAD.size)
    _tag, high_index, low_commitment, mac, disclosed_index = _CDM_HEAD.unpack_from(
        data
    )
    key, flag_at = _read_optional_fixed(data, _CDM_HEAD.size)
    next_hash, end = _read_optional_fixed(data, flag_at)
    if len(data) != end:
        raise _size_error(data, end)
    return CdmPacket(
        high_index, low_commitment, mac, disclosed_index, key, next_hash, provenance
    )


_DECODERS: Dict[int, Callable[[bytes, str], WirePacket]] = {
    _TAGS[TeslaPacket]: _decode_tesla,
    _TAGS[MuTeslaDataPacket]: _index_message_fixed(MuTeslaDataPacket),
    _TAGS[KeyDisclosurePacket]: _index_fixed(KeyDisclosurePacket),
    _TAGS[CdmPacket]: _decode_cdm,
    _TAGS[MacAnnouncePacket]: _index_fixed(MacAnnouncePacket),
    _TAGS[MessageKeyPacket]: _index_message_fixed(MessageKeyPacket),
}


def decode_packet(data: bytes, provenance: str = LEGITIMATE) -> WirePacket:
    """Parse bytes back into a packet (strict; see module docs).

    The wire carries no provenance (it is simulation bookkeeping), so
    the packet is tagged with ``provenance``: ``legitimate`` unless the
    caller knows better, as a receiver daemon with the harness's
    ground-truth registry does.
    """
    data = bytes(data)
    if not data:
        raise ProtocolError("empty buffer")
    decoder = _DECODERS.get(data[0])
    if decoder is None:
        raise ProtocolError(f"unknown packet tag 0x{data[0]:02x}")
    return decoder(data, provenance)


def framing_overhead_bits(packet: WirePacket) -> int:
    """Encoded size minus the analyses' information-theoretic size."""
    return len(encode_packet(packet)) * 8 - packet.wire_bits
