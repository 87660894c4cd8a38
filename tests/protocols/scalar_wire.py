"""The wire decoder as it was before it read fixed-width fields with
precompiled ``struct`` layouts: a bounds-checked ``_Reader`` cursor,
one ``take`` per field.

Kept as the oracle ``tests/protocols/test_wire.py`` pins
:func:`repro.protocols.wire.decode_packet` to: on any buffer, the same
packet, or :class:`~repro.errors.ProtocolError` from both.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict

from repro.errors import ProtocolError
from repro.protocols.packets import (
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    TeslaPacket,
)
from repro.protocols.wire import WirePacket

_KEY_BYTES = 10
_U32 = struct.Struct(">I")


class _Reader:
    """Bounds-checked cursor over a byte buffer."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if count < 0 or self.pos + count > len(self.data):
            raise ProtocolError(
                f"truncated packet: wanted {count} bytes at offset {self.pos},"
                f" have {len(self.data) - self.pos}"
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def fixed(self) -> bytes:
        return self.take(_KEY_BYTES)

    def blob(self) -> bytes:
        return self.take(self.u8())

    def optional_fixed(self) -> bytes:
        """A presence byte followed by a fixed-width field when present."""
        if self.u8():
            return self.fixed()
        return b""

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise ProtocolError(
                f"{len(self.data) - self.pos} trailing bytes after packet"
            )



def _decode_tesla(reader: _Reader) -> TeslaPacket:
    return TeslaPacket(
        index=reader.u32(),
        message=reader.blob(),
        mac=reader.fixed(),
        disclosed_index=reader.u32(),
        disclosed_key=reader.optional_fixed() or None,
    )


def _decode_mu_data(reader: _Reader) -> MuTeslaDataPacket:
    return MuTeslaDataPacket(
        index=reader.u32(), message=reader.blob(), mac=reader.fixed()
    )


def _decode_disclosure(reader: _Reader) -> KeyDisclosurePacket:
    return KeyDisclosurePacket(index=reader.u32(), key=reader.fixed())


def _decode_cdm(reader: _Reader) -> CdmPacket:
    return CdmPacket(
        high_index=reader.u32(),
        low_commitment=reader.fixed(),
        mac=reader.fixed(),
        disclosed_index=reader.u32(),
        disclosed_key=reader.optional_fixed() or None,
        next_cdm_hash=reader.optional_fixed() or None,
    )


def _decode_announce(reader: _Reader) -> MacAnnouncePacket:
    return MacAnnouncePacket(index=reader.u32(), mac=reader.fixed())


def _decode_message_key(reader: _Reader) -> MessageKeyPacket:
    return MessageKeyPacket(
        index=reader.u32(), message=reader.blob(), key=reader.fixed()
    )


_DECODERS: Dict[int, Callable[[_Reader], WirePacket]] = {
    0x01: _decode_tesla,
    0x02: _decode_mu_data,
    0x03: _decode_disclosure,
    0x04: _decode_cdm,
    0x05: _decode_announce,
    0x06: _decode_message_key,
}


def reader_decode_packet(data: bytes) -> WirePacket:
    """The old :func:`repro.protocols.wire.decode_packet` body."""
    if not data:
        raise ProtocolError("empty buffer")
    reader = _Reader(bytes(data))
    tag = reader.u8()
    decoder = _DECODERS.get(tag)
    if decoder is None:
        raise ProtocolError(f"unknown packet tag 0x{tag:02x}")
    packet = decoder(reader)
    reader.finish()
    return packet
