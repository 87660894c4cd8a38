"""Round-trip and fuzz tests for the wire codec."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    TeslaPacket,
)
from repro.protocols.wire import (
    decode_packet,
    encode_packet,
    framing_overhead_bits,
)
from tests.protocols.scalar_wire import reader_decode_packet

KEY = b"\x11" * 10
MAC = b"\x22" * 10
MSG = b"m" * 25

SAMPLES = [
    TeslaPacket(7, MSG, MAC, 5, KEY),
    TeslaPacket(1, MSG, MAC, 0, None),
    MuTeslaDataPacket(3, MSG, MAC),
    KeyDisclosurePacket(9, KEY),
    CdmPacket(4, KEY, MAC, 3, KEY, next_cdm_hash=b"\x33" * 10),
    CdmPacket(4, KEY, MAC, 0, None, next_cdm_hash=None),
    MacAnnouncePacket(12, MAC),
    MessageKeyPacket(11, MSG, KEY),
]


class TestRoundTrip:
    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_roundtrip_identity(self, packet):
        assert decode_packet(encode_packet(packet)) == packet

    def test_empty_message_roundtrips(self):
        packet = MuTeslaDataPacket(1, b"", MAC)
        assert decode_packet(encode_packet(packet)) == packet

    def test_encoding_is_deterministic(self):
        packet = MacAnnouncePacket(5, MAC)
        assert encode_packet(packet) == encode_packet(packet)

    def test_distinct_packets_distinct_encodings(self):
        a = encode_packet(MacAnnouncePacket(5, MAC))
        b = encode_packet(MacAnnouncePacket(6, MAC))
        assert a != b

    @given(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        st.binary(min_size=0, max_size=255),
    )
    @settings(max_examples=60)
    def test_arbitrary_message_key_roundtrip(self, index, message):
        packet = MessageKeyPacket(index, message, KEY)
        assert decode_packet(encode_packet(packet)) == packet


class TestFramingOverhead:
    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_overhead_is_small_and_nonnegative(self, packet):
        overhead = framing_overhead_bits(packet)
        assert 0 <= overhead <= 48  # tag + length/presence bytes only

    def test_announce_frame_is_8_bits_over(self):
        # 112-bit payload + 1 tag byte = 120 bits on the wire.
        assert framing_overhead_bits(MacAnnouncePacket(1, MAC)) == 8


class TestEncodeValidation:
    def test_unencodable_type_rejected(self):
        with pytest.raises(ProtocolError):
            encode_packet(object())  # type: ignore[arg-type]

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ProtocolError):
            encode_packet(KeyDisclosurePacket(1, b"short"))

    def test_oversized_message_rejected(self):
        with pytest.raises(ProtocolError):
            encode_packet(MessageKeyPacket(1, b"x" * 300, KEY))

    def test_negative_index_rejected(self):
        with pytest.raises(ProtocolError):
            encode_packet(MacAnnouncePacket(-1, MAC))

    def test_oversized_index_rejected(self):
        with pytest.raises(ProtocolError):
            encode_packet(MacAnnouncePacket(2 ** 40, MAC))


class TestDecodeRobustness:
    def test_empty_buffer(self):
        with pytest.raises(ProtocolError):
            decode_packet(b"")

    def test_unknown_tag(self):
        with pytest.raises(ProtocolError):
            decode_packet(b"\xff\x00\x00\x00\x01")

    def test_truncation_every_prefix(self):
        """No prefix of a valid packet decodes (or crashes)."""
        full = encode_packet(CdmPacket(4, KEY, MAC, 3, KEY, next_cdm_hash=KEY))
        for cut in range(len(full)):
            with pytest.raises(ProtocolError):
                decode_packet(full[:cut])

    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_truncation_fuzz_every_type_every_boundary(self, packet):
        """Fuzz: every encoded packet type, cut at every byte boundary,
        must raise ProtocolError — exactly what a receiver daemon sees
        when a datagram is clipped in flight."""
        full = encode_packet(packet)
        for cut in range(len(full)):
            with pytest.raises(ProtocolError):
                decode_packet(full[:cut])

    def test_trailing_garbage_rejected(self):
        full = encode_packet(MacAnnouncePacket(1, MAC))
        with pytest.raises(ProtocolError):
            decode_packet(full + b"\x00")

    @pytest.mark.parametrize("flag", [0x02, 0x7F, 0x80, 0xFF])
    def test_tesla_presence_flag_must_be_0_or_1(self, flag):
        """A TESLA key flag other than 1 before a key is a second
        encoding of the same packet; it is rejected."""
        full = bytearray(encode_packet(TeslaPacket(7, MSG, MAC, 5, KEY)))
        flag_at = len(full) - len(KEY) - 1
        assert full[flag_at] == 0x01
        full[flag_at] = flag
        with pytest.raises(ProtocolError, match="presence flag"):
            decode_packet(bytes(full))

    @pytest.mark.parametrize("flag", [0x02, 0xFF])
    def test_cdm_presence_flags_must_be_0_or_1(self, flag):
        packet = CdmPacket(4, KEY, MAC, 3, KEY, next_cdm_hash=b"\x33" * 10)
        full = encode_packet(packet)
        key_flag_at = len(full) - 2 * (len(KEY) + 1)
        hash_flag_at = len(full) - len(KEY) - 1
        for flag_at in (key_flag_at, hash_flag_at):
            data = bytearray(full)
            assert data[flag_at] == 0x01
            data[flag_at] = flag
            with pytest.raises(ProtocolError, match="presence flag"):
                decode_packet(bytes(data))
        absent = encode_packet(CdmPacket(4, KEY, MAC, 3, None, next_cdm_hash=None))
        data = bytearray(absent)
        data[-1] = flag
        with pytest.raises(ProtocolError):
            decode_packet(bytes(data))

    @pytest.mark.parametrize("packet", SAMPLES, ids=lambda p: type(p).__name__)
    def test_every_decodable_byte_change_re_encodes_to_itself(self, packet):
        """One encoding per packet: any one-byte change that still
        decodes re-encodes to exactly the changed bytes."""
        full = encode_packet(packet)
        for position in range(len(full)):
            for value in range(256):
                data = bytearray(full)
                data[position] = value
                try:
                    decoded = decode_packet(bytes(data))
                except ProtocolError:
                    continue
                assert encode_packet(decoded) == bytes(data)

    @given(st.binary(min_size=0, max_size=80))
    @settings(max_examples=200)
    def test_random_bytes_never_crash(self, data):
        """Fuzz: arbitrary buffers either decode to a packet or raise
        ProtocolError — nothing else."""
        try:
            packet = decode_packet(data)
        except ProtocolError:
            return
        # whatever decoded must re-encode to the same bytes
        assert encode_packet(packet) == bytes(data)

    @given(st.binary(min_size=1, max_size=60), st.integers(0, 59))
    @settings(max_examples=100)
    def test_bit_flips_never_crash(self, data, position):
        """Corrupted valid packets are handled like any other buffer."""
        base = bytearray(encode_packet(MuTeslaDataPacket(3, MSG, MAC)))
        base[position % len(base)] ^= 0xFF
        try:
            decode_packet(bytes(base))
        except ProtocolError:
            pass


#: Every tag, every optional-field combination, empty and full-length
#: messages.
ORACLE_SAMPLES = SAMPLES + [
    TeslaPacket(2 ** 32 - 1, b"", MAC, 2 ** 32 - 1, None),
    TeslaPacket(3, b"z" * 255, MAC, 2, KEY),
    MuTeslaDataPacket(0, b"z" * 255, MAC),
    CdmPacket(9, KEY, MAC, 8, KEY, next_cdm_hash=None),
    CdmPacket(9, KEY, MAC, 8, None, next_cdm_hash=b"\x44" * 10),
    MessageKeyPacket(1, b"", KEY),
]


def _outcome(decode, data):
    try:
        packet = decode(data)
    except ProtocolError:
        return "ProtocolError"
    return (type(packet), repr(packet))


def _canonical_outcome(data):
    """The old ``_Reader`` decoder's outcome, except that a buffer it
    decodes to a packet that does not encode back to the same bytes (a
    presence flag other than 0 or 1) must be rejected."""
    try:
        packet = reader_decode_packet(data)
    except ProtocolError:
        return "ProtocolError"
    if encode_packet(packet) != data:
        return "ProtocolError"
    return (type(packet), repr(packet))


def _assert_same(data):
    ours = _outcome(decode_packet, data)
    assert ours == _canonical_outcome(data), data
    return ours


class TestReaderOracle:
    """The struct layouts against the old ``_Reader`` decoder
    (``tests/protocols/scalar_wire.py``): on every buffer, the same
    packet (type, fields and provenance) or ProtocolError from both,
    where the oracle's non-canonical decodes count as rejections."""

    @pytest.mark.parametrize("packet", ORACLE_SAMPLES, ids=lambda p: type(p).__name__)
    def test_every_truncation_and_trailing_byte(self, packet):
        full = encode_packet(packet)
        assert _assert_same(full) != "ProtocolError"
        for cut in range(len(full)):
            assert _assert_same(full[:cut]) == "ProtocolError"
        for extra in range(256):
            assert _assert_same(full + bytes([extra])) == "ProtocolError"
        assert _assert_same(full + b"\x00" * 11) == "ProtocolError"

    @pytest.mark.parametrize("packet", ORACLE_SAMPLES, ids=lambda p: type(p).__name__)
    def test_every_byte_value_at_every_position(self, packet):
        """Changing any one byte (a length prefix, a presence flag, the
        tag) may turn the buffer into another packet or into garbage;
        both decoders must agree which."""
        full = encode_packet(packet)
        for position in range(len(full)):
            for value in (0x00, 0x01, 0x02, 0x07, 0x0A, 0x80, 0xFF):
                data = bytearray(full)
                data[position] = value
                _assert_same(bytes(data))

    def test_seeded_random_buffers(self):
        rng = random.Random(20240611)
        decoded = 0
        for _ in range(20_000):
            size = rng.choice((0, 1, 5, 15, rng.randint(0, 80)))
            data = bytes([rng.randint(0, 7)]) + rng.randbytes(size)
            decoded += _assert_same(data) != "ProtocolError"
        assert decoded > 0

    def test_any_bytes_like_input(self):
        full = encode_packet(SAMPLES[0])
        assert decode_packet(bytearray(full)) == reader_decode_packet(full)
        assert decode_packet(memoryview(full)) == reader_decode_packet(full)
        assert type(decode_packet(bytearray(full)).message) is bytes

    @pytest.mark.parametrize("packet", ORACLE_SAMPLES, ids=lambda p: type(p).__name__)
    def test_provenance_is_the_callers(self, packet):
        full = encode_packet(packet)
        assert decode_packet(full).provenance == "legitimate"
        forged = decode_packet(full, FORGED)
        assert forged.provenance == FORGED
        assert forged == packet
