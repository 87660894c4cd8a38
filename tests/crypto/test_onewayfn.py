"""Unit tests for the one-way-function primitives."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.onewayfn import (
    DEFAULT_KEY_BITS,
    OneWayFunction,
    standard_functions,
    truncate_to_bits,
)
from repro.errors import ConfigurationError
from tests.crypto.scalar_truncate import truncate_oracle


class TestTruncateToBits:
    def test_exact_byte_boundary(self):
        digest = bytes(range(32))
        assert truncate_to_bits(digest, 16) == digest[:2]

    def test_non_byte_boundary_masks_low_bits(self):
        digest = b"\xff\xff\xff"
        out = truncate_to_bits(digest, 12)
        assert out == b"\xff\xf0"

    def test_output_length_rounds_up(self):
        out = truncate_to_bits(b"\xaa" * 32, 17)
        assert len(out) == 3

    def test_equal_truncations_compare_equal(self):
        a = truncate_to_bits(b"\xff\xff", 9)
        b = truncate_to_bits(b"\xff\x80", 9)
        assert a == b

    def test_zero_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            truncate_to_bits(b"\x00" * 4, 0)

    def test_negative_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            truncate_to_bits(b"\x00" * 4, -8)

    def test_over_length_rejected(self):
        with pytest.raises(ConfigurationError):
            truncate_to_bits(b"\x00" * 2, 17)

    @given(st.binary(min_size=4, max_size=32), st.integers(min_value=1, max_value=32))
    def test_length_invariant(self, digest, bits):
        out = truncate_to_bits(digest, bits)
        assert len(out) == (bits + 7) // 8

    @pytest.mark.parametrize("bits", [7, 24, 80, 255])
    @given(digest=st.binary(min_size=32, max_size=32))
    def test_storage_model_widths(self, bits, digest):
        """The widths the bit-accurate storage model uses (sub-byte, the
        paper's 24-bit μMAC and 80-bit MAC, and the top boundary):
        prefix preserved, spare bits zeroed, truncation idempotent."""
        out = truncate_to_bits(digest, bits)
        assert len(out) == (bits + 7) // 8
        assert out[: bits // 8] == digest[: bits // 8]
        spare = len(out) * 8 - bits
        if spare:
            assert out[-1] == digest[len(out) - 1] & ((0xFF << spare) & 0xFF)
            assert out[-1] & ((1 << spare) - 1) == 0
        assert truncate_to_bits(out, bits) == out

    @given(digest=st.binary(min_size=32, max_size=32))
    def test_matches_the_masking_oracle_at_every_width(self, digest):
        """The whole-byte fast path and the masking path together equal
        the old all-masking body, width by width, for bytes and
        bytearray digests alike."""
        for bits in range(1, 257):
            expected = truncate_oracle(digest, bits)
            assert truncate_to_bits(digest, bits) == expected
            out = truncate_to_bits(bytearray(digest), bits)
            assert type(out) is bytes and out == expected

    @pytest.mark.parametrize("bits", [0, -8, 264])
    def test_rejections_match_the_oracle(self, bits):
        for truncate in (truncate_to_bits, truncate_oracle):
            with pytest.raises(ConfigurationError):
                truncate(b"\x00" * 32, bits)


class TestOneWayFunction:
    def test_output_width_default(self, owf):
        assert len(owf(b"x")) == DEFAULT_KEY_BITS // 8

    def test_deterministic(self, owf):
        assert owf(b"key") == owf(b"key")

    def test_different_inputs_differ(self, owf):
        assert owf(b"a") != owf(b"b")

    def test_domain_separation(self):
        f = OneWayFunction("F")
        f0 = OneWayFunction("F0")
        assert f(b"same-input") != f0(b"same-input")

    def test_iterate_zero_is_identity(self, owf):
        assert owf.iterate(b"value", 0) == b"value"

    def test_iterate_composes(self, owf):
        assert owf.iterate(b"v", 3) == owf(owf(owf(b"v")))

    def test_iterate_negative_rejected(self, owf):
        with pytest.raises(ConfigurationError):
            owf.iterate(b"v", -1)

    def test_non_bytes_input_rejected(self, owf):
        with pytest.raises(TypeError):
            owf("string")  # type: ignore[arg-type]

    def test_bytearray_accepted(self, owf):
        assert owf(bytearray(b"v")) == owf(b"v")

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigurationError):
            OneWayFunction("")

    def test_zero_output_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            OneWayFunction("F", output_bits=0)

    def test_oversized_output_bits_rejected(self):
        with pytest.raises(ConfigurationError):
            OneWayFunction("F", output_bits=512)

    def test_custom_width(self):
        f = OneWayFunction("F", output_bits=24)
        assert len(f(b"x")) == 3
        assert f.output_bytes == 3

    @given(st.binary(min_size=0, max_size=64))
    def test_output_stable_under_rerun(self, data):
        f = OneWayFunction("F")
        assert f(data) == f(data)

    @given(st.binary(min_size=1, max_size=32), st.integers(min_value=0, max_value=8))
    def test_iterate_matches_manual_fold(self, data, times):
        f = OneWayFunction("F")
        expected = data
        for _ in range(times):
            expected = f(expected)
        assert f.iterate(data, times) == expected


class TestStandardFunctions:
    def test_contains_full_family(self):
        fns = standard_functions()
        assert set(fns) == {"F", "F0", "F1", "F01", "H"}

    def test_family_members_are_independent(self):
        fns = standard_functions()
        outputs = {name: fn(b"input") for name, fn in fns.items()}
        assert len(set(outputs.values())) == len(outputs)

    def test_custom_width_propagates(self):
        fns = standard_functions(output_bits=40)
        assert all(fn.output_bits == 40 for fn in fns.values())
