"""Batch MAC/μMAC APIs: scalar parity and stdlib parity.

Every ``*_many`` method must be positionally bit-identical to its
scalar counterpart and to the naive stdlib expression the midstate
kernel replaces, ``hmac.new(key, label || "|" || msg, sha256)``
truncated to the scheme's width.
"""

from __future__ import annotations

import hashlib
import hmac

import pytest

from repro import perf
from repro.crypto import kernels
from repro.crypto.mac import MacScheme, MicroMacScheme
from repro.crypto.onewayfn import truncate_to_bits
from repro.errors import ConfigurationError
from tests.crypto.scalar_truncate import truncate_oracle

KEY = b"batch-key-0123456789"
LOCAL = b"receiver-local-secret"
MESSAGES = [b"msg-%04d" % i for i in range(17)]

#: The widths the storage model cares about plus both boundaries: a
#: sub-byte tag, the paper's 24-bit μMAC and 80-bit MAC, a width with
#: spare bits in its last byte, and the full-digest edges.
BOUNDARY_BITS = (1, 7, 24, 80, 255, 256)


def _naive(key: bytes, label: bytes, message: bytes, bits: int) -> bytes:
    digest = hmac.new(key, label + b"|" + message, hashlib.sha256).digest()
    return truncate_to_bits(digest, bits)


@pytest.mark.parametrize("bits", BOUNDARY_BITS)
@pytest.mark.parametrize("oracle", ["kernels", "naive"])
class TestMacComputeManyParity:
    """``kernels``: per-call ``compute``; ``naive``: the stdlib HMAC."""

    def test_matches_scalar_compute(self, bits, oracle):
        scheme = MacScheme(mac_bits=bits)
        batched = scheme.compute_many(KEY, MESSAGES)
        if oracle == "kernels":
            expected = [scheme.compute(KEY, m) for m in MESSAGES]
        else:
            expected = [_naive(KEY, b"repro.mac", m, bits) for m in MESSAGES]
        assert batched == expected
        assert all(len(mac) == (bits + 7) // 8 for mac in batched)

    def test_micro_matches_scalar_compute(self, bits, oracle):
        micro = MicroMacScheme(micro_mac_bits=bits)
        batched = micro.compute_many(LOCAL, MESSAGES)
        if oracle == "kernels":
            expected = [micro.compute(LOCAL, m) for m in MESSAGES]
        else:
            expected = [_naive(LOCAL, b"repro.umac", m, bits) for m in MESSAGES]
        assert batched == expected


class TestKernelOnOffBitParity:
    """The midstate batch path and the naive stdlib HMAC it replaces
    must agree bit-for-bit for every batch API."""

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_mac_compute_many(self, bits):
        scheme = MacScheme(mac_bits=bits)
        assert scheme.compute_many(KEY, MESSAGES) == [
            _naive(KEY, b"repro.mac", m, bits) for m in MESSAGES
        ]

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_micro_compute_many(self, bits):
        micro = MicroMacScheme(micro_mac_bits=bits)
        assert micro.compute_many(LOCAL, MESSAGES) == [
            _naive(LOCAL, b"repro.umac", m, bits) for m in MESSAGES
        ]

    def test_verify_many_agrees(self):
        scheme = MacScheme()
        pairs = list(zip(MESSAGES, scheme.compute_many(KEY, MESSAGES)))
        pairs[3] = (pairs[3][0], b"\x00" * 10)  # one tampered tag
        verdicts = scheme.verify_many(KEY, pairs)
        assert verdicts == [
            hmac.compare_digest(_naive(KEY, b"repro.mac", m, 80), mac)
            for m, mac in pairs
        ]
        assert verdicts == [i != 3 for i in range(len(pairs))]


class TestVerifyMany:
    def test_matches_scalar_verify(self):
        scheme = MacScheme()
        pairs = [(m, scheme.compute(KEY, m)) for m in MESSAGES]
        pairs[0] = (pairs[0][0], bytes(10))
        pairs[-1] = (b"not-the-message", pairs[-1][1])
        assert scheme.verify_many(KEY, pairs) == [
            scheme.verify(KEY, m, mac) for m, mac in pairs
        ]

    def test_micro_matches_scalar_verify(self):
        micro = MicroMacScheme()
        pairs = [(m, micro.compute(LOCAL, m)) for m in MESSAGES]
        pairs[5] = (pairs[5][0], bytes(3))
        assert micro.verify_many(LOCAL, pairs) == [
            micro.verify(LOCAL, mac, tag) for mac, tag in pairs
        ]


class TestEmptyBatches:
    def test_empty_batches_return_empty(self):
        assert MacScheme().compute_many(KEY, []) == []
        assert MacScheme().verify_many(KEY, []) == []
        assert MicroMacScheme().compute_many(LOCAL, []) == []
        assert MicroMacScheme().verify_many(LOCAL, []) == []

    def test_empty_key_still_rejected(self):
        with pytest.raises(ConfigurationError):
            MacScheme().compute_many(b"", MESSAGES)
        with pytest.raises(ConfigurationError):
            MicroMacScheme().compute_many(b"", MESSAGES)


class TestBatchCounters:
    def test_one_batch_increment_per_many_call(self):
        scheme = MacScheme()
        with perf.collecting() as registry:
            scheme.compute_many(KEY, MESSAGES)
            scheme.verify_many(
                KEY, [(m, b"\x00" * 10) for m in MESSAGES]
            )
        # verify_many routes through compute_many: two batched calls,
        # one digest counted per item in each.
        assert registry.counter("crypto.mac.batches") == 2
        assert registry.counter("crypto.mac") == 2 * len(MESSAGES)



#: Keys around SHA-256's 64-byte block: short, typical, exactly one
#: block, one byte over (hashed first) and several blocks long.
KERNEL_KEY_SIZES = (1, 10, 64, 65, 200)
KERNEL_BITS = (2, 4, 23, 24, 80, 256)


def _stdlib(key: bytes, label: bytes, message: bytes, bits: int) -> bytes:
    digest = hmac.new(key, label + b"|" + message, hashlib.sha256).digest()
    return truncate_oracle(digest, bits)


class TestHmacKernel:
    """The two-pad-midstate kernel against ``hmac.new`` and the masking
    truncation oracle, through every scalar and batched entry point."""

    @pytest.mark.parametrize("size", KERNEL_KEY_SIZES)
    @pytest.mark.parametrize("bits", KERNEL_BITS)
    def test_schemes_match_stdlib(self, size, bits):
        key = bytes((7 * i + size) % 256 for i in range(size))
        messages = [b""] + MESSAGES + [b"x" * 200]
        for scheme, label in (
            (MacScheme(mac_bits=bits), b"repro.mac"),
            (MicroMacScheme(micro_mac_bits=bits), b"repro.umac"),
        ):
            expected = [_stdlib(key, label, m, bits) for m in messages]
            assert scheme.compute_many(key, messages) == expected
            assert [scheme.compute(key, m) for m in messages] == expected
            assert scheme.verify_many(key, list(zip(messages, expected))) == [
                True
            ] * len(messages)

    @pytest.mark.parametrize("size", KERNEL_KEY_SIZES)
    @pytest.mark.parametrize("label", [b"repro.mac", b"repro.umac"])
    def test_kernel_slices_full_digests(self, size, label):
        key = bytes(range(size))
        messages = [b"", b"one", bytes(range(256))]
        for nbytes in (1, 3, 10, 32):
            assert kernels.hmac_sha256_many(key, label, messages, nbytes) == [
                hmac.new(key, label + b"|" + m, hashlib.sha256).digest()[:nbytes]
                for m in messages
            ]

    def test_pad_cache_is_a_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(kernels, "_HMAC_CACHE_MAX", 4)
        monkeypatch.setattr(kernels, "_HMAC_PADS", type(kernels._HMAC_PADS)())
        first = kernels.hmac_pads(b"key-0", b"label")
        for i in range(1, 4):
            kernels.hmac_pads(b"key-%d" % i, b"label")
        # A hit refreshes key-0, so key-1 is the oldest when key-4 lands.
        assert kernels.hmac_pads(b"key-0", b"label") is first
        kernels.hmac_pads(b"key-4", b"label")
        assert len(kernels._HMAC_PADS) == 4
        assert (b"key-1", b"label") not in kernels._HMAC_PADS
        assert (b"key-0", b"label") in kernels._HMAC_PADS
        for i in range(5, 50):
            MicroMacScheme().compute_many(b"key-%d" % i, MESSAGES)
        assert len(kernels._HMAC_PADS) == 4
