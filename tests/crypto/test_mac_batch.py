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
from repro.crypto.mac import MacScheme, MicroMacScheme
from repro.crypto.onewayfn import truncate_to_bits
from repro.errors import ConfigurationError

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

