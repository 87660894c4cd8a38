"""Batch MAC/μMAC APIs: scalar parity and kernel on/off parity.

Every ``*_many`` method must be positionally bit-identical to its
scalar counterpart on both kernel paths.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.crypto import kernels
from repro.crypto.kernels import kernels_disabled
from repro.crypto.mac import MacScheme, MicroMacScheme
from repro.errors import ConfigurationError

KEY = b"batch-key-0123456789"
LOCAL = b"receiver-local-secret"
MESSAGES = [b"msg-%04d" % i for i in range(17)]

#: The widths the storage model cares about plus both boundaries: a
#: sub-byte tag, the paper's 24-bit μMAC and 80-bit MAC, a width with
#: spare bits in its last byte, and the full-digest edges.
BOUNDARY_BITS = (1, 7, 24, 80, 255, 256)


@pytest.mark.parametrize("bits", BOUNDARY_BITS)
@pytest.mark.parametrize("enabled", [True, False], ids=["kernels", "naive"])
class TestMacComputeManyParity:
    def test_matches_scalar_compute(self, bits, enabled):
        scheme = MacScheme(mac_bits=bits)
        previous = kernels.set_kernels_enabled(enabled)
        try:
            batched = scheme.compute_many(KEY, MESSAGES)
            scalar = [scheme.compute(KEY, m) for m in MESSAGES]
        finally:
            kernels.set_kernels_enabled(previous)
        assert batched == scalar
        assert all(len(mac) == (bits + 7) // 8 for mac in batched)

    def test_micro_matches_scalar_compute(self, bits, enabled):
        micro = MicroMacScheme(micro_mac_bits=bits)
        previous = kernels.set_kernels_enabled(enabled)
        try:
            batched = micro.compute_many(LOCAL, MESSAGES)
            scalar = [micro.compute(LOCAL, m) for m in MESSAGES]
        finally:
            kernels.set_kernels_enabled(previous)
        assert batched == scalar


class TestKernelOnOffBitParity:
    """The kernels-on batch path and the naive reference path must
    agree bit-for-bit for every new batch API."""

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_mac_compute_many(self, bits):
        scheme = MacScheme(mac_bits=bits)
        on = scheme.compute_many(KEY, MESSAGES)
        with kernels_disabled():
            off = scheme.compute_many(KEY, MESSAGES)
        assert on == off

    @pytest.mark.parametrize("bits", BOUNDARY_BITS)
    def test_micro_compute_many(self, bits):
        micro = MicroMacScheme(micro_mac_bits=bits)
        on = micro.compute_many(LOCAL, MESSAGES)
        with kernels_disabled():
            off = micro.compute_many(LOCAL, MESSAGES)
        assert on == off

    def test_verify_many_agrees(self):
        scheme = MacScheme()
        pairs = list(zip(MESSAGES, scheme.compute_many(KEY, MESSAGES)))
        pairs[3] = (pairs[3][0], b"\x00" * 10)  # one tampered tag
        on = scheme.verify_many(KEY, pairs)
        with kernels_disabled():
            off = scheme.verify_many(KEY, pairs)
        assert on == off
        assert on == [i != 3 for i in range(len(pairs))]


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

