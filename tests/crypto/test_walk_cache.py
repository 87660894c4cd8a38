"""ChainWalkCache and the midstate kernels: identical bytes, fewer walks.

The oracles are the stdlib expressions the kernels replace: a fresh
``hashlib.sha256`` over ``"repro.owf|<label>|" || value`` per one-way
step and a fresh ``hmac.new`` over ``"repro.mac|" || message`` per MAC.
"""

from __future__ import annotations

import hashlib
import hmac
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.kernels import ChainWalkCache, hmac_midstate, sha256_midstate
from repro.crypto.keychain import KeyChain, KeyChainAuthenticator
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction, truncate_to_bits
from repro.errors import ConfigurationError

SEED = b"walk-cache-test-seed"


def _naive_step(function: OneWayFunction, value: bytes) -> bytes:
    digest = hashlib.sha256(
        b"repro.owf|" + function.label.encode() + b"|" + value
    ).digest()
    return truncate_to_bits(digest, function.output_bits)


def _naive_iterate(function: OneWayFunction, value: bytes, times: int) -> bytes:
    result = value
    for _ in range(times):
        result = _naive_step(function, result)
    return result


def _naive_mac(key: bytes, message: bytes, bits: int) -> bytes:
    digest = hmac.new(key, b"repro.mac|" + message, hashlib.sha256).digest()
    return truncate_to_bits(digest, bits)


class TestKernelSwitch:
    """The midstate kernels against the stdlib expressions they replace."""

    def test_midstate_matches_naive_digest(self):
        for bits in (7, 80, 256):
            function = OneWayFunction("F", bits)
            value = b"\x17" * function.output_bytes
            assert function(value) == _naive_step(function, value)

    def test_iterate_matches_across_switch(self):
        function = OneWayFunction("F")
        value = b"\x42" * function.output_bytes
        assert function.iterate(value, 17) == _naive_iterate(function, value, 17)

    def test_mac_matches_across_switch(self):
        scheme = MacScheme()
        key, message = b"k" * 10, b"payload"
        with_kernels = scheme.compute(key, message)
        assert with_kernels == _naive_mac(key, message, scheme.mac_bits)
        assert scheme.verify(key, message, with_kernels)

    def test_midstate_objects_are_shared_not_mutated(self):
        state = sha256_midstate(b"prefix|")
        before = state.copy().hexdigest()
        clone = state.copy()
        clone.update(b"junk")
        assert state.copy().hexdigest() == before
        hm = hmac_midstate(b"key", b"label")
        hm_before = hm.copy().hexdigest()
        hm_clone = hm.copy()
        hm_clone.update(b"junk")
        assert hm.copy().hexdigest() == hm_before


class TestChainWalkCache:
    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigurationError):
            ChainWalkCache(OneWayFunction("F"), max_entries=0)

    def test_authenticator_rejects_mismatched_function(self):
        f, g = OneWayFunction("F"), OneWayFunction("G")
        chain = KeyChain(SEED, 4, f)
        with pytest.raises(ConfigurationError):
            KeyChainAuthenticator(chain.commitment, f, walk_cache=ChainWalkCache(g))

    def test_hit_on_repeat(self):
        function = OneWayFunction("F")
        cache = ChainWalkCache(function)
        value = b"\x11" * function.output_bytes
        first = cache.iterate(value, 9)
        second = cache.iterate(value, 9)
        assert first == second == function.iterate(value, 9)
        assert first == _naive_iterate(function, value, 9)
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_identity_and_disabled_bypass(self):
        """Walks of zero or negative length never reach the memo."""
        function = OneWayFunction("F")
        cache = ChainWalkCache(function)
        value = b"\x22" * function.output_bytes
        assert cache.iterate(value, 0) == value
        with pytest.raises(ConfigurationError):
            cache.iterate(value, -1)
        assert len(cache) == 0 and cache.misses == 0

    def test_lru_bound(self):
        function = OneWayFunction("F")
        cache = ChainWalkCache(function, max_entries=4)
        for i in range(10):
            cache.iterate(bytes([i]) * function.output_bytes, 3)
        assert len(cache) == 4

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_cached_authenticator_equals_uncached(self, seed):
        """Random disclosure scripts — genuine keys across loss gaps,
        forged keys, replays — produce identical accept/reject decisions
        and identical anchors with and without the walk cache."""
        rng = random.Random(seed)
        function = OneWayFunction("F")
        chain = KeyChain(SEED, 60, function)
        plain = KeyChainAuthenticator(chain.commitment, function)
        cached = KeyChainAuthenticator(
            chain.commitment, function, walk_cache=ChainWalkCache(function)
        )
        script = []
        index = 0
        for _ in range(30):
            roll = rng.random()
            if roll < 0.5 and index < 60:
                index += rng.randint(1, min(5, 60 - index))
                script.append((index, chain.key(index)))
            elif roll < 0.8 and script:
                script.append(rng.choice(script))  # replay
            else:
                forged_index = rng.randint(1, 60)
                forged = bytes(rng.getrandbits(8) for _ in range(function.output_bytes))
                script.append((forged_index, forged))
        for disclosure_index, key in script:
            assert plain.authenticate(key, disclosure_index) == cached.authenticate(
                key, disclosure_index
            )
            assert plain.trusted_index == cached.trusted_index
            assert plain.trusted_key == cached.trusted_key

    def test_duplicate_flood_is_one_walk(self):
        """The DoS shape: the same forged disclosure replayed many times
        costs the cached receiver exactly one back-walk."""
        function = OneWayFunction("F")
        chain = KeyChain(SEED, 65, function)
        cache = ChainWalkCache(function)
        authenticator = KeyChainAuthenticator(
            chain.commitment, function, walk_cache=cache
        )
        forged = bytes(b ^ 0xA5 for b in chain.key(64))
        for _ in range(50):
            assert not authenticator.authenticate(forged, 64)
        assert cache.misses == 1
        assert cache.hits == 49


class TestVerifyMany:
    def test_matches_per_pair_verify(self):
        scheme = MacScheme()
        key = b"batch-key"
        pairs = []
        for i in range(20):
            message = b"m%03d" % i
            mac = scheme.compute(key, message)
            if i % 3 == 0:
                mac = bytes(b ^ 0xFF for b in mac)  # corrupt every third
            pairs.append((message, mac))
        expected = [scheme.verify(key, m, t) for m, t in pairs]
        assert scheme.verify_many(key, pairs) == expected
        assert expected == [
            hmac.compare_digest(_naive_mac(key, m, scheme.mac_bits), t)
            for m, t in pairs
        ]

    def test_empty_batch_and_bad_key(self):
        scheme = MacScheme()
        assert scheme.verify_many(b"k", []) == []
        with pytest.raises(ConfigurationError):
            scheme.verify_many(b"", [(b"m", b"t")])
