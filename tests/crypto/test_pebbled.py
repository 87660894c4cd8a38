"""Property tests: PebbledKeyChain is a drop-in for KeyChain."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.keychain import KeyChain
from repro.crypto.pebbled import (
    PEBBLED_THRESHOLD,
    PebbledKeyChain,
    make_key_chain,
    pebble_bound,
)
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import (
    ConfigurationError,
    KeyChainError,
    KeyChainExhaustedError,
)

SEED = b"pebbled-test-seed"

#: The explicit drop-in lengths from the acceptance checklist: edge
#: (1, 2), around a power of two (63, 64, 65), and a realistic chain.
DROP_IN_LENGTHS = (1, 2, 63, 64, 65, 1000)


@pytest.fixture(scope="module")
def function():
    return OneWayFunction("F")


class TestDropInEquivalence:
    @pytest.mark.parametrize("length", DROP_IN_LENGTHS)
    def test_commitment_and_every_key(self, length, function):
        dense = KeyChain(SEED, length, function)
        pebbled = PebbledKeyChain(SEED, length, function)
        assert pebbled.commitment == dense.commitment
        for index in range(length + 1):
            assert pebbled.key(index) == dense.key(index), index

    @pytest.mark.parametrize("length", DROP_IN_LENGTHS)
    def test_same_errors(self, length, function):
        dense = KeyChain(SEED, length, function)
        pebbled = PebbledKeyChain(SEED, length, function)
        for chain in (dense, pebbled):
            with pytest.raises(KeyChainError):
                chain.key(-1)
            with pytest.raises(KeyChainExhaustedError):
                chain.key(length + 1)
        assert len(pebbled) == len(dense) == length

    def test_rejects_nonpositive_length(self, function):
        with pytest.raises(ConfigurationError):
            PebbledKeyChain(SEED, 0, function)
        with pytest.raises(ConfigurationError):
            PebbledKeyChain(SEED, -3, function)

    def test_verify_and_derive_match_dense(self, function):
        dense = KeyChain(SEED, 40, function)
        pebbled = PebbledKeyChain(SEED, 40, function)
        key = pebbled.key(25)
        assert pebbled.verify(key, 25, pebbled.key(10), 10)
        assert pebbled.derive(key, 5) == dense.key(20)
        with pytest.raises(KeyChainError):
            pebbled.verify(key, 25, pebbled.key(30), 30)

    def test_label_changes_the_chain(self, function):
        assert (
            PebbledKeyChain(SEED, 8, function, label="a").commitment
            != PebbledKeyChain(SEED, 8, function, label="b").commitment
        )

    @settings(max_examples=30, deadline=None)
    @given(
        length=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_random_access_matches_dense(self, length, data):
        function = OneWayFunction("F")
        dense = KeyChain(SEED, length, function)
        pebbled = PebbledKeyChain(SEED, length, function)
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=length),
                min_size=1,
                max_size=30,
            )
        )
        for index in indices:
            assert pebbled.key(index) == dense.key(index)
        assert pebbled.peak_stored_keys <= pebble_bound(length)


class TestMemoryBound:
    @pytest.mark.parametrize("length", DROP_IN_LENGTHS)
    def test_peak_bound_ascending(self, length, function):
        pebbled = PebbledKeyChain(SEED, length, function)
        for index in range(1, length + 1):
            pebbled.key(index)
        assert pebbled.peak_stored_keys <= pebble_bound(length)

    def test_million_interval_chain_peak(self, function):
        """The acceptance-criterion bound: n = 10^6 stays within
        2*ceil(log2 n) + 2 = 42 stored keys. The peak occurs during the
        early traversal (densest subdivision), so walking a prefix and
        spot-checking afterwards exercises it without a 10^6-key walk.
        """
        length = 1_000_000
        pebbled = PebbledKeyChain(SEED, length, function)
        for index in range(1, 2049):
            pebbled.key(index)
        for index in (250_000, 500_001, 999_999, length):
            pebbled.key(index)
        assert pebble_bound(length) == 42
        assert pebbled.peak_stored_keys <= 42
        assert pebbled.stored_keys <= 42

    def test_spot_check_million_chain_against_authenticator(self, function):
        """A pebbled key far up the chain still verifies against the
        commitment — the cross-check that regeneration walks are sound
        without materialising a dense million-key chain."""
        length = 1_000_000
        pebbled = PebbledKeyChain(SEED, length, function)
        key = pebbled.key(64)
        assert function.iterate(key, 64) == pebbled.commitment


class TestMakeKeyChain:
    def test_short_chains_stay_dense(self, function):
        chain = make_key_chain(SEED, 100, function)
        assert isinstance(chain, KeyChain)

    def test_long_chains_get_pebbled(self, function):
        chain = make_key_chain(SEED, PEBBLED_THRESHOLD, function)
        assert isinstance(chain, PebbledKeyChain)

    def test_explicit_override(self, function):
        """Either implementation is buildable at any length, on either
        side of the threshold ``make_key_chain`` dispatches on."""
        for length in (10, PEBBLED_THRESHOLD):
            assert (
                PebbledKeyChain(SEED, length, function).commitment
                == KeyChain(SEED, length, function).commitment
            )

    def test_both_implementations_agree(self, function):
        dense = KeyChain(SEED, 64, function)
        pebbled = PebbledKeyChain(SEED, 64, function)
        assert dense.commitment == pebbled.commitment
        assert [dense.key(i) for i in range(65)] == [
            pebbled.key(i) for i in range(65)
        ]
