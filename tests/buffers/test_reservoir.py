"""Unit and property tests for the Algorithm 2 reservoir buffer."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.reservoir import (
    KeepFirstBuffer,
    OfferOutcome,
    ReservoirBuffer,
)
from repro.errors import ConfigurationError


class TestReservoirBasics:
    def test_fills_empty_slots_first(self):
        buf = ReservoirBuffer(3, rng=random.Random(0))
        for i in range(3):
            result = buf.offer(i)
            assert result.outcome is OfferOutcome.STORED_EMPTY
        assert len(buf) == 3

    def test_never_exceeds_capacity(self):
        buf = ReservoirBuffer(4, rng=random.Random(0))
        for i in range(100):
            buf.offer(i)
        assert len(buf) == 4

    def test_seen_count_tracks_offers(self):
        buf = ReservoirBuffer(2, rng=random.Random(0))
        for i in range(7):
            buf.offer(i)
        assert buf.seen_count == 7

    def test_replacement_reports_evicted(self):
        buf = ReservoirBuffer(1, rng=random.Random(1))
        buf.offer("a")
        while True:
            result = buf.offer("b")
            if result.outcome is OfferOutcome.STORED_REPLACED:
                assert result.evicted == "a"
                break

    def test_rejection_has_no_eviction(self):
        buf = ReservoirBuffer(1, rng=random.Random(0))
        buf.offer("a")
        rejected = [r for r in (buf.offer("b") for _ in range(50)) if not r.stored]
        assert rejected
        assert all(r.evicted is None for r in rejected)

    def test_clear_resets(self):
        buf = ReservoirBuffer(2, rng=random.Random(0))
        for i in range(5):
            buf.offer(i)
        buf.clear()
        assert len(buf) == 0
        assert buf.seen_count == 0

    def test_contains_and_iter(self):
        buf = ReservoirBuffer(3, rng=random.Random(0))
        buf.offer("x")
        assert "x" in buf
        assert list(buf) == ["x"]

    def test_items_snapshot_is_copy(self):
        buf = ReservoirBuffer(3, rng=random.Random(0))
        buf.offer("x")
        items = buf.items
        items.append("y")
        assert len(buf) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ReservoirBuffer(0)


class TestReservoirStatistics:
    def test_keep_probability_is_m_over_k(self):
        """After n offers every item is retained with probability m/n."""
        m, n, trials = 3, 12, 4000
        hits = Counter()
        for trial in range(trials):
            buf = ReservoirBuffer(m, rng=random.Random(trial))
            for i in range(n):
                buf.offer(i)
            for item in buf:
                hits[item] += 1
        expected = trials * m / n
        for i in range(n):
            assert hits[i] == pytest.approx(expected, rel=0.15)

    def test_survival_of_single_authentic_matches_1_minus_p_m(self):
        """With forged fraction p, one authentic copy survives with
        probability close to 1 - p^m (hypergeometric, n finite)."""
        m, forged, trials = 3, 36, 3000
        total = forged + 4  # 4 authentic copies: p = 0.9
        survived = 0
        for trial in range(trials):
            buf = ReservoirBuffer(m, rng=random.Random(trial))
            items = ["f"] * forged + ["a"] * 4
            random.Random(trial + 10 ** 6).shuffle(items)
            for item in items:
                buf.offer(item)
            if "a" in buf:
                survived += 1
        # exact hypergeometric: 1 - C(36,3)/C(40,3)
        from math import comb

        expected = 1.0 - comb(forged, m) / comb(total, m)
        assert survived / trials == pytest.approx(expected, abs=0.04)

    def test_order_insensitive(self):
        """Front-loaded floods do not bias the reservoir (unlike keep-first)."""
        m, trials = 2, 3000
        survived_front = survived_back = 0
        for trial in range(trials):
            front = ReservoirBuffer(m, rng=random.Random(trial))
            for item in ["f"] * 8 + ["a"] * 2:
                front.offer(item)
            survived_front += "a" in front
            back = ReservoirBuffer(m, rng=random.Random(trial + 10 ** 6))
            for item in ["a"] * 2 + ["f"] * 8:
                back.offer(item)
            survived_back += "a" in back
        assert survived_front / trials == pytest.approx(
            survived_back / trials, abs=0.05
        )

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=2 ** 31),
    )
    @settings(max_examples=60)
    def test_size_invariant(self, capacity, offers, seed):
        buf = ReservoirBuffer(capacity, rng=random.Random(seed))
        for i in range(offers):
            buf.offer(i)
        assert len(buf) == min(capacity, offers)
        assert buf.seen_count == offers

    @given(
        st.integers(min_value=1, max_value=6),
        st.lists(st.integers(), min_size=0, max_size=40),
        st.integers(min_value=0, max_value=2 ** 31),
    )
    @settings(max_examples=60)
    def test_contents_are_subset_of_offers(self, capacity, items, seed):
        buf = ReservoirBuffer(capacity, rng=random.Random(seed))
        for item in items:
            buf.offer(item)
        for held in buf:
            assert held in items


class TestKeepFirstBuffer:
    def test_keeps_first_m(self):
        buf = KeepFirstBuffer(3)
        for i in range(10):
            buf.offer(i)
        assert buf.items == [0, 1, 2]

    def test_rejects_after_full(self):
        buf = KeepFirstBuffer(2)
        buf.offer("a")
        buf.offer("b")
        assert buf.offer("c").outcome is OfferOutcome.REJECTED

    def test_front_loaded_flood_starves_authentic(self):
        """The vulnerability the reservoir rule fixes."""
        buf = KeepFirstBuffer(3)
        for item in ["f"] * 3 + ["a"] * 5:
            buf.offer(item)
        assert "a" not in buf

    def test_seen_count(self):
        buf = KeepFirstBuffer(2)
        for i in range(5):
            buf.offer(i)
        assert buf.seen_count == 5


class _SubclassedRandom(random.Random):
    """A Random subclass, like the determinism sanitizer's tracer."""


class TestOfferMany:
    """offer_many (free fills, then reservoir_overflow)
    must be state- and draw-identical to per-item offer."""

    @given(
        capacity=st.integers(min_value=1, max_value=8),
        offers=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_draw_identical_to_sequential_offers(self, capacity, offers, seed):
        sequential = ReservoirBuffer(capacity, rng=random.Random(seed))
        stored_seq = 0
        for item in range(offers):
            if sequential.offer(item).stored:
                stored_seq += 1
        batched = ReservoirBuffer(capacity, rng=random.Random(seed))
        stored_many = batched.offer_many(range(offers))
        assert batched.items == sequential.items
        assert batched.seen_count == sequential.seen_count
        assert stored_many == stored_seq
        # The RNG streams advanced identically: the *next* draw agrees.
        assert batched._rng.random() == sequential._rng.random()

    def test_generic_rng_branch_is_also_draw_identical(self):
        """offer_many has one path for every Random: on a subclass it
        still consumes the stream per-item offer calls (randrange)
        consume."""
        for seed in (7, 11, 23):
            sequential = ReservoirBuffer(3, rng=random.Random(seed))
            for item in range(100):
                sequential.offer(item)
            generic = ReservoirBuffer(3, rng=_SubclassedRandom(seed))
            generic.offer_many(range(100))
            assert sequential.items == generic.items
            assert sequential.seen_count == generic.seen_count
            assert sequential._rng.random() == generic._rng.random()

    def test_resumes_mid_stream(self):
        """Mixing offer and offer_many on one buffer stays identical to
        a pure offer sequence."""
        mixed = ReservoirBuffer(2, rng=random.Random(5))
        pure = ReservoirBuffer(2, rng=random.Random(5))
        for item in range(10):
            mixed.offer(item)
            pure.offer(item)
        mixed.offer_many(range(10, 50))
        for item in range(10, 50):
            pure.offer(item)
        assert mixed.items == pure.items
        assert mixed.seen_count == pure.seen_count

    def test_keep_first_default_delegation(self):
        buf = KeepFirstBuffer(3)
        assert buf.offer_many(range(10)) == 3
        assert buf.items == [0, 1, 2]
        assert buf.seen_count == 10

    def test_empty_iterable(self):
        buf = ReservoirBuffer(2, rng=random.Random(1))
        assert buf.offer_many([]) == 0
        assert buf.seen_count == 0
