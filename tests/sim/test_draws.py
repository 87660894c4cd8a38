"""Tests for the seed ladder and the shared draw kernels.

Every kernel here is checked against its scalar oracle: the ladder
against plain ``getrandbits(64)`` calls on the master seed, the medium
mirror against ``random()``, and the overflow kernel against a
sequence of :meth:`ReservoirBuffer.offer` calls.
"""

from __future__ import annotations

import random
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.reservoir import (
    OfferOutcome, ReservoirBuffer, reservoir_overflow,
)
from repro.devtools.sanitizers.determinism import tracing
from repro.errors import SimulationError
from repro.sim import draws
from repro.sim.draws import SeedLadder, medium_blocks


class TestSeedLadder:
    def test_draw_order(self):
        master = random.Random(42)
        medium_seed = master.getrandbits(64)
        receiver_seeds = [master.getrandbits(64) for _ in range(3)]
        attacker_seed = master.getrandbits(64)

        ladder = SeedLadder(42)
        assert ladder.medium.getstate() == random.Random(medium_seed).getstate()
        assert ladder.receiver_seeds(3) == receiver_seeds
        attacker = ladder.attacker()
        assert attacker.getstate() == random.Random(attacker_seed).getstate()
        assert ladder.attacker() is attacker

    def test_attacker_seed_is_drawn_only_on_demand(self):
        ladder = SeedLadder(5)
        ladder.receiver_seeds(2)
        reference = random.Random(5)
        for _ in range(3):
            reference.getrandbits(64)
        assert ladder.master.getstate() == reference.getstate()

    def test_receiver_rngs_follow_their_seeds(self):
        seeds = SeedLadder(8).receiver_seeds(4)
        rngs = SeedLadder(8).receiver_rngs(4)
        assert [r.getstate() for r in rngs] == [
            random.Random(seed).getstate() for seed in seeds
        ]

    def test_stream_labels_under_tracing(self):
        with tracing() as sanitizer:
            ladder = SeedLadder(3)
            for rng in ladder.receiver_rngs(2):
                rng.random()
            ladder.medium.random()
            ladder.attacker().random()
        assert sanitizer.trace.counts() == {
            "attacker": 1,
            "master": 4,
            "medium": 1,
            "receiver-0": 1,
            "receiver-1": 1,
        }

    def test_receiver_seeds_after_the_attacker_are_refused(self):
        ladder = SeedLadder(1)
        ladder.attacker()
        with pytest.raises(SimulationError):
            ladder.receiver_seeds(1)


class TestMediumBlocks:
    @pytest.mark.parametrize("block_floats", [draws.MEDIUM_BLOCK_FLOATS, 1, 7, 36])
    def test_mirrors_scalar_stream(self, monkeypatch, block_floats):
        monkeypatch.setattr(draws, "MEDIUM_BLOCK_FLOATS", block_floats)
        rng = random.Random(17)
        state = rng.getstate()
        slots, per_slot = 23, 6
        blocks = list(medium_blocks(rng, slots, per_slot))
        assert rng.getstate() == state
        assert blocks[0][0] == 0 and blocks[-1][1] == slots
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(u.shape == (end - begin, per_slot) for begin, end, u in blocks)
        got = [v for _, _, uniforms in blocks for v in uniforms.ravel().tolist()]
        assert got == [rng.random() for _ in range(slots * per_slot)]

    def test_no_slots_yields_nothing(self):
        assert list(medium_blocks(random.Random(1), 0, 4)) == []


def _offer_sequence(capacity, offers, seed):
    """The oracle: a buffer filled by ``offers`` scalar ``offer`` calls."""
    buffer = ReservoirBuffer(capacity, rng=random.Random(seed))
    replaced = 0
    for item in range(offers):
        if buffer.offer(item).outcome is OfferOutcome.STORED_REPLACED:
            replaced += 1
    return buffer, replaced


class TestReservoirOverflow:
    @given(
        capacity=st.integers(min_value=1, max_value=9),
        extra=st.integers(min_value=0, max_value=200),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_offers(self, capacity, extra, seed):
        oracle, replaced = _offer_sequence(capacity, capacity + extra, seed)
        rng = random.Random(seed)
        survivors, accepted = reservoir_overflow(
            rng,
            [capacity / k for k in range(capacity + 1, capacity + extra + 1)],
            capacity,
            repeat(0),
            range(capacity, capacity + extra),
        )
        held = list(range(capacity))
        for slot, item in survivors.items():
            held[slot] = item
        assert held == oracle.items
        assert accepted == replaced
        assert rng.random() == oracle._rng.random()

    @given(
        capacities=st.tuples(
            st.integers(min_value=1, max_value=8),
            st.integers(min_value=1, max_value=8),
        ),
        picks=st.lists(st.booleans(), max_size=150),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_per_offer_capacities_share_one_stream(self, capacities, picks, seed):
        """Two buckets of different capacity drawing from one stream,
        offers interleaved: the multi-level receivers' CDM/data case."""
        shared = random.Random(seed)
        buffers = [ReservoirBuffer(c, rng=shared) for c in capacities]
        bases = (0, capacities[0])
        thresholds, caps, keys, entries = [], [], [], []
        replaced = 0
        for item, pick in enumerate(picks):
            bucket = int(pick)
            buffer = buffers[bucket]
            if len(buffer) == buffer.capacity:
                thresholds.append(buffer.capacity / (buffer.seen_count + 1))
                caps.append(buffer.capacity)
                keys.append(bases[bucket])
                entries.append(item)
            if buffer.offer(item).outcome is OfferOutcome.STORED_REPLACED:
                replaced += 1
        rng = random.Random(seed)
        survivors, accepted = reservoir_overflow(
            rng, thresholds, caps, keys, entries
        )
        assert accepted == replaced
        assert rng.random() == shared.random()
        # Free-slot fills draw nothing; the kernel only overwrites them.
        fills = [[], []]
        for item, pick in enumerate(picks):
            if len(fills[int(pick)]) < capacities[int(pick)]:
                fills[int(pick)].append(item)
        held = fills[0] + [None] * (capacities[0] - len(fills[0])) + fills[1]
        for key, item in survivors.items():
            held[key] = item
        assert [x for x in held if x is not None] == (
            buffers[0].items + buffers[1].items
        )

    @pytest.mark.parametrize("capacity", [1, 3, 5, 8])
    def test_trace_matches_randrange_path(self, capacity):
        """The inlined ``getrandbits`` victim loop records the same draw
        trace as ``offer``'s ``randrange`` under the sanitizer."""
        offers = 300
        with tracing() as oracle:
            buffer = ReservoirBuffer(
                capacity, rng=SeedLadder(capacity).receiver_rngs(1)[0]
            )
            for item in range(offers):
                buffer.offer(item)
        with tracing() as kernel:
            rng = SeedLadder(capacity).receiver_rngs(1)[0]
            reservoir_overflow(
                rng,
                [capacity / k for k in range(capacity + 1, offers + 1)],
                capacity,
                repeat(0),
                range(capacity, offers),
            )
        assert oracle.trace.streams["receiver-0"]
        assert oracle.trace.diff(kernel.trace) == ()

    def test_keys_are_offset_by_bucket_base(self):
        survivors, accepted = reservoir_overflow(
            random.Random(0), [1.0, 1.0], 4, [100, 200], ["a", "b"]
        )
        assert accepted == 2
        assert {entry: key // 100 for key, entry in survivors.items()} == {
            "a": 1,
            "b": 2,
        }
