"""Tests for the seed ladder and the shared draw kernels.

Every kernel here is checked against its scalar oracle: the ladder
against plain ``getrandbits(64)`` calls on the master seed, the medium
mirror against ``random()``, the overflow kernel against a sequence of
:meth:`ReservoirBuffer.offer` calls, and the lane-parallel MT19937
(:class:`ReceiverStreams`) against that kernel on one
``random.Random(seed)`` per lane.
"""

from __future__ import annotations

import random
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buffers.reservoir import (
    OfferOutcome, ReservoirBuffer, reservoir_overflow,
)
from repro.devtools.sanitizers.determinism import (
    DeterminismSanitizer, traced_rng, tracing,
)
from repro.errors import SimulationError
from repro.sim import draws
from repro.sim.attacker import forged_bytes
from repro.sim.draws import SeedLadder, forged_byte_rows, medium_blocks


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


class TestForgedByteRows:
    """The NumPy mirror of the attacker's forged bytes against rows of
    scalar :func:`~repro.sim.attacker.forged_bytes` calls."""

    @pytest.mark.parametrize("block_words", [draws.FORGED_BLOCK_WORDS, 1, 7, 64])
    @pytest.mark.parametrize("width", [10, 20])
    def test_mirrors_scalar_rows(self, monkeypatch, block_words, width):
        monkeypatch.setattr(draws, "FORGED_BLOCK_WORDS", block_words)
        rng, scalar = random.Random(5), random.Random(5)
        rng.random()
        scalar.random()
        table = forged_byte_rows(rng, 37, width)
        assert table.shape == (37, width) and table.dtype == np.uint8
        assert [bytes(row) for row in table] == [
            forged_bytes(scalar, width) for _ in range(37)
        ]
        # Left where the scalar draws leave the stream.
        assert rng.getstate() == scalar.getstate()

    def test_no_rows_draws_nothing(self):
        rng = random.Random(3)
        state = rng.getstate()
        assert forged_byte_rows(rng, 0, 10).shape == (0, 10)
        assert rng.getstate() == state

    def test_traced_draws_match_the_scalar_stream(self):
        with tracing() as mirrored:
            forged_byte_rows(traced_rng(random.Random(9), "attacker"), 12, 10)
        with tracing() as scalar:
            rng = traced_rng(random.Random(9), "attacker")
            for _ in range(12):
                forged_bytes(rng, 10)
        assert mirrored.trace.counts() == {"attacker": 120}
        assert mirrored.trace.diff(scalar.trace) == ()

    def test_corrupted_draw_is_returned(self):
        clean = forged_byte_rows(random.Random(9), 4, 10)
        with tracing(DeterminismSanitizer(corrupt_draw=13)) as sanitizer:
            table = forged_byte_rows(traced_rng(random.Random(9), "attacker"), 4, 10)
        assert sanitizer.corrupted_site is not None
        flipped = clean.copy()
        flipped[1, 3] ^= 1
        assert table.tolist() == flipped.tolist()


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


#: Seeds at the key-length edges of CPython's ``init_by_array`` (one
#: 32-bit key word below 2**32, two from there), then random 64-bit ones.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def _lane_seeds(count, seed=0):
    rng = random.Random(seed)
    return (EDGE_SEEDS + [rng.getrandbits(64) for _ in range(count)])[:count]


def _offers(counts, capacity, seed=0, thresholds="m/k"):
    """Lane-major offers: ``counts[j]`` for lane ``j``, each lane's
    thresholds ``m/k`` for ``k`` past capacity, bucket bases drawn."""
    rng = np.random.default_rng(seed)
    lanes = np.repeat(np.arange(len(counts)), counts)
    seen = np.concatenate(
        [np.arange(capacity + 1, capacity + 1 + c) for c in counts] or [[]]
    )
    if thresholds == "m/k":
        thr = capacity / seen
    else:
        thr = rng.choice(thresholds, lanes.size).astype(np.float64)
    keys = rng.integers(0, 5, lanes.size) * capacity
    return lanes.astype(np.int64), thr, keys.astype(np.int64)


def _scalar(rngs, lanes, thresholds, capacities, keys):
    """The oracle: each lane's offers through ``reservoir_overflow`` on
    its own ``random.Random``, as ``{(lane, slot): offer}``."""
    caps = np.broadcast_to(capacities, lanes.shape)
    out = {}
    for lane in np.unique(lanes).tolist():
        at = np.flatnonzero(lanes == lane)
        kept, _ = reservoir_overflow(
            rngs[lane], thresholds[at].tolist(), caps[at].tolist(),
            keys[at].tolist(), at.tolist(),
        )
        out.update({(lane, slot): offer for slot, offer in kept.items()})
    return out


def _kernel(streams, lanes, thresholds, capacities, keys):
    got_lanes, slots, offers = streams.overflow(lanes, thresholds, capacities, keys)
    got = dict(zip(zip(got_lanes.tolist(), slots.tolist()), offers.tolist()))
    assert len(got) == got_lanes.size, "a (lane, slot) pair returned twice"
    return got


@pytest.fixture
def lockstep_calls(monkeypatch):
    """Counts the calls that took the lockstep path."""
    calls = []
    original = draws.ReceiverStreams._lockstep

    def spy(self, *args, **kwargs):
        calls.append(args[0].size)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(draws.ReceiverStreams, "_lockstep", spy)
    return calls


class TestReceiverStreams:
    """The lane-parallel MT19937 against ``random.Random`` per lane."""

    def test_seeding_and_twists_match_cpython(self):
        seeds = _lane_seeds(9)
        state = draws._init_by_array(seeds)
        for row, seed in zip(state.T.tolist(), seeds):
            assert row == list(random.Random(seed).getstate()[1][:624])
        streams = draws.ReceiverStreams(0, seeds)
        lanes = np.arange(len(seeds))
        words = streams._to_grid(lanes)
        oracles = [random.Random(seed) for seed in seeds]
        for generation in range(3):
            for row, rng in zip(words.tolist(), oracles):
                expected = [rng.getrandbits(32) for _ in range(624)]
                assert row[:624] == expected, f"generation {generation}"
                ahead = rng.getstate()
                assert row[624:] == [rng.getrandbits(32) for _ in range(draws._AHEAD)]
                rng.setstate(ahead)
            streams._pos[lanes] = 625
            streams._advance(lanes)
            assert streams._pos.tolist() == [1] * len(seeds)

    # LOCKSTEP_LANES 1: every offer in lockstep; 4: lockstep, then the
    # longest lanes hand off; 10**6: every lane scalar.
    @pytest.mark.parametrize("lockstep_lanes", [1, 4, 10**6])
    @pytest.mark.parametrize("capacity", [1, 2, 3, 4, 13, 16])
    def test_matches_scalar_streams(
        self, monkeypatch, lockstep_calls, lockstep_lanes, capacity
    ):
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        seeds = _lane_seeds(12, seed=capacity)
        # Lane 5 has no offers; lanes 0 and 3 run past three twists.
        counts = [900, 40, 7, 700, 1, 0, 25, 60, 3, 120, 2, 11]
        lanes, thr, keys = _offers(counts, capacity, seed=capacity)
        streams = draws.ReceiverStreams(0, seeds)
        got = _kernel(streams, lanes, thr, capacity, keys)
        expected = _scalar(
            [random.Random(s) for s in seeds], lanes, thr, capacity, keys
        )
        assert got == expected
        assert bool(lockstep_calls) == (lockstep_lanes <= len(counts) - 1)

    @pytest.mark.parametrize("lockstep_lanes", [1, 10**6])
    def test_thresholds_zero_and_one(self, monkeypatch, lockstep_lanes):
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        seeds = _lane_seeds(6, seed=3)
        lanes, thr, keys = _offers(
            [50, 80, 0, 30, 64, 5], 4, seed=3, thresholds=[0.0, 1.0]
        )
        got = _kernel(draws.ReceiverStreams(0, seeds), lanes, thr, 4, keys)
        assert got == _scalar(
            [random.Random(s) for s in seeds], lanes, thr, 4, keys
        )

    @pytest.mark.parametrize("lockstep_lanes", [1, 3, 10**6])
    def test_per_offer_capacities(self, monkeypatch, lockstep_lanes):
        """Two pools of different capacity on one stream, offers
        interleaved: the multi-level receivers' CDM/data case."""
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        seeds = _lane_seeds(7, seed=11)
        rng = np.random.default_rng(11)
        lanes = np.repeat(np.arange(7), [300, 20, 0, 150, 9, 400, 33])
        caps = rng.choice([4, 8, 13], lanes.size)
        thr = caps / rng.integers(5, 40, lanes.size)
        keys = np.where(caps == 8, 100, 0) + rng.integers(0, 3, lanes.size) * 16
        got = _kernel(draws.ReceiverStreams(0, seeds), lanes, thr, caps, keys)
        assert got == _scalar(
            [random.Random(s) for s in seeds], lanes, thr, caps, keys
        )

    def test_resumed_calls_continue_each_stream(self, monkeypatch, lockstep_calls):
        """Successive calls (EDRP's settle) resume every lane where it
        stopped, as its state moves between the grid and a scalar
        stream in both directions."""
        seeds = _lane_seeds(10, seed=5)
        streams = draws.ReceiverStreams(40, seeds)
        oracle = [random.Random(s) for s in seeds]
        plan = [
            (1, [30, 0, 200, 4, 4, 90, 0, 1, 650, 12]),
            (10**6, [5, 7, 0, 300, 0, 0, 2, 9, 1, 0]),
            (2, [0, 40, 40, 40, 0, 80, 3, 0, 700, 5]),
            (3, [60, 1, 1, 1, 800, 0, 0, 2, 0, 30]),
            (10**6, [3, 0, 0, 0, 0, 0, 0, 0, 9, 0]),
            (1, [100] * 10),
        ]
        for call, (lockstep_lanes, counts) in enumerate(plan):
            monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
            lanes, thr, keys = _offers(counts, 3, seed=call)
            assert _kernel(streams, lanes, thr, 3, keys) == _scalar(
                oracle, lanes, thr, 3, keys
            ), f"call {call}"
        assert len(lockstep_calls) == 4

    def test_slot_columns_cover_only_reachable_slots(self):
        written, column = draws._slot_columns(np.array([5000, 0, 100, 100, 102]), 4)
        assert written.tolist() == [0, 1, 2, 3, *range(100, 106), *range(5000, 5004)]
        assert column[written].tolist() == list(range(written.size))

    @pytest.mark.parametrize("lockstep_lanes", [1, 3])
    def test_sparse_keys_keep_the_table_narrow(self, monkeypatch, lockstep_lanes):
        """Keys far apart (EDRP's data buckets sit past every CDM
        bucket): the survivor table spans the slots the call can write,
        not the keys' range."""
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        widths = []
        original = draws.ReceiverStreams._lockstep

        def spy(self, *args):
            widths.append(args[-1])
            return original(self, *args)

        monkeypatch.setattr(draws.ReceiverStreams, "_lockstep", spy)
        seeds = _lane_seeds(6, seed=29)
        lanes, thr, keys = _offers([90, 0, 40, 300, 12, 5], 4, seed=29)
        keys = 10**6 + keys * 5_003
        got = _kernel(draws.ReceiverStreams(0, seeds), lanes, thr, 4, keys)
        assert got == _scalar(
            [random.Random(s) for s in seeds], lanes, thr, 4, keys
        )
        assert widths and max(widths) <= 5 * 4

    def test_large_fleet_of_lanes(self):
        """Many lanes at the default crossover: a long lockstep, then
        the handoff of the longest lanes."""
        seeds = _lane_seeds(400, seed=17)
        rng = np.random.default_rng(17)
        counts = rng.integers(0, 260, 400)
        counts[:3] = 2000
        lanes, thr, keys = _offers(counts.tolist(), 4, seed=17)
        got = _kernel(draws.ReceiverStreams(0, seeds), lanes, thr, 4, keys)
        assert got == _scalar(
            [random.Random(s) for s in seeds], lanes, thr, 4, keys
        )

    @pytest.mark.parametrize("lockstep_lanes", [1, 3, 10**6])
    def test_trace_matches_scalar_path(self, monkeypatch, lockstep_lanes):
        """Under the sanitizer the kernel records each lane's draws as
        the scalar stream would, rejected victim words included."""
        monkeypatch.setattr(draws, "LOCKSTEP_LANES", lockstep_lanes)
        seeds = _lane_seeds(6, seed=23)
        lanes, thr, keys = _offers([400, 3, 0, 90, 700, 20], 5, seed=23)
        with tracing() as oracle:
            rngs = [draws.receiver_rng(7 + j, s) for j, s in enumerate(seeds)]
            _scalar(rngs, lanes, thr, 5, keys)
        with tracing() as kernel:
            draws.ReceiverStreams(7, seeds).overflow(lanes, thr, 5, keys)
        assert oracle.trace.streams["receiver-11"]
        assert sorted(kernel.trace.streams) == sorted(oracle.trace.streams)
        assert oracle.trace.diff(kernel.trace) == ()

    def test_no_offers(self):
        empty = np.zeros(0, dtype=np.int64)
        lanes, slots, offers = draws.ReceiverStreams(0, [1, 2]).overflow(
            empty, empty.astype(np.float64), 4, empty
        )
        assert lanes.size == slots.size == offers.size == 0

    def test_rejects_ungrouped_lanes_and_bad_capacities(self):
        streams = draws.ReceiverStreams(0, [1, 2])
        thr = np.ones(3)
        keys = np.zeros(3, dtype=np.int64)
        with pytest.raises(SimulationError, match="grouped"):
            streams.overflow(np.array([0, 1, 0]), thr, 4, keys)
        with pytest.raises(SimulationError, match="capacities"):
            streams.overflow(np.array([0, 0, 1]), thr, 0, keys)
        with pytest.raises(SimulationError, match="keys"):
            streams.overflow(np.array([0, 0, 1]), thr, 4, keys - 1)
