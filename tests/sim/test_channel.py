"""Tests for the loss processes and their integration with the medium."""

from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.protocols.packets import MacAnnouncePacket
from repro.scenarios import get_scenario
from repro.sim import channel as channel_module
from repro.sim import draws
from repro.sim.channel import (
    BernoulliLoss,
    GilbertElliottLoss,
    bernoulli_drop_mask,
    gilbert_elliott_drop_mask,
)
from repro.sim.events import Simulator
from repro.sim.fleet import _packed_delivery_mask
from repro.sim.medium import BroadcastMedium, LinkQuality

#: Widest lane count the Gilbert–Elliott mask still cuts into segments.
_WIDTH = channel_module._SEGMENT_LANES // (2 * channel_module._MIN_SEGMENTS)

#: ``(p_good_to_bad, p_bad_to_good, loss_good, loss_bad)``: a typical
#: channel, fades entered more often than left, certain entry, certain
#: exit, and lossy GOOD states throughout.
_CHANNELS = [
    (0.15, 0.35, 0.02, 0.9),
    (0.625, 0.25, 0.125, 1.0),
    (1.0, 0.375, 0.25, 0.75),
    (0.25, 1.0, 0.0625, 1.0),
]
_CHANNEL_IDS = ["typical", "g2b>b2g", "g2b=1", "b2g=1"]

#: ``(steps, lanes)``: empty and single steps, one lane, lanes just
#: below, at and above the segment width, and step counts that leave a
#: ragged tail after the last full segment.
_SHAPES = [
    (0, 4),
    (1, 4),
    (1, 1),
    (997, 1),
    (1001, 3),
    (40, _WIDTH - 1),
    (40, _WIDTH),
    (40, _WIDTH + 1),
    (7, 2 * _WIDTH),
]


class _Replay(random.Random):
    """Hands out a fixed sequence of uniforms as ``random()`` draws."""

    def __init__(self, values):
        super().__init__(0)
        self._values = iter(values)

    def random(self):
        return next(self._values)


def _scalar_replay(uniforms, channel, initial_bad):
    """Per-lane :meth:`GilbertElliottLoss.should_drop` over ``uniforms``."""
    steps, lanes, _ = uniforms.shape
    drops = np.empty((steps, lanes), dtype=bool)
    states = np.empty(lanes, dtype=bool)
    for lane in range(lanes):
        process = GilbertElliottLoss(*channel)
        if initial_bad is not None:
            process._bad = bool(initial_bad[lane])
        rng = _Replay(uniforms[:, lane, :].ravel().tolist())
        drops[:, lane] = [process.should_drop(rng) for _ in range(steps)]
        states[lane] = process.in_fade
    return drops, states


class TestBernoulliLoss:
    def test_average(self):
        assert BernoulliLoss(0.3).average_loss() == 0.3

    def test_empirical_rate(self):
        loss = BernoulliLoss(0.25)
        rng = random.Random(1)
        drops = sum(loss.should_drop(rng) for _ in range(20_000))
        assert drops / 20_000 == pytest.approx(0.25, abs=0.01)

    def test_zero_and_one(self):
        rng = random.Random(1)
        assert not any(BernoulliLoss(0.0).should_drop(rng) for _ in range(100))
        assert all(BernoulliLoss(1.0).should_drop(rng) for _ in range(100))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BernoulliLoss(1.5)


class TestGilbertElliott:
    def test_stationary_share(self):
        channel = GilbertElliottLoss(0.1, 0.4)
        assert channel.stationary_bad_share() == pytest.approx(0.2)

    def test_average_loss_formula(self):
        channel = GilbertElliottLoss(0.1, 0.4, loss_good=0.05, loss_bad=0.9)
        expected = 0.2 * 0.9 + 0.8 * 0.05
        assert channel.average_loss() == pytest.approx(expected)

    def test_from_average_hits_target(self):
        channel = GilbertElliottLoss.from_average(0.2, mean_burst=5.0)
        assert channel.average_loss() == pytest.approx(0.2, abs=1e-9)

    def test_empirical_average_matches(self):
        channel = GilbertElliottLoss.from_average(0.2, mean_burst=5.0)
        rng = random.Random(3)
        drops = sum(channel.should_drop(rng) for _ in range(100_000))
        assert drops / 100_000 == pytest.approx(0.2, abs=0.02)

    def test_losses_are_bursty(self):
        """Consecutive-loss runs are much longer than Bernoulli's at the
        same average loss."""

        def mean_run(process, rng, n=100_000):
            runs, current = [], 0
            for _ in range(n):
                if process.should_drop(rng):
                    current += 1
                elif current:
                    runs.append(current)
                    current = 0
            return sum(runs) / max(len(runs), 1)

        bursty = mean_run(
            GilbertElliottLoss.from_average(0.2, mean_burst=8.0), random.Random(5)
        )
        memoryless = mean_run(BernoulliLoss(0.2), random.Random(5))
        assert bursty > 3 * memoryless

    def test_fade_state_visible(self):
        channel = GilbertElliottLoss(1.0, 1e-9)
        rng = random.Random(1)
        channel.should_drop(rng)
        assert channel.in_fade

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(1.5, 0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss(0.5, 0.0)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_average(0.5, mean_burst=0.5)
        with pytest.raises(ConfigurationError):
            GilbertElliottLoss.from_average(
                0.9, mean_burst=3.0, loss_good=0.0, loss_bad=0.5
            )

    @pytest.mark.parametrize("average", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_from_average_rejects_out_of_range_average(self, average):
        with pytest.raises(ValueError, match="average_loss"):
            GilbertElliottLoss.from_average(average, mean_burst=3.0)

    @pytest.mark.parametrize("burst", [0.0, 0.99, -1.0, float("nan"), float("inf")])
    def test_from_average_rejects_degenerate_burst(self, burst):
        with pytest.raises(ValueError, match="mean_burst"):
            GilbertElliottLoss.from_average(0.3, mean_burst=burst)

    def test_boundary_average_zero_still_allowed(self):
        channel = GilbertElliottLoss.from_average(0.0, mean_burst=3.0)
        assert channel.average_loss() == pytest.approx(0.0)


class TestVectorizedMasks:
    """The array masks must replay the scalar processes draw-for-draw."""

    def test_bernoulli_mask_matches_scalar_sequence(self):
        probability = 0.3
        steps, lanes = 200, 7
        scalar = []
        uniforms = np.empty((steps, lanes))
        for lane in range(lanes):
            process = BernoulliLoss(probability)
            rng = random.Random(1000 + lane)
            mirror = random.Random(1000 + lane)
            scalar.append([process.should_drop(rng) for _ in range(steps)])
            uniforms[:, lane] = [mirror.random() for _ in range(steps)]
        mask = bernoulli_drop_mask(uniforms, probability)
        assert mask.shape == (steps, lanes)
        for lane in range(lanes):
            assert mask[:, lane].tolist() == scalar[lane]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gilbert_elliott_mask_matches_scalar_sequence(self, seed):
        """Exact per-receiver loss sequence at equal seeds — the parity
        the fleet engine's delivery mask relies on."""
        channel_args = dict(
            p_good_to_bad=0.15, p_bad_to_good=0.35, loss_good=0.02, loss_bad=0.9
        )
        steps, lanes = 300, 5
        scalar = []
        uniforms = np.empty((steps, lanes, 2))
        for lane in range(lanes):
            process = GilbertElliottLoss(**channel_args)
            rng = random.Random(seed * 100 + lane)
            mirror = random.Random(seed * 100 + lane)
            scalar.append([process.should_drop(rng) for _ in range(steps)])
            for step in range(steps):
                uniforms[step, lane, 0] = mirror.random()
                uniforms[step, lane, 1] = mirror.random()
        mask = gilbert_elliott_drop_mask(uniforms, **channel_args)
        assert mask.shape == (steps, lanes)
        for lane in range(lanes):
            assert mask[:, lane].tolist() == scalar[lane]

    @pytest.mark.parametrize("channel", _CHANNELS, ids=_CHANNEL_IDS)
    @pytest.mark.parametrize("steps, lanes", _SHAPES)
    def test_gilbert_elliott_mask_matches_scalar_replay(self, channel, steps, lanes):
        """Segmented and single-run shapes alike replay the scalar
        process on the same uniforms, from GOOD and from BAD starts."""
        rng = np.random.RandomState(steps * 7919 + lanes)
        uniforms = rng.random_sample((steps, lanes, 2))
        for initial_bad in (None, rng.random_sample(lanes) < 0.5):
            expected, expected_state = _scalar_replay(uniforms, channel, initial_bad)
            mask, state = gilbert_elliott_drop_mask(
                uniforms, *channel, initial_bad=initial_bad, return_state=True
            )
            assert mask.shape == (steps, lanes)
            assert np.array_equal(mask, expected)
            assert np.array_equal(state, expected_state)

    @pytest.mark.parametrize("channel", _CHANNELS, ids=_CHANNEL_IDS)
    @pytest.mark.parametrize("lanes", [1, 8, _WIDTH + 1])
    def test_gilbert_elliott_mask_uniforms_on_thresholds(self, channel, lanes):
        """A uniform exactly equal to a threshold decides as the scalar
        ``<`` / ``>=`` comparisons do."""
        rng = np.random.RandomState(lanes)
        values = np.array(sorted(set(channel) | {0.0, 0.5, 0.999}))
        uniforms = values[rng.randint(len(values), size=(301, lanes, 2))]
        expected, expected_state = _scalar_replay(uniforms, channel, None)
        mask, state = gilbert_elliott_drop_mask(uniforms, *channel, return_state=True)
        assert np.array_equal(mask, expected)
        assert np.array_equal(state, expected_state)

    @pytest.mark.parametrize("lanes", [1, 8, _WIDTH + 1])
    @pytest.mark.parametrize("cuts", [(0,), (1,), (1234,), (17, 18, 4000)])
    def test_gilbert_elliott_mask_block_seams(self, lanes, cuts):
        """Blocks chained through ``initial_bad``/``return_state`` equal
        one call over the whole step axis."""
        channel = _CHANNELS[0]
        uniforms = np.random.RandomState(5).random_sample((5000, lanes, 2))
        whole, whole_state = gilbert_elliott_drop_mask(
            uniforms, *channel, return_state=True
        )
        blocks, state = [], None
        for begin, end in zip((0,) + cuts, cuts + (len(uniforms),)):
            drops, state = gilbert_elliott_drop_mask(
                uniforms[begin:end], *channel, initial_bad=state, return_state=True
            )
            blocks.append(drops)
        assert np.array_equal(np.concatenate(blocks), whole)
        assert np.array_equal(state, whole_state)

    @pytest.mark.parametrize(
        "scenario, overrides, block_slots",
        [
            pytest.param(name, {}, None, id=name)
            for name in (
                "vehicular-beacon-storm-t3",
                "remote-id-storm-t3",
                "crowdsensing-edrp-storm-t3",
            )
        ]
        + [
            pytest.param(
                "remote-id-storm-t3",
                {"loss_mean_burst": None, "loss_probability": 0.3},
                None,
                id="bernoulli",
            ),
            pytest.param("remote-id-storm-t3", {}, 7, id="block-boundary"),
        ],
    )
    def test_fleet_delivery_mask_matches_scalar_medium(
        self, monkeypatch, scenario, overrides, block_slots
    ):
        """The fleet engine's packed mask, drawn through the
        :mod:`repro.sim.draws` medium mirror, is per receiver a scalar
        ``should_drop`` replay of the medium stream (one draw per
        Bernoulli decision, one transition and one loss draw per
        Gilbert–Elliott decision, in attachment order). With
        ``block_slots`` the mirror yields that many slots per block, so
        the channel state must carry across block seams."""
        config = replace(
            get_scenario(scenario).config, receivers=9, **overrides
        )
        bursty = config.loss_mean_burst is not None
        if block_slots is not None:
            per_slot = config.receivers * (2 if bursty else 1)
            monkeypatch.setattr(
                draws, "MEDIUM_BLOCK_FLOATS", block_slots * per_slot + 1
            )
        slots = 3001
        packed, delivered_any, delivered_total = _packed_delivery_mask(
            config, slots, random.Random(config.seed)
        )
        medium = random.Random(config.seed)
        channels = [
            GilbertElliottLoss.from_average(
                config.loss_probability, config.loss_mean_burst
            )
            if bursty
            else BernoulliLoss(config.loss_probability)
            for _ in range(config.receivers)
        ]
        expected = np.array(
            [
                [not channel.should_drop(medium) for channel in channels]
                for _ in range(slots)
            ]
        )
        delivered = np.unpackbits(packed, axis=1)[:, : config.receivers]
        assert np.array_equal(delivered.astype(bool), expected)
        assert np.array_equal(delivered_any, expected.any(axis=1))
        assert delivered_total == int(expected.sum())

    def test_gilbert_elliott_mask_requires_two_draws_per_decision(self):
        with pytest.raises(ConfigurationError):
            gilbert_elliott_drop_mask(np.zeros((4, 2)), 0.1, 0.4)

    def test_bernoulli_mask_validates_probability(self):
        with pytest.raises(ConfigurationError):
            bernoulli_drop_mask(np.zeros(4), 1.5)


class TestMediumIntegration:
    def test_link_quality_builds_process(self):
        assert isinstance(LinkQuality(0.3).make_loss_process(), BernoulliLoss)
        custom = GilbertElliottLoss(0.1, 0.5)
        assert LinkQuality(loss_process=custom).make_loss_process() is custom

    def test_bursty_link_drops_in_runs(self):
        simulator = Simulator()
        medium = BroadcastMedium(simulator, rng=random.Random(2))
        outcomes = []
        medium.attach(
            "node",
            lambda p, t: outcomes.append(p.index),
            LinkQuality(
                delay=0.0,
                loss_process=GilbertElliottLoss.from_average(0.3, mean_burst=10.0),
            ),
        )
        for i in range(2000):
            medium.broadcast(MacAnnouncePacket(i + 1, b"m" * 10))
        simulator.run()
        received = set(outcomes)
        # find the longest missing run
        longest, current = 0, 0
        for i in range(1, 2001):
            if i not in received:
                current += 1
                longest = max(longest, current)
            else:
                current = 0
        assert longest >= 5  # bursts visible end to end
