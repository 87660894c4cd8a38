"""Unit tests for the DoS attacker models."""

from __future__ import annotations

import random

import pytest

from repro.devtools.sanitizers.determinism import traced_rng, tracing
from repro.errors import ConfigurationError
from repro.game.parameters import paper_parameters
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    TeslaPacket,
)
from repro.sim.attacker import (
    FloodingAttacker,
    GameAwareAttacker,
    announce_forgery_factory,
    cdm_forgery_factory,
    data_forgery_factory,
    forged_bytes,
    forged_copies_for_fraction,
    message_key_forgery_factory,
    tesla_forgery_factory,
)
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.timesync.intervals import IntervalSchedule


class TestForgedBytes:
    """The helper must consume the RNG exactly as the generator form
    ``bytes(rng.getrandbits(8) for _ in range(n))`` did."""

    @staticmethod
    def _reference(rng, nbytes):
        return bytes(rng.getrandbits(8) for _ in range(nbytes))

    @pytest.mark.parametrize("seed", [0, 1, 2024])
    @pytest.mark.parametrize("nbytes", [0, 1, 10, 33])
    def test_same_bytes_and_end_state(self, seed, nbytes):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert forged_bytes(rng, nbytes) == self._reference(reference, nbytes)
        assert rng.getstate() == reference.getstate()

    def test_same_draws_through_the_determinism_sanitizer(self):
        with tracing() as helper_trace:
            rng = traced_rng(random.Random(9), "attacker")
            got = [forged_bytes(rng, 10) for _ in range(4)]
        with tracing() as reference_trace:
            reference = traced_rng(random.Random(9), "attacker")
            expected = [self._reference(reference, 10) for _ in range(4)]
        assert got == expected
        assert rng.getstate() == reference.getstate()
        helper_draws = helper_trace.trace.streams["attacker"]
        reference_draws = reference_trace.trace.streams["attacker"]
        assert len(helper_draws) == 40
        assert [(d.method, d.value) for d in helper_draws] == [
            (d.method, d.value) for d in reference_draws
        ]


class TestForgedCopiesForFraction:
    def test_matches_target_fraction(self):
        for p in (0.2, 0.5, 0.8, 0.9):
            forged = forged_copies_for_fraction(10, p)
            assert forged / (forged + 10) == pytest.approx(p, abs=0.05)

    def test_zero_attack(self):
        assert forged_copies_for_fraction(10, 0.0) == 0

    def test_at_least_one_when_attacking(self):
        assert forged_copies_for_fraction(10, 0.01) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            forged_copies_for_fraction(-1, 0.5)
        with pytest.raises(ConfigurationError):
            forged_copies_for_fraction(10, 1.0)


class TestForgeryFactories:
    @pytest.fixture
    def frng(self):
        return random.Random(9)

    def test_announce_factory(self, frng):
        packet = announce_forgery_factory()(3, 0, frng)
        assert isinstance(packet, MacAnnouncePacket)
        assert packet.index == 3
        assert packet.provenance == FORGED

    def test_data_factory(self, frng):
        packet = data_forgery_factory()(3, 1, frng)
        assert isinstance(packet, MuTeslaDataPacket)
        assert packet.provenance == FORGED

    def test_tesla_factory(self, frng):
        packet = tesla_forgery_factory()(5, 0, frng)
        assert isinstance(packet, TeslaPacket)
        assert packet.provenance == FORGED

    def test_cdm_factory_maps_high_interval(self, frng):
        factory = cdm_forgery_factory(lambda flat: (flat - 1) // 4 + 1)
        packet = factory(6, 0, frng)
        assert isinstance(packet, CdmPacket)
        assert packet.high_index == 2

    def test_message_key_factory(self, frng):
        packet = message_key_forgery_factory()(2, 0, frng)
        assert isinstance(packet, MessageKeyPacket)
        assert packet.provenance == FORGED

    def test_forgeries_vary(self, frng):
        factory = announce_forgery_factory()
        assert factory(1, 0, frng).mac != factory(1, 1, frng).mac


class TestFloodingAttacker:
    def test_injects_expected_volume(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, rng=random.Random(0))
        received = []
        medium.attach("r", lambda p, t: received.append(p))
        attacker = FloodingAttacker(
            sim,
            medium,
            IntervalSchedule(0.0, 1.0),
            announce_forgery_factory(),
            p=0.8,
            authentic_copies_per_interval=5,
            intervals=4,
            rng=random.Random(1),
        )
        attacker.start()
        sim.run()
        assert attacker.packets_injected == 20 * 4
        assert len(received) == 80
        assert all(p.provenance == FORGED for p in received)

    def test_burst_confined_to_window(self):
        sim = Simulator()
        medium = BroadcastMedium(sim, rng=random.Random(0))
        times = []
        medium.attach("r", lambda p, t: times.append(sim.now))
        attacker = FloodingAttacker(
            sim,
            medium,
            IntervalSchedule(0.0, 1.0),
            announce_forgery_factory(),
            p=0.5,
            authentic_copies_per_interval=4,
            intervals=1,
            burst_fraction=0.25,
            rng=random.Random(1),
        )
        attacker.start()
        sim.run()
        assert times
        assert max(times) <= 0.25 + 0.01  # window + link delay

    def test_validation(self):
        sim = Simulator()
        medium = BroadcastMedium(sim)
        with pytest.raises(ConfigurationError):
            FloodingAttacker(
                sim, medium, IntervalSchedule(0.0, 1.0),
                announce_forgery_factory(), 0.5, 5, intervals=0,
            )
        with pytest.raises(ConfigurationError):
            FloodingAttacker(
                sim, medium, IntervalSchedule(0.0, 1.0),
                announce_forgery_factory(), 0.5, 5, intervals=3,
                burst_fraction=0.0,
            )


class TestGameAwareAttacker:
    def _run(self, params, defender_share, intervals=120):
        sim = Simulator()
        medium = BroadcastMedium(sim, rng=random.Random(0))
        medium.attach("r", lambda p, t: None)
        attacker = GameAwareAttacker(
            sim,
            medium,
            IntervalSchedule(0.0, 1.0),
            announce_forgery_factory(),
            params=params,
            defender_share=defender_share,
            authentic_copies_per_interval=5,
            intervals=intervals,
            steps_per_interval=50,
            rng=random.Random(2),
        )
        attacker.start()
        sim.run()
        return attacker

    def test_share_converges_to_edge_equilibrium(self):
        """Against full defense (X = 1) with medium m, Y converges to
        Y' = p^m Ra / (k1 xa)."""
        params = paper_parameters(p=0.8, m=14)
        attacker = self._run(params, defender_share=1.0)
        assert attacker.attack_share == pytest.approx(0.55, abs=0.02)

    def test_attack_rate_tracks_share(self):
        params = paper_parameters(p=0.8, m=14)
        attacker = self._run(params, defender_share=1.0, intervals=200)
        empirical = sum(attacker.attack_decisions) / len(attacker.attack_decisions)
        assert empirical == pytest.approx(attacker.attack_share, abs=0.12)

    def test_full_aggression_against_undefended(self):
        """With X = 0 and profitable attacks, Y climbs to 1."""
        params = paper_parameters(p=0.8, m=5)
        attacker = self._run(params, defender_share=0.0)
        assert attacker.attack_share == pytest.approx(1.0, abs=0.01)

    def test_validation(self):
        sim = Simulator()
        medium = BroadcastMedium(sim)
        with pytest.raises(ConfigurationError):
            GameAwareAttacker(
                sim, medium, IntervalSchedule(0.0, 1.0),
                announce_forgery_factory(),
                params=paper_parameters(p=0.8, m=5),
                defender_share=1.5,
                authentic_copies_per_interval=5,
                intervals=3,
            )
