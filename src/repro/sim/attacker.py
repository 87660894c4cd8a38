"""DoS attacker models.

The paper's attacker floods forged copies so that a fraction ``p`` of
the copies a receiver sees are forged. Two models:

- :class:`FloodingAttacker` — fixed attack level: each interval it
  injects however many forged packets make the forged fraction ``p``
  given the sender's authentic copy count (``n_f = n_a p / (1-p)``,
  rounded).
- :class:`GameAwareAttacker` — plays the evolutionary game: its attack
  probability ``Y`` follows the attacker replicator equation against an
  (estimated) defender share ``X``, so over a long run its behaviour
  converges to the game's ESS. Used in the adaptive-defense example to
  demonstrate the co-evolution the paper models.

Forgery factories build protocol-appropriate garbage (announcements
with random MACs, forged CDMs, forged TESLA packets). Forged bytes are
drawn from a seeded RNG — they are *not* derived from any key, so a
protocol that ever authenticates one has a real bug (tests assert it
never happens).
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Callable, Optional, Tuple

from repro.errors import ConfigurationError
from repro.game.parameters import GameParameters
from repro.game.replicator import ReplicatorDynamics
from repro.protocols.messages import forged_message
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    TeslaPacket,
)
from repro.sim.events import Simulator
from repro.sim.medium import BroadcastMedium
from repro.timesync.intervals import IntervalSchedule

__all__ = [
    "forged_copies_for_fraction",
    "forged_bytes",
    "announce_forgery_factory",
    "data_forgery_factory",
    "tesla_forgery_factory",
    "cdm_forgery_factory",
    "message_key_forgery_factory",
    "FloodingAttacker",
    "GameAwareAttacker",
]

#: Forgery factory signature: ``(interval, copy_number, rng) -> packet``.
ForgeryFactory = Callable[[int, int, random.Random], object]


def forged_copies_for_fraction(authentic_copies: int, p: float) -> int:
    """Forged copies needed so forged/(forged+authentic) ≈ ``p``."""
    if authentic_copies < 0:
        raise ConfigurationError(
            f"authentic_copies must be >= 0, got {authentic_copies}"
        )
    if not 0.0 <= p < 1.0:
        raise ConfigurationError(f"p must be in [0, 1), got {p}")
    if p == 0.0 or authentic_copies == 0:
        return 0
    return max(round(authentic_copies * p / (1.0 - p)), 1)


def forged_bytes(rng: random.Random, nbytes: int) -> bytes:
    """``nbytes`` random bytes, one ``rng.getrandbits(8)`` draw each.

    The one owner of the forged-byte draw order: the forgery factories
    below and the fleet engine's mirrored plans both draw through it,
    so the engines stay draw-for-draw identical.
    """
    return bytes(map(rng.getrandbits, repeat(8, nbytes)))


def announce_forgery_factory() -> ForgeryFactory:
    """Forged DAP/TESLA++ MAC announcements (random 80-bit MACs)."""

    def factory(interval: int, copy: int, rng: random.Random) -> MacAnnouncePacket:
        return MacAnnouncePacket(
            index=interval, mac=forged_bytes(rng, 10), provenance=FORGED
        )

    return factory


def data_forgery_factory() -> ForgeryFactory:
    """Forged μTESLA data packets (forged payload, random MAC)."""

    def factory(interval: int, copy: int, rng: random.Random) -> MuTeslaDataPacket:
        return MuTeslaDataPacket(
            index=interval,
            message=forged_message(interval, copy),
            mac=forged_bytes(rng, 10),
            provenance=FORGED,
        )

    return factory


def tesla_forgery_factory() -> ForgeryFactory:
    """Forged TESLA packets (forged payload, random MAC and key)."""

    def factory(interval: int, copy: int, rng: random.Random) -> TeslaPacket:
        return TeslaPacket(
            index=interval,
            message=forged_message(interval, copy),
            mac=forged_bytes(rng, 10),
            disclosed_index=max(interval - 2, 0),
            disclosed_key=forged_bytes(rng, 10),
            provenance=FORGED,
        )

    return factory


def cdm_forgery_factory(high_of: Callable[[int], int]) -> ForgeryFactory:
    """Forged multi-level CDMs targeting the current high interval.

    Args:
        high_of: maps the attacker's (flat) interval to the high-level
            interval whose CDM should be forged.
    """

    def factory(interval: int, copy: int, rng: random.Random) -> CdmPacket:
        high = high_of(interval)
        return CdmPacket(
            high_index=high,
            low_commitment=forged_bytes(rng, 10),
            mac=forged_bytes(rng, 10),
            disclosed_index=0,
            disclosed_key=None,
            provenance=FORGED,
        )

    return factory


def message_key_forgery_factory() -> ForgeryFactory:
    """Forged reveal packets (forged message, random key) — exercise the
    weak-authentication rejection path."""

    def factory(interval: int, copy: int, rng: random.Random) -> MessageKeyPacket:
        return MessageKeyPacket(
            index=interval,
            message=forged_message(interval, copy),
            key=forged_bytes(rng, 10),
            provenance=FORGED,
        )

    return factory


class FloodingAttacker:
    """Fixed-level flooding: forge a fraction ``p`` of each interval's copies.

    Args:
        simulator / medium: the world the attacker lives in.
        schedule: the protocol's interval schedule.
        factory: forgery factory for the protocol under attack.
        p: target forged fraction.
        authentic_copies_per_interval: the legitimate sender's copy
            count, used to size the flood.
        intervals: how many intervals to attack (from interval 1).
        burst_fraction: the flood is packed into this leading fraction
            of each interval (real floods front-load to fill buffers
            before authentic copies arrive — this is what defeats
            keep-first buffering while leaving reservoir selection
            unaffected). 1.0 spreads the flood across the interval.
        rng: seeded RNG (forgery bytes + flood jitter).
    """

    def __init__(
        self,
        simulator: Simulator,
        medium: BroadcastMedium,
        schedule: IntervalSchedule,
        factory: ForgeryFactory,
        p: float,
        authentic_copies_per_interval: int,
        intervals: int,
        burst_fraction: float = 0.25,
        rng: Optional[random.Random] = None,
    ) -> None:
        if intervals < 1:
            raise ConfigurationError(f"intervals must be >= 1, got {intervals}")
        if not 0.0 < burst_fraction <= 1.0:
            raise ConfigurationError(
                f"burst_fraction must be in (0, 1], got {burst_fraction}"
            )
        self._simulator = simulator
        self._medium = medium
        self._schedule = schedule
        self._factory = factory
        self._p = p
        self._authentic = authentic_copies_per_interval
        self._intervals = intervals
        self._burst_fraction = burst_fraction
        # reprolint: disable=RPL002 -- ad-hoc/interactive fallback; every scenario path passes a master-seeded rng
        self._rng = rng or random.Random()
        self.packets_injected = 0

    @property
    def p(self) -> float:
        """The configured forged fraction."""
        return self._p

    def start(self) -> None:
        """Schedule the flood for every attacked interval."""
        for interval in range(1, self._intervals + 1):
            copies = forged_copies_for_fraction(self._authentic, self._p)
            start = self._schedule.start_of(interval)
            window = self._schedule.duration * self._burst_fraction
            for copy in range(copies):
                offset = window * (copy + 0.5) / max(copies, 1)
                self._simulator.schedule(
                    start + offset,
                    self._make_injector(interval, copy),
                    f"forged packet {copy} interval {interval}",
                )

    def _make_injector(self, interval: int, copy: int) -> Callable[[], None]:
        def inject() -> None:
            packet = self._factory(interval, copy, self._rng)
            self._medium.broadcast(packet)
            self.packets_injected += 1

        return inject


class GameAwareAttacker(FloodingAttacker):
    """An attacker whose per-interval attack decision follows the game.

    Each interval it updates its attack share ``Y`` one replicator step
    against the configured defender share ``X`` and floods with
    probability ``Y``. Over many intervals its empirical attack rate
    converges to the ESS attacker share — the behavioural prediction
    the paper draws from the game.
    """

    def __init__(
        self,
        simulator: Simulator,
        medium: BroadcastMedium,
        schedule: IntervalSchedule,
        factory: ForgeryFactory,
        params: GameParameters,
        defender_share: float,
        authentic_copies_per_interval: int,
        intervals: int,
        y0: float = 0.5,
        steps_per_interval: int = 10,
        dt: float = 0.01,
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__(
            simulator,
            medium,
            schedule,
            factory,
            p=params.p,
            authentic_copies_per_interval=authentic_copies_per_interval,
            intervals=intervals,
            rng=rng,
        )
        if not 0.0 <= defender_share <= 1.0:
            raise ConfigurationError(
                f"defender_share must be in [0, 1], got {defender_share}"
            )
        self._dynamics = ReplicatorDynamics(params)
        self._x = defender_share
        self._y = y0
        self._steps_per_interval = steps_per_interval
        self._dt = dt
        self.attack_decisions = []

    @property
    def attack_share(self) -> float:
        """Current replicator attack share ``Y``."""
        return self._y

    def start(self) -> None:
        for interval in range(1, self._intervals + 1):
            start = self._schedule.start_of(interval)
            self._simulator.schedule(
                start, self._make_interval_runner(interval), f"attack decision {interval}"
            )

    def _make_interval_runner(self, interval: int) -> Callable[[], None]:
        def run_interval() -> None:
            for _ in range(self._steps_per_interval):
                _x, self._y = self._step_y()
            attack = self._rng.random() < self._y
            self.attack_decisions.append(attack)
            if not attack:
                return
            copies = forged_copies_for_fraction(self._authentic, self._p)
            window = self._schedule.duration * self._burst_fraction
            for copy in range(copies):
                offset = window * (copy + 0.5) / max(copies, 1)
                self._simulator.schedule_in(
                    offset,
                    self._make_injector(interval, copy),
                    f"forged packet {copy} interval {interval}",
                )

        return run_interval

    def _step_y(self) -> Tuple[float, float]:
        _dx, dy = self._dynamics.derivatives(self._x, self._y)
        y = min(max(self._y + dy * self._dt, 1e-12), 1.0)
        return self._x, y
