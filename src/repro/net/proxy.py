"""Fault-injection proxy: the hostile network between sender and fleet.

The proxy is an ordinary endpoint: whatever arrives on its address is
forwarded to every downstream address through an emulated link — drop
(any :mod:`repro.sim.channel` loss process, so Bernoulli and
Gilbert–Elliott burst fades are both available), base delay, uniform
jitter, duplication and reordering. Each downstream link owns a fresh
loss-process instance (fades are per-link state) while one seeded RNG
drives all links in downstream order. The loss draws come from
:func:`repro.sim.draws.kept_links`, the same iterator
:class:`repro.sim.medium.BroadcastMedium` draws from, which is what
lets a loopback soak reproduce an in-memory simulation
decision-for-decision.

Faults compose per delivery: a datagram can be duplicated *and* each
copy delayed and reordered independently, which is how real congested
paths behave. All copies of one datagram leave in one
:meth:`~repro.net.transport.Transport.send_many`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.net.transport import Transport
from repro.sim.channel import BernoulliLoss, GilbertElliottLoss, LossProcess
from repro.sim.draws import kept_links

__all__ = ["ProxyConfig", "FaultInjectionProxy"]


@dataclass(frozen=True)
class ProxyConfig:
    """Per-link fault model.

    Attributes:
        loss_probability: average per-delivery loss.
        loss_mean_burst: when set (> 1), losses are bursty: a
            Gilbert–Elliott channel with this mean fade length replaces
            the memoryless model at the same average loss.
        delay: base one-way link delay in seconds.
        jitter: extra uniform random delay in ``[0, jitter)`` seconds.
        duplicate_probability: chance a delivery is sent twice.
        reorder_probability: chance a delivery is held back by
            ``reorder_delay`` so later datagrams overtake it.
        reorder_delay: how long a reordered delivery is held (defaults
            to twice the base delay — enough to swap with a successor).
    """

    loss_probability: float = 0.0
    loss_mean_burst: Optional[float] = None
    delay: float = 1e-3
    jitter: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_delay: Optional[float] = None

    def __post_init__(self) -> None:
        probabilities = (
            "loss_probability",
            "duplicate_probability",
            "reorder_probability",
        )
        for name in probabilities:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
        for name in ("delay", "jitter"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {value}")
        if self.reorder_delay is not None and self.reorder_delay < 0:
            raise ConfigurationError(
                f"reorder_delay must be >= 0, got {self.reorder_delay}"
            )

    def make_loss_process(self) -> LossProcess:
        """A fresh loss process for one downstream link."""
        if self.loss_mean_burst is not None and self.loss_probability > 0.0:
            return GilbertElliottLoss.from_average(
                self.loss_probability, self.loss_mean_burst
            )
        return BernoulliLoss(self.loss_probability)

    @property
    def effective_reorder_delay(self) -> float:
        """The hold-back applied to reordered deliveries."""
        if self.reorder_delay is not None:
            return self.reorder_delay
        return 2.0 * self.delay


class _Link:
    __slots__ = ("address", "loss")

    def __init__(self, address: str, loss: LossProcess) -> None:
        self.address = address
        self.loss = loss


class FaultInjectionProxy:
    """Forwards everything arriving at its endpoint through faulty links.

    Args:
        transport: the endpoint to listen on (handler installed here).
        downstream: receiver addresses, in delivery order.
        config: the fault model, shared by all links (each gets a fresh
            loss-process instance).
        rng: one seeded RNG driving every link's randomness.
    """

    def __init__(
        self,
        transport: Transport,
        downstream: Sequence[str],
        config: Optional[ProxyConfig] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not downstream:
            raise ConfigurationError("proxy needs at least one downstream address")
        self._transport = transport
        self._config = config or ProxyConfig()
        self._rng = rng or random.Random()
        self._links: List[_Link] = [
            _Link(address, self._config.make_loss_process())
            for address in downstream
        ]
        self.datagrams_received = 0
        self.forwarded = 0
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        transport.set_handler(self._on_datagram)

    @property
    def config(self) -> ProxyConfig:
        """The fault model in force."""
        return self._config

    @property
    def downstream(self) -> List[str]:
        """Downstream addresses in delivery order."""
        return [link.address for link in self._links]

    def _delivery_delay(self) -> float:
        # Guarded draws: knobs at zero consume no randomness, so a
        # plain-delay proxy draws exactly one loss decision per link per
        # datagram — the medium's sequence, preserving parity.
        delay = self._config.delay
        if self._config.jitter > 0.0:
            delay += self._rng.random() * self._config.jitter
        if (
            self._config.reorder_probability > 0.0
            and self._rng.random() < self._config.reorder_probability
        ):
            self.reordered += 1
            delay += self._config.effective_reorder_delay
        return delay

    def _on_datagram(self, data: bytes, _arrival: float) -> None:
        # Link i's duplicate, jitter and reorder draws come before link
        # i + 1's loss draw: kept_links draws lazily.
        self.datagrams_received += 1
        duplicate_probability = self._config.duplicate_probability
        rng = self._rng
        sends: List[Tuple[str, float]] = []
        kept = 0
        for link in kept_links(self._links, rng):
            kept += 1
            copies = 1
            if duplicate_probability > 0.0 and rng.random() < duplicate_probability:
                copies = 2
                self.duplicated += 1
            for _ in range(copies):
                sends.append((link.address, self._delivery_delay()))
            self.forwarded += copies
        self.dropped += len(self._links) - kept
        self._transport.send_many(data, sends)
