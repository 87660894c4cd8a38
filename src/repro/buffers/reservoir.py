"""DoS-resistant packet buffers (Algorithm 2's multiple-buffer selection).

The core defence of multi-level μTESLA and DAP against memory-based DoS
flooding is *random* buffer selection: a receiver with ``m`` buffers that
has seen ``k`` copies of a packet keeps the ``k``-th copy with
probability ``m / k``, replacing a uniformly random buffered copy. This
is classic reservoir sampling, and it guarantees every one of the ``n``
copies seen ends up retained with equal probability ``m / n`` — so an
attacker flooding forged copies cannot bias which copies survive, and
the probability that at least one *authentic* copy survives is
``1 - p^m`` when a fraction ``p`` of copies are forged.

:class:`KeepFirstBuffer` is the naive baseline (keep the first ``m``
copies, drop the rest): trivially defeated by an attacker who floods
early. It exists for the ablation bench that shows why the ``m/k`` rule
matters.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import (
    Dict, Generic, Iterable, Iterator, List, Optional, Tuple, TypeVar, Union,
)

from repro.errors import ConfigurationError

__all__ = [
    "OfferOutcome",
    "OfferResult",
    "PacketBuffer",
    "ReservoirBuffer",
    "KeepFirstBuffer",
    "reservoir_overflow",
]

T = TypeVar("T")


class OfferOutcome(Enum):
    """What happened to an item offered to a buffer."""

    STORED_EMPTY = "stored_empty"
    """Stored into a free buffer slot."""

    STORED_REPLACED = "stored_replaced"
    """Stored by evicting a previously buffered item."""

    REJECTED = "rejected"
    """Dropped by the random-selection rule (or by a full naive buffer)."""


@dataclass(frozen=True)
class OfferResult(Generic[T]):
    """Result of offering one item.

    Attributes:
        outcome: what happened.
        evicted: the item displaced, when ``outcome`` is
            ``STORED_REPLACED``.
    """

    outcome: OfferOutcome
    evicted: Optional[T] = None

    @property
    def stored(self) -> bool:
        """Whether the offered item is now buffered."""
        return self.outcome is not OfferOutcome.REJECTED


class PacketBuffer(ABC, Generic[T]):
    """Common interface for the buffering strategies under study."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: List[T] = []
        self._seen = 0

    @property
    def capacity(self) -> int:
        """Maximum number of buffered items (``m`` in the paper)."""
        return self._capacity

    @property
    def seen_count(self) -> int:
        """Total number of items offered so far (``k`` in Algorithm 2)."""
        return self._seen

    @property
    def items(self) -> List[T]:
        """Snapshot of the currently buffered items."""
        return list(self._items)

    def clear(self) -> None:
        """Empty the buffer and reset the offer counter."""
        self._items.clear()
        self._seen = 0

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(list(self._items))

    def __contains__(self, item: object) -> bool:
        return item in self._items

    @abstractmethod
    def offer(self, item: T) -> OfferResult[T]:
        """Offer one item; the strategy decides whether it is kept."""

    def offer_many(self, items: Iterable[T]) -> int:
        """Offer a whole flood of items; returns how many were stored.

        State-identical to calling :meth:`offer` per item in order
        (including every RNG draw a strategy makes), but skips the
        per-item :class:`OfferResult` allocation — the batched fast
        path for slot-granular flood processing. Subclasses may
        override with a tighter loop; this default simply delegates.
        """
        stored = 0
        for item in items:
            if self.offer(item).stored:
                stored += 1
        return stored


def reservoir_overflow(
    rng: random.Random,
    thresholds: Iterable[float],
    capacities: Union[int, Iterable[int]],
    bases: Iterable[int],
    entries: Iterable[T],
) -> Tuple[Dict[int, T], int]:
    """Algorithm 2's draws for one receiver's offers to full buffers.

    Offer ``i`` is kept when ``rng.random() < thresholds[i]``, and then
    overwrites slot ``bases[i] + victim``, ``victim`` uniform below its
    capacity (one int for all offers, or one per offer). The victim
    draw inlines CPython's ``randrange`` (``getrandbits`` redrawn until
    in range), so the stream is consumed exactly as
    ``ReservoirBuffer.offer`` consumes it. Returns ``(survivors,
    accepted)``: the last entry written per slot, and the keep count.
    It is also the oracle, and the tail path, of the fleet engine's
    lane-parallel :meth:`repro.sim.draws.ReceiverStreams.overflow`.
    """
    rand = rng.random
    getrandbits = rng.getrandbits
    caps: Iterable[int] = (
        repeat(capacities) if isinstance(capacities, int) else capacities
    )
    survivors: Dict[int, T] = {}
    accepted = 0
    capacity = bits = 0
    for threshold, cap, base, entry in zip(thresholds, caps, bases, entries):
        if rand() < threshold:
            if cap != capacity:
                capacity = cap
                bits = cap.bit_length()
            victim = getrandbits(bits)
            while victim >= capacity:
                victim = getrandbits(bits)
            survivors[base + victim] = entry
            accepted += 1
    return survivors, accepted


class ReservoirBuffer(PacketBuffer[T]):
    """Algorithm 2's storage rule: keep copy ``k`` with probability ``m/k``.

    Invariant (reservoir sampling): after any number ``n >= m`` of
    offers, the buffer holds a uniformly random ``m``-subset of the
    offered items; each item survives with probability exactly ``m/n``.

    Args:
        capacity: ``m``, the number of buffers the node dedicates.
        rng: optional :class:`random.Random` for reproducible runs.
    """

    def __init__(self, capacity: int, rng: Optional[random.Random] = None) -> None:
        super().__init__(capacity)
        self._rng = rng or random.Random()

    def offer(self, item: T) -> OfferResult[T]:
        self._seen += 1
        if len(self._items) < self._capacity:
            # Algorithm 2 line 6-7: free buffer available, always store.
            self._items.append(item)
            return OfferResult(OfferOutcome.STORED_EMPTY)
        # Algorithm 2 line 9: keep the k-th copy with probability m/k ...
        if self._rng.random() >= self._capacity / self._seen:
            return OfferResult(OfferOutcome.REJECTED)
        # ... line 11: replace a uniformly random buffered copy.
        victim = self._rng.randrange(self._capacity)
        evicted = self._items[victim]
        self._items[victim] = item
        return OfferResult(OfferOutcome.STORED_REPLACED, evicted=evicted)

    def offer_many(self, items: Iterable[T]) -> int:
        """Draw-identical batched :meth:`offer` (Algorithm 2 per item).

        Free buffers are filled in order; the offers past capacity go
        through :func:`reservoir_overflow`, which consumes the ``m/k``
        acceptance and victim draws from the same stream, in the same
        order, as the per-item path — offering ``[a, b, c]`` here
        leaves the buffer, the seen counter *and the RNG* in the state
        three ``offer`` calls would.
        """
        capacity = self._capacity
        held = self._items
        batch = list(items)
        free = capacity - len(held)
        held.extend(batch[:free])
        overflow = batch[free:]
        stored = len(batch) - len(overflow)
        seen = self._seen + stored
        thresholds = map(
            capacity.__truediv__, range(seen + 1, seen + len(overflow) + 1)
        )
        survivors, accepted = reservoir_overflow(
            self._rng, thresholds, capacity, repeat(0), overflow
        )
        for slot, item in survivors.items():
            held[slot] = item
        self._seen = seen + len(overflow)
        return stored + accepted


class KeepFirstBuffer(PacketBuffer[T]):
    """Naive baseline: keep the first ``m`` copies, reject everything after.

    Under a flooding attacker who front-loads forged copies this retains
    *no* authentic copy with high probability — the ablation benches use
    it to quantify the value of the reservoir rule.
    """

    def offer(self, item: T) -> OfferResult[T]:
        self._seen += 1
        if len(self._items) < self._capacity:
            self._items.append(item)
            return OfferResult(OfferOutcome.STORED_EMPTY)
        return OfferResult(OfferOutcome.REJECTED)
