"""Amortised-pebbling sender-side key chain.

:class:`~repro.crypto.keychain.KeyChain` materialises all ``n + 1``
keys at construction — simple, but a million-interval chain pins ~10 MB
of keys for the deployment's lifetime. The hash-chain literature solved
this two decades ago (Jakobsson 2002; Coppersmith & Jakobsson 2003):
keep O(log n) strategically placed *pebbles* and regenerate everything
else on demand, at an amortised O(log n) hashes per sequential step.

:class:`PebbledKeyChain` is that trade, drop-in compatible with
``KeyChain`` (same seed derivation, same commitment, same ``key(i)``
bytes for every index — property-tested in ``tests/crypto``):

- construction walks the chain once (O(n) hashes, unavoidable — the
  commitment *is* the n-fold image of the seed) and plants a halving
  ladder of pebbles at positions ``n, n/2, n/4, ..., 1`` on the way;
- ``key(i)`` resolves from the nearest pebble above ``i``, planting
  midpoint pebbles as it walks so the subdivided range stays cheap;
- after every lookup, pebbles behind the request frontier are dropped
  and the rest geometrically thinned, holding the *stored* set at
  ``ceil(log2 n) + 2`` keys and the transient peak — tracked by
  :attr:`peak_stored_keys` — at ``2 * ceil(log2 n) + 2``.

The access pattern the sender actually has (interval keys in ascending
order) hits the ladder's sweet spot; arbitrary access stays correct and
memory-bounded, merely costing longer regeneration walks.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Union

from repro.crypto.keychain import KeyChain, derive_seed_key
from repro.crypto.onewayfn import OneWayFunction
from repro.errors import (
    ConfigurationError,
    KeyChainError,
    KeyChainExhaustedError,
)

__all__ = [
    "PEBBLED_THRESHOLD",
    "KeyChainLike",
    "PebbledKeyChain",
    "make_key_chain",
    "pebble_bound",
]

#: Chain length from which :func:`make_key_chain` prefers pebbling.
#: Short chains (every scenario in the paper) stay dense — regenerating
#: keys would cost more than the few kilobytes they occupy.
PEBBLED_THRESHOLD = 4096


def _ceil_log2(n: int) -> int:
    """``ceil(log2(n))`` for positive ``n`` (0 for ``n == 1``)."""
    return (n - 1).bit_length()


def pebble_bound(length: int) -> int:
    """The guaranteed peak stored-key bound, ``2 * ceil(log2 n) + 2``."""
    return 2 * _ceil_log2(length) + 2


class PebbledKeyChain:
    """A finite one-way key chain stored as O(log n) pebbles.

    Drop-in for :class:`~repro.crypto.keychain.KeyChain`: identical
    constructor, identical commitment and per-index key bytes, the same
    exhaustion errors — only the storage/recomputation trade differs.

    Args:
        seed: secret material for the newest key ``K_n``.
        length: number of usable interval keys ``n``.
        function: the one-way function ``F`` (defaults to a fresh
            80-bit ``F``).
        label: domain-separation label mixed into the seed derivation.
    """

    def __init__(
        self,
        seed: bytes,
        length: int,
        function: Optional[OneWayFunction] = None,
        label: str = "chain",
    ) -> None:
        if length <= 0:
            raise ConfigurationError(f"chain length must be positive, got {length}")
        self._function = function or OneWayFunction("F")
        self._length = length
        newest = derive_seed_key(seed, label, self._function.output_bits)
        # One mandatory full walk to the commitment; plant the halving
        # ladder n, n/2, n/4, ..., 1 for free on the way down.
        marks: Set[int] = set()
        position = length
        while position > 1:
            position //= 2
            marks.add(position)
        pebbles = {length: newest}
        function_ = self._function
        key = newest
        for i in range(length - 1, -1, -1):
            key = function_(key)
            if i in marks:
                pebbles[i] = key
        self._commitment = key  # K_0 after the final application
        self._pebbles = pebbles
        self._retain_cap = _ceil_log2(length) + 2
        self._peak = len(pebbles)

    # ------------------------------------------------------------------
    # KeyChain-compatible surface

    @property
    def length(self) -> int:
        """Number of usable interval keys (``n``)."""
        return self._length

    @property
    def function(self) -> OneWayFunction:
        """The one-way function linking consecutive keys."""
        return self._function

    @property
    def commitment(self) -> bytes:
        """``K_0``, distributed authentically at bootstrap."""
        return self._commitment

    def key(self, index: int) -> bytes:
        """Return ``K_index``, regenerating from pebbles as needed.

        Raises:
            KeyChainError: for negative indices.
            KeyChainExhaustedError: for indices beyond the chain length.
        """
        if index < 0:
            raise KeyChainError(f"key index must be >= 0, got {index}")
        if index > self._length:
            raise KeyChainExhaustedError(
                f"chain of length {self._length} has no key {index}"
            )
        if index == 0:
            return self._commitment
        key = self._pebbles.get(index)
        if key is None:
            key = self._materialise(index)
        self._prune(index)
        return key

    def derive(self, key: bytes, steps: int) -> bytes:
        """Walk ``key`` back ``steps`` times with ``F`` (lost-key recovery)."""
        return self._function.iterate(key, steps)

    def verify(
        self,
        candidate: bytes,
        index: int,
        trusted_key: bytes,
        trusted_index: int,
    ) -> bool:
        """Check that ``candidate`` is ``K_index`` given an older trusted key.

        Raises:
            KeyChainError: if ``index < trusted_index``.
        """
        if index < trusted_index:
            raise KeyChainError(
                f"cannot verify key {index} against newer anchor {trusted_index}"
            )
        return self._function.iterate(candidate, index - trusted_index) == trusted_key

    def __len__(self) -> int:
        return self._length

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PebbledKeyChain(length={self._length},"
            f" function={self._function.label!r},"
            f" stored={len(self._pebbles)})"
        )

    # ------------------------------------------------------------------
    # pebbling internals

    @property
    def stored_keys(self) -> int:
        """Keys currently held in memory (commitment excluded)."""
        return len(self._pebbles)

    @property
    def peak_stored_keys(self) -> int:
        """High-water mark of stored keys over the chain's lifetime.

        Structurally bounded by :func:`pebble_bound` — the retained
        ladder never exceeds ``ceil(log2 n) + 2`` and a single
        materialisation plants at most ``ceil(log2 n)`` more before the
        post-lookup prune runs.
        """
        return self._peak

    def _materialise(self, index: int) -> bytes:
        """Regenerate ``K_index`` from the nearest pebble above it,
        planting midpoint pebbles down the walk (lazy subdivision)."""
        position = min(p for p in self._pebbles if p > index)
        key = self._pebbles[position]
        iterate = self._function.iterate
        while position > index:
            midpoint = (index + position) // 2
            key = iterate(key, position - midpoint)
            position = midpoint
            self._pebbles[position] = key
            if len(self._pebbles) > self._peak:
                self._peak = len(self._pebbles)
        return key

    def _prune(self, frontier: int) -> None:
        """Drop pebbles behind ``frontier`` and geometrically thin the
        rest once the retained set exceeds its cap.

        Any pebble is safe to drop (the top pebble at ``n`` regenerates
        everything), so pruning only trades future walk length. Kept
        distances from the frontier at least double, which (a) caps the
        retained set at ``ceil(log2 n) + 2`` and (b) preserves exactly
        the halving ladder the ascending access pattern wants.
        """
        if len(self._pebbles) <= self._retain_cap:
            return
        kept: Dict[int, bytes] = {}
        last_distance = 0
        for position in sorted(self._pebbles):
            if position < frontier and position != self._length:
                continue
            distance = position - frontier
            if (
                position == self._length
                or distance == 0
                or last_distance == 0
                or distance >= 2 * last_distance
            ):
                kept[position] = self._pebbles[position]
                if distance > 0:
                    last_distance = distance
        self._pebbles = kept


#: Either chain implementation — they share the full sender surface.
KeyChainLike = Union[KeyChain, PebbledKeyChain]


def make_key_chain(
    seed: bytes,
    length: int,
    function: Optional[OneWayFunction] = None,
    label: str = "chain",
) -> KeyChainLike:
    """Build the right chain implementation for ``length``.

    Short chains stay dense (:class:`KeyChain`); chains of
    :data:`PEBBLED_THRESHOLD` intervals or more — the load-harness
    soak regime — get :class:`PebbledKeyChain`'s O(log n) storage.
    The two produce bit-identical commitments and keys.
    """
    if length >= PEBBLED_THRESHOLD:
        return PebbledKeyChain(seed, length, function, label)
    return KeyChain(seed, length, function, label)
