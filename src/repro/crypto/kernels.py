"""Midstate-cached crypto kernels.

Every packet the simulator, the game's payoff evaluation and the live
testbed push through a protocol bottoms out in two hot paths:

- :class:`~repro.crypto.onewayfn.OneWayFunction` — a SHA-256 over
  ``label || key`` per chain step. The domain-separation prefix is the
  same for every call on a given function, so this module caches the
  hash state *after* absorbing the prefix ("midstate") and clones it
  with ``.copy()`` per call instead of re-hashing the label. Same
  digest, roughly a third less work per step.
- receiver-side chain walks — verifying a disclosed key ``K_j``
  against the trusted anchor ``K_i`` costs ``j - i`` hash steps.
  Under the paper's flooding attack the same forged disclosure arrives
  over and over; :class:`ChainWalkCache` memoizes whole walks so a
  duplicate flood costs one dictionary hit instead of a back-walk.

Everything here is *exact*: the cached paths are bit-identical to the
stdlib ``hashlib``/``hmac`` expressions they replace and to the
uncached walk, which the property tests use as their oracles.
"""

from __future__ import annotations

import hashlib
import hmac as _hmac
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Tuple

from repro import perf
from repro.devtools.sanitizers.locks import optional_lock
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.onewayfn import OneWayFunction

__all__ = [
    "ChainWalkCache",
    "hmac_midstate",
    "sha256_digest",
    "sha256_midstate",
]

# ----------------------------------------------------------------------
# midstate caches

# One midstate per domain-separation prefix. The key population is the
# set of one-way-function labels in use — a handful — so no bound.
_SHA256_MIDSTATES: Dict[bytes, "hashlib._Hash"] = {}

#: HMAC midstates are keyed by (key, label); keys are interval keys, of
#: which a long soak sees many, so this cache is a bounded LRU.
_HMAC_CACHE_MAX = 1024
_HMAC_MIDSTATES: "OrderedDict[Tuple[bytes, bytes], _hmac.HMAC]" = OrderedDict()


def sha256_midstate(prefix: bytes) -> "hashlib._Hash":
    """SHA-256 state with ``prefix`` already absorbed. Callers must
    ``.copy()`` before updating — the cached object is shared."""
    state = _SHA256_MIDSTATES.get(prefix)
    if state is None:
        state = _SHA256_MIDSTATES[prefix] = hashlib.sha256(prefix)
    return state


def sha256_digest(data: bytes, *, prefix: bytes = b"") -> bytes:
    """One-shot ``SHA-256(prefix + data)`` through the kernel layer.

    The routing point for call sites outside the crypto hot loops
    (workload readings, deterministic message payloads, seed
    derivation) so every hash in the tree flows through one module —
    reprolint's RPL001 pins that. With a non-empty ``prefix`` the
    prefix absorption comes from the midstate cache; the digest is
    bit-identical to hashing the concatenation. ``prefix`` must be
    a fixed domain-separation label (it keys the unbounded midstate
    cache) — variable content belongs in ``data``.
    """
    if prefix:
        h = sha256_midstate(prefix).copy()
        h.update(data)
        return h.digest()
    return hashlib.sha256(prefix + data).digest()


def hmac_midstate(key: bytes, label: bytes) -> _hmac.HMAC:
    """HMAC-SHA-256 state keyed by ``key`` with ``label || "|"``
    absorbed. Callers must ``.copy()`` before updating.

    Cloning this midstate skips both the HMAC key-block preparation and
    the label bytes on every MAC over the same key — exactly the shape
    of receiver-side interval verification, where one disclosed key
    authenticates a whole buffer of records.
    """
    cache_key = (key, label)
    state = _HMAC_MIDSTATES.get(cache_key)
    if state is None:
        state = _hmac.new(key, label + b"|", hashlib.sha256)
        _HMAC_MIDSTATES[cache_key] = state
        while len(_HMAC_MIDSTATES) > _HMAC_CACHE_MAX:
            _HMAC_MIDSTATES.popitem(last=False)
    else:
        _HMAC_MIDSTATES.move_to_end(cache_key)
    return state


# ----------------------------------------------------------------------
# chain-walk memoization


class ChainWalkCache:
    """Memoizes receiver-side one-way chain walks.

    ``iterate(value, times)`` is a pure function of its arguments, so
    caching whole walks is always sound. The win is the paper's DoS
    scenario itself: a flooding attacker re-submitting the same forged
    disclosure (or a μTESLA sender legitimately re-disclosing a key)
    makes the receiver repeat an O(gap) back-walk — with the cache the
    repeat costs one bounded-LRU lookup.

    Args:
        function: the chain's one-way function.
        max_entries: LRU bound on memoized walks (each entry holds two
            short byte strings; the default bounds the cache at a few
            hundred kilobytes).
    """

    __slots__ = ("_function", "_walks", "_max_entries", "hits", "misses", "_lock")

    def __init__(self, function: "OneWayFunction", max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._function = function
        self._walks: "OrderedDict[Tuple[bytes, int], bytes]" = OrderedDict()
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0
        # None unless the lock sanitizer is tracking: the cache is
        # single-threaded in every engine, so the hot path must not pay
        # for a lock it does not need.
        self._lock = optional_lock("crypto.walk_cache")

    @property
    def function(self) -> "OneWayFunction":
        """The wrapped one-way function."""
        return self._function

    @property
    def hit_rate(self) -> float:
        """Fraction of walks answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._walks)

    def iterate(self, value: bytes, times: int) -> bytes:
        """Memoized ``function.iterate(value, times)``.

        Bit-identical to the uncached walk.
        """
        if times <= 0:
            # times == 0 is the identity, times < 0 raises inside
            # iterate — neither is worth a cache slot.
            return self._function.iterate(value, times)
        if self._lock is not None:
            with self._lock:
                return self._iterate_cached(value, times)
        return self._iterate_cached(value, times)

    def _iterate_cached(self, value: bytes, times: int) -> bytes:
        key = (bytes(value), times)
        cached = self._walks.get(key)
        active = perf.ACTIVE
        if cached is not None:
            self._walks.move_to_end(key)
            self.hits += 1
            if active is not None:
                active.incr("crypto.walk_cache.hits")
            return cached
        self.misses += 1
        if active is not None:
            active.incr("crypto.walk_cache.misses")
        result = self._function.iterate(value, times)
        self._walks[key] = result
        while len(self._walks) > self._max_entries:
            self._walks.popitem(last=False)
        return result
