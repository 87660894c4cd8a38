"""Midstate-cached crypto kernels.

Every packet the simulator, the game's payoff evaluation and the live
testbed push through a protocol bottoms out in two hot paths:

- :class:`~repro.crypto.onewayfn.OneWayFunction` — a SHA-256 over
  ``label || key`` per chain step. The domain-separation prefix is the
  same for every call on a given function, so this module caches the
  hash state *after* absorbing the prefix ("midstate") and clones it
  with ``.copy()`` per call instead of re-hashing the label. Same
  digest, roughly a third less work per step.
- HMAC-SHA-256 — every MAC and μMAC. :func:`hmac_pads` caches the
  two pad midstates of a ``(key, label)`` pair, built as stdlib
  :mod:`hmac` builds them: the inner pad with ``label || "|"`` already
  absorbed, and the outer pad. :func:`hmac_sha256_many` then costs two
  state copies, two short updates and a slice per message, with no
  stdlib HMAC wrapper object on the way.
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
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Tuple

from repro import perf
from repro.devtools.sanitizers.locks import optional_lock
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.crypto.onewayfn import OneWayFunction

__all__ = [
    "ChainWalkCache",
    "hmac_pads",
    "hmac_sha256",
    "hmac_sha256_many",
    "sha256_digest",
    "sha256_midstate",
]

# ----------------------------------------------------------------------
# midstate caches

# One midstate per domain-separation prefix. The key population is the
# set of one-way-function labels in use — a handful — so no bound.
_SHA256_MIDSTATES: Dict[bytes, "hashlib._Hash"] = {}

#: HMAC pad midstates are keyed by (key, label); keys are interval
#: keys, of which a long soak sees many, so this cache is a bounded LRU.
_HMAC_CACHE_MAX = 1024
_Pads = Tuple["hashlib._Hash", "hashlib._Hash"]
_HMAC_PADS: "OrderedDict[Tuple[bytes, bytes], _Pads]" = OrderedDict()

#: SHA-256's block size, and the ipad/opad XOR tables (RFC 2104) as
#: ``bytes.translate`` tables, the way stdlib ``hmac`` pads its key.
_SHA256_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


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


def hmac_pads(key: bytes, label: bytes) -> _Pads:
    """The HMAC-SHA-256 pad midstates of ``key``, for messages that
    start with ``label || "|"``: ``(inner, outer)``.

    ``inner`` has absorbed ``(key ^ ipad) || label || "|"``, ``outer``
    has absorbed ``key ^ opad``; a key longer than one block is hashed
    first, and every key is zero-padded to the block, as in stdlib
    :mod:`hmac`. Callers must ``.copy()`` both before updating — the
    cached objects are shared.
    """
    cache_key = (key, label)
    pads = _HMAC_PADS.get(cache_key)
    if pads is None:
        if len(key) > _SHA256_BLOCK:
            key = hashlib.sha256(key).digest()
        block = key.ljust(_SHA256_BLOCK, b"\0")
        inner = hashlib.sha256(block.translate(_IPAD))
        inner.update(label + b"|")
        pads = _HMAC_PADS[cache_key] = (
            inner, hashlib.sha256(block.translate(_OPAD))
        )
        while len(_HMAC_PADS) > _HMAC_CACHE_MAX:
            _HMAC_PADS.popitem(last=False)
    else:
        _HMAC_PADS.move_to_end(cache_key)
    return pads


def hmac_sha256(key: bytes, label: bytes, message: bytes, nbytes: int) -> bytes:
    """``HMAC-SHA-256(key, label || "|" || message)[:nbytes]``: one
    message of :func:`hmac_sha256_many`, with no list on the way. The
    per-packet μMAC of a receiver's announce path comes through here."""
    inner, outer = hmac_pads(key, label)
    h = inner.copy()
    h.update(message)
    o = outer.copy()
    o.update(h.digest())
    return o.digest()[:nbytes]


def hmac_sha256_many(
    key: bytes, label: bytes, messages: Iterable[bytes], nbytes: int
) -> List[bytes]:
    """``HMAC-SHA-256(key, label || "|" || m)[:nbytes]`` for each ``m``.

    The batched HMAC path: one pad lookup per call, then per message an
    inner-state copy and update, an outer-state copy fed the inner
    digest, and a slice. Bit-identical to the stdlib HMAC-SHA-256 of
    ``label || "|" || m`` under ``key``, cut to ``nbytes``, which the
    tests use as its oracle.
    """
    inner, outer = hmac_pads(key, label)
    inner_copy, outer_copy = inner.copy, outer.copy
    out: List[bytes] = []
    for message in messages:
        h = inner_copy()
        h.update(message)
        o = outer_copy()
        o.update(h.digest())
        out.append(o.digest()[:nbytes])
    return out


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
