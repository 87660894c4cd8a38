"""K-1 — kernel benches: cached and batched paths must never be slower.

The walk-cache/batching/pebbling layer exists to make the hot path
cheaper, so the regression these benches guard is the embarrassing one:
a "kernel" path losing to the per-call path beside it. Timing asserts
use best-of-N manual loops with lenient margins (1.15x) so scheduler
noise on shared CI runners cannot flake them; the pytest-benchmark
fixtures report the absolute numbers alongside.
"""

from __future__ import annotations

import time

from repro.crypto.kernels import ChainWalkCache
from repro.crypto.keychain import KeyChain, KeyChainAuthenticator
from repro.crypto.mac import MacScheme
from repro.crypto.onewayfn import OneWayFunction
from repro.crypto.pebbled import PebbledKeyChain, pebble_bound

#: Cached path may be at most this much slower than naive before the
#: bench fails — generous enough to absorb timer noise, tight enough to
#: catch a kernel that actually regressed.
NOISE_MARGIN = 1.15


def _best_seconds(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def test_walk_cache_duplicate_flood(benchmark):
    """Duplicate forged disclosures: the cache answers repeats in O(1)."""
    function = OneWayFunction("F")
    chain = KeyChain(b"bench-seed", 65, function)
    forged = bytes(b ^ 0xA5 for b in chain.key(64))

    def flood(walk_cache):
        authenticator = KeyChainAuthenticator(
            chain.commitment, function, walk_cache=walk_cache
        )
        for _ in range(300):
            authenticator.authenticate(forged, 64)

    naive = _best_seconds(lambda: flood(None), repeat=3)
    cached = _best_seconds(lambda: flood(ChainWalkCache(function)), repeat=3)
    # The cache turns ~300 64-step walks into one; anything below a 5x
    # win means the memo layer stopped being consulted.
    assert cached * 5 < naive, (cached, naive)
    benchmark(flood, ChainWalkCache(function))


def test_verify_many_not_slower_than_loop(benchmark):
    scheme = MacScheme()
    key = b"batch-key"
    messages = [b"msg-%04d" % i for i in range(64)]
    pairs = list(zip(messages, scheme.compute_many(key, messages)))

    def batched():
        return scheme.verify_many(key, pairs)

    def looped():
        # reprolint: disable=RPL009 -- the loop column of the bench: the scalar path is what is being timed
        return [scheme.verify(key, m, t) for m, t in pairs]

    assert batched() == looped()
    batch_time = _best_seconds(batched)
    loop_time = _best_seconds(looped)
    assert batch_time <= loop_time * NOISE_MARGIN, (batch_time, loop_time)
    benchmark(batched)


def test_pebbled_traversal_stays_logarithmic(benchmark):
    """Full ascending traversal of a pebbled chain, with the memory
    bound asserted on the way out."""
    length = 4096
    chain = PebbledKeyChain(b"bench-seed", length)

    def traverse():
        for index in range(1, length + 1):
            chain.key(index)

    benchmark.pedantic(traverse, rounds=1, iterations=1)
    assert chain.peak_stored_keys <= pebble_bound(length)
