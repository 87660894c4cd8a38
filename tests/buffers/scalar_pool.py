""":class:`~repro.buffers.pool.IndexedBufferPool` accounting as it was
before the pool kept a running count: ``stored_count`` sums every live
buffer, and each stored offer (a fill or a replacement) raises the peak
to the summed footprint.

Kept as the oracle ``tests/buffers/test_pool.py`` pins the running
count and ``peak_bits`` to.
"""

from __future__ import annotations

from repro.buffers.pool import IndexedBufferPool
from repro.buffers.reservoir import OfferOutcome, OfferResult


class SummingPool(IndexedBufferPool):
    """The pool with its old summing bodies; the running count is
    never read."""

    @property
    def stored_count(self) -> int:
        return sum(len(buf) for buf in self._buffers.values())

    @property
    def stored_bits(self) -> int:
        return self.stored_count * self._item_bits

    def offer(self, index, item):
        self._offers += 1
        buf = self._buffers.get(index)
        if buf is None:
            if self._max_indices is not None and len(self._buffers) >= self._max_indices:
                self._rejected_no_room += 1
                return OfferResult(OfferOutcome.REJECTED)
            buf = self._new_buffer()
            self._buffers[index] = buf
        result = buf.offer(item)
        if result.stored:
            self._peak_bits = max(self._peak_bits, self.stored_bits)
        return result

    def reset_peak(self) -> None:
        self._peak_bits = self.stored_bits
