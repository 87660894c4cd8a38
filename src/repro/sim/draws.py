"""Seeds and draws: the one place that decides which stream draws what.

The DES, the vectorized fleet engine and the loopback soak are byte
identical at equal seeds because the same seeded streams make the same
draws in the same order. This module owns that order:

- :class:`SeedLadder`: the master stream (``config.seed``) yields the
  medium seed, then one seed per receiver in receiver order, then,
  only when an attacker is built, the attacker seed. It is the only
  caller of :func:`~repro.devtools.sanitizers.determinism.traced_rng`
  (streams ``master``, ``medium``, ``receiver-<i>``, ``attacker``).
- :func:`medium_blocks`: the medium stream replayed through a NumPy
  ``RandomState`` that shares its MT19937 state, so the fleet engine
  draws whole slot blocks at once, double for double.

Algorithm 2's overflow draws (:func:`repro.buffers.reservoir.
reservoir_overflow`) live next to their oracle,
:meth:`~repro.buffers.reservoir.ReservoirBuffer.offer`; every engine
feeds them a stream built here (:func:`receiver_rng`).
"""

from __future__ import annotations

import random
from typing import Iterator, List, Optional, Tuple

import numpy as np
import numpy.typing as npt

from repro.devtools.sanitizers.determinism import traced_rng
from repro.errors import SimulationError

__all__ = [
    "MEDIUM_BLOCK_FLOATS",
    "SeedLadder",
    "medium_blocks",
    "receiver_rng",
]

#: Uniforms per NumPy call when the medium stream is mirrored (~256 MB
#: of float64 temporaries): keeps peak RSS flat as slots x receivers grows.
MEDIUM_BLOCK_FLOATS = 32 * 1024 * 1024


def receiver_rng(index: int, seed: int) -> random.Random:
    """Receiver ``index``'s stream, from the seed the ladder drew for it."""
    return traced_rng(random.Random(seed), f"receiver-{index}")


class SeedLadder:
    """The seeded streams of one scenario run, in draw order.

    Constructing the ladder draws the medium seed. Then call
    :meth:`receiver_seeds` (or :meth:`receiver_rngs`) once, and
    :meth:`attacker` only if an attacker is built.
    """

    def __init__(self, seed: int) -> None:
        self.master = traced_rng(random.Random(seed), "master")
        self.medium = traced_rng(
            random.Random(self.master.getrandbits(64)), "medium"
        )
        self._attacker: Optional[random.Random] = None

    def receiver_seeds(self, count: int) -> List[int]:
        """Draw ``count`` per-receiver seeds, in receiver order."""
        if self._attacker is not None:
            raise SimulationError(
                "receiver seeds drawn after the attacker seed"
            )
        return [self.master.getrandbits(64) for _ in range(count)]

    def receiver_rngs(self, count: int) -> List[random.Random]:
        """Draw ``count`` receiver seeds and build their streams."""
        return [
            receiver_rng(index, seed)
            for index, seed in enumerate(self.receiver_seeds(count))
        ]

    def attacker(self) -> random.Random:
        """The attacker stream; its seed is drawn on the first call."""
        if self._attacker is None:
            self._attacker = traced_rng(
                random.Random(self.master.getrandbits(64)), "attacker"
            )
        return self._attacker


def medium_blocks(
    rng: random.Random, slots: int, per_slot: int
) -> Iterator[Tuple[int, int, npt.NDArray[np.float64]]]:
    """Mirror ``rng.random()`` through NumPy, whole slots at a time.

    Yields ``(begin, end, uniforms)`` where ``uniforms`` has shape
    ``(end - begin, per_slot)`` and holds, row-major, the next doubles
    ``rng.random()`` would return. ``rng`` itself is not advanced.
    """
    _version, internal, _gauss = rng.getstate()
    mirror = np.random.RandomState()
    mirror.set_state(
        ("MT19937", np.array(internal[:-1], dtype=np.uint32), internal[-1])
    )
    block = max(1, MEDIUM_BLOCK_FLOATS // max(per_slot, 1))
    for begin in range(0, slots, block):
        end = min(begin + block, slots)
        uniforms = mirror.random_sample((end - begin) * per_slot)
        yield begin, end, uniforms.reshape(end - begin, per_slot)
