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
- :func:`kept_links`: the per-link loss draws of one transmission on
  the medium stream, shared by the DES medium and the loopback fault
  proxy.
- :func:`forged_byte_rows`: the attacker stream's forged bytes, drawn
  the same way through a NumPy ``MT19937`` (each ``getrandbits(8)`` is
  one output word shifted right by 24).
- :class:`ReceiverStreams`: the ``receiver-<i>`` streams of a block of
  receivers as lanes of one NumPy MT19937, and
  :meth:`ReceiverStreams.overflow`, the fleet engine's one entry point
  for Algorithm 2's overflow draws. It reproduces CPython's
  ``random.Random`` exactly (``init_by_array`` seeding, twist,
  tempering, ``random()``, ``getrandbits`` and the ``randrange``
  rejection), stepping every lane through its offers in lockstep while
  at least :data:`LOCKSTEP_LANES` lanes still draw, and handing the
  rest to the scalar kernel :func:`~repro.buffers.reservoir.
  reservoir_overflow` (its oracle, next to
  :meth:`~repro.buffers.reservoir.ReservoirBuffer.offer`) on a
  ``random.Random`` set to the lane's exact state.
"""

from __future__ import annotations

import random
from typing import (
    Dict, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple,
    TypeVar, Union,
)

import numpy as np
import numpy.typing as npt

from repro.buffers.reservoir import reservoir_overflow
from repro.devtools.sanitizers import determinism
from repro.devtools.sanitizers.determinism import traced_rng
from repro.errors import SimulationError
from repro.sim.attacker import forged_bytes
from repro.sim.channel import LossProcess

__all__ = [
    "FORGED_BLOCK_WORDS",
    "LOCKSTEP_LANES",
    "MEDIUM_BLOCK_FLOATS",
    "STREAM_BYTES_PER_LANE",
    "ReceiverStreams",
    "SeedLadder",
    "forged_byte_rows",
    "kept_links",
    "medium_blocks",
    "receiver_rng",
    "record_draws",
]

#: Uniforms per NumPy call when the medium stream is mirrored (~256 MB
#: of float64 temporaries): keeps peak RSS flat as slots x receivers grows.
MEDIUM_BLOCK_FLOATS = 32 * 1024 * 1024

#: Attacker words per NumPy call when forged bytes are mirrored: NumPy
#: hands raw MT19937 words out as uint64, so a block costs 512 KiB of
#: temporaries however many forgeries a run injects.
FORGED_BLOCK_WORDS = 1 << 16

#: The attacker's stream label (see :meth:`SeedLadder.attacker`).
_ATTACKER = "attacker"

# MT19937 constants (Matsumoto & Nishimura; CPython's _randommodule.c).
_N = 624
_M = 397
_MATRIX_A = 0x9908B0DF
_UPPER = 0x80000000
_LOWER = 0x7FFFFFFF

#: Victim words examined at once per accepted offer; a lane whose whole
#: window is rejected (odds at most 2**-_WINDOW) redraws word by word.
_WINDOW = 16
#: Words kept past the end of each lane's tempered block: one offer
#: (two words for ``random()``, then the victim window) never crosses
#: into the next block, so a step needs no mid-draw twist.
_AHEAD = 2 + _WINDOW
_ROW = _N + _AHEAD
#: Offsets of the window's words after the first victim word.
_SPILL = np.arange(1, _WINDOW, dtype=np.int64)

#: Resident bytes per lane that holds NumPy state: the raw MT19937
#: words and the tempered words with their look-ahead. A lockstep call
#: adds 4 bytes per lane and slot it can write for its survivor table.
#: Callers count both in their receiver-block width.
STREAM_BYTES_PER_LANE = 4 * (_N + _ROW)

#: Fewest lanes worth a lockstep step. One step costs about 45 us of
#: NumPy call overhead whatever the lane count (some 40 calls), while
#: the scalar :func:`~repro.buffers.reservoir.reservoir_overflow` costs
#: about 0.2 us per offer, plus about 15 us to hand a lane's state
#: over; below about 150 lanes the overhead outweighs the saving. On
#: fleet-wide DAP and multi-level replays any value from 32 to 300 ran
#: equally fast (2 vCPUs, Python 3.11, NumPy 2.4); 10**6 (all scalar)
#: took 1.8x as long for DAP.
LOCKSTEP_LANES = 150

_Words = npt.NDArray[np.uint32]
_Index = npt.NDArray[np.int64]


def receiver_rng(index: int, seed: int) -> random.Random:
    """Receiver ``index``'s stream, from the seed the ladder drew for it."""
    return traced_rng(random.Random(seed), f"receiver-{index}")


class _Link(Protocol):
    @property
    def loss(self) -> LossProcess: ...


_L = TypeVar("_L", bound=_Link)


def kept_links(links: Iterable[_L], rng: random.Random) -> Iterator[_L]:
    """The links of one transmission whose loss draw keeps them.

    Each link's ``loss.should_drop(rng)`` is drawn in link order, and
    only when the consumer asks for the next link. So whatever the
    consumer draws for a kept link before asking again (the fault
    proxy's duplicate, jitter and reorder draws) comes before the next
    link's loss draw. :class:`~repro.sim.medium.BroadcastMedium` and
    :class:`~repro.net.proxy.FaultInjectionProxy` both decide losses
    here, which is why a loopback soak over a plain-delay proxy makes
    the medium's draws in the medium's order.
    """
    for link in links:
        if not link.loss.should_drop(rng):
            yield link


def record_draws(stream: str, draws: Sequence[Tuple[str, Union[float, int]]]) -> None:
    """Record draws made outside ``random.Random`` under ``stream``.

    Lane-parallel kernels call this, while tracing is on, with each
    lane's decoded draws in the order the scalar stream would make
    them (``("random", u)`` and ``("getrandbits", v)``, rejected victim
    draws included). They never run under a corrupting sanitizer
    (:meth:`ReceiverStreams.overflow` then draws on scalar streams), so
    the values recorded here are the values the lanes used.
    """
    sanitizer = determinism.ACTIVE
    if sanitizer is None:
        return
    for method, value in draws:
        sanitizer.record(stream, method, value)


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
                random.Random(self.master.getrandbits(64)), _ATTACKER
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


def forged_byte_rows(
    rng: random.Random, rows: int, width: int
) -> npt.NDArray[np.uint8]:
    """``rows`` forgeries of ``width`` attacker bytes, as a ``(rows,
    width)`` array: row ``k`` is what the ``k``-th of ``rows`` calls of
    :func:`~repro.sim.attacker.forged_bytes` (``rng``, ``width``) would
    return, and ``rng`` is left where those calls would leave it.

    The bytes come from a NumPy ``MT19937`` set to ``rng``'s state, in
    blocks of :data:`FORGED_BLOCK_WORDS` words. While a determinism
    sanitizer traces, they are recorded on the attacker stream; under
    one that corrupts a draw, the scalar helper draws every row instead,
    so the flipped value feeds back as it does in the DES.
    """
    sanitizer = determinism.ACTIVE
    if sanitizer is not None and sanitizer.corrupt_draw is not None:
        scalar = b"".join(forged_bytes(rng, width) for _ in range(rows))
        return np.frombuffer(scalar, dtype=np.uint8).reshape(rows, width)
    _version, internal, _gauss = rng.getstate()
    mirror = np.random.MT19937()
    mirror.state = {
        "bit_generator": "MT19937",
        "state": {
            "key": np.array(internal[:-1], dtype=np.uint32),
            "pos": internal[-1],
        },
    }
    out = np.empty(rows * width, dtype=np.uint8)
    for begin in range(0, out.size, FORGED_BLOCK_WORDS):
        end = min(begin + FORGED_BLOCK_WORDS, out.size)
        out[begin:end] = mirror.random_raw(end - begin) >> 24
    state = mirror.state["state"]
    rng.setstate((3, (*state["key"].tolist(), int(state["pos"])), None))
    if sanitizer is not None:
        record_draws(_ATTACKER, [("getrandbits", v) for v in out.tolist()])
    return out.reshape(rows, width)


# --- lane-parallel MT19937 ---------------------------------------------


def _genrand_base() -> List[int]:
    """``init_genrand(19650218)``: where every ``init_by_array`` starts."""
    mt = [19650218]
    for i in range(1, _N):
        prev = mt[-1]
        mt.append((1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return mt


_BASE = _genrand_base()


def _init_by_array(seeds: Sequence[int]) -> _Words:
    """CPython's ``random.seed(n)`` for each 64-bit ``n``, one column each.

    The key is ``n``'s 32-bit words, low first: one word below 2**32,
    two otherwise. Like CPython, the state is left for a twist on the
    first draw.
    """
    keys = np.asarray(seeds, dtype=np.uint64)
    low = (keys & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    high = (keys >> np.uint64(32)).astype(np.uint32)
    # init_key[j] + j, for the j of even and of odd steps.
    add = (low, np.where(high > 0, high + np.uint32(1), low))
    mt = np.empty((_N, keys.size), dtype=np.uint32)
    mt[...] = np.asarray(_BASE, dtype=np.uint32)[:, None]
    tmp = np.empty(keys.size, dtype=np.uint32)
    i = 1
    for step in range(2 * _N - 1):
        np.right_shift(mt[i - 1], 30, out=tmp)
        np.bitwise_xor(tmp, mt[i - 1], out=tmp)
        if step < _N:
            np.multiply(tmp, np.uint32(1664525), out=tmp)
            np.bitwise_xor(tmp, mt[i], out=tmp)
            np.add(tmp, add[step & 1], out=mt[i])
        else:
            np.multiply(tmp, np.uint32(1566083941), out=tmp)
            np.bitwise_xor(tmp, mt[i], out=tmp)
            np.subtract(tmp, np.uint32(i), out=mt[i])
        i += 1
        if i == _N:
            mt[0] = mt[_N - 1]
            i = 1
    mt[0] = _UPPER
    return mt


def _mix(upper: _Words, lower: _Words, far: _Words) -> _Words:
    """Twist words: ``far ^ (y >> 1) ^ mag01[y & 1]``, ``y`` the upper
    bit of ``upper`` joined to the lower bits of ``lower``."""
    y = upper & np.uint32(_UPPER)
    y |= lower & np.uint32(_LOWER)
    out = (y & np.uint32(1)) * np.uint32(_MATRIX_A)
    out ^= far
    y >>= np.uint32(1)
    out ^= y
    return out


def _twist(mt: _Words) -> None:
    """CPython's twist of states ``mt`` (``(lanes, 624)``), in place.

    Rows below 227 read only the old state, rows below 454 the first
    run, the rest the second; each slice is computed before it is
    stored, so the three runs leave the words CPython's loop does.
    """
    mt[:, :227] = _mix(mt[:, :227], mt[:, 1:228], mt[:, _M:])
    mt[:, 227:454] = _mix(mt[:, 227:454], mt[:, 228:455], mt[:, :227])
    mt[:, 454:623] = _mix(mt[:, 454:623], mt[:, 455:624], mt[:, 227:396])
    mt[:, 623] = _mix(mt[:, 623], mt[:, 0], mt[:, 396])


def _temper(y: _Words, out: _Words) -> None:
    """MT19937's output tempering of state words ``y``, into ``out``."""
    np.right_shift(y, 11, out=out)
    out ^= y
    y = (out << np.uint32(7)) & np.uint32(0x9D2C5680)
    out ^= y
    np.left_shift(out, 15, out=y)
    y &= np.uint32(0xEFC60000)
    out ^= y
    np.right_shift(out, 18, out=y)
    out ^= y


def _temper_ahead(mt: _Words, out: _Words) -> None:
    """The first ``_AHEAD`` outputs of the generation after complete
    states ``mt`` (rows below 227 read only the current state)."""
    _temper(_mix(mt[:, :_AHEAD], mt[:, 1 : _AHEAD + 1], mt[:, _M : _M + _AHEAD]), out)


#: Lanes twisted per NumPy pass, so its temporaries stay in cache.
_TWIST_CHUNK = 256


def _bit_length(capacities: _Index) -> _Index:
    """``int.bit_length`` of positive integers below 2**32."""
    return np.frexp(capacities.astype(np.float64))[1].astype(np.int64)


def _slot_columns(keys: _Index, widest: int) -> Tuple[_Index, _Index]:
    """The slots offers at ``keys`` can write (from ``key`` to below
    ``key + widest``), ascending, and each slot's index among them: a
    survivor table as wide as the slots one call touches, not as their
    range."""
    reach = np.cumsum(np.bincount(keys, minlength=int(keys.max()) + widest))
    # Keys in (slot - widest, slot]: the offers that can reach the slot.
    reach[widest:] -= reach[:-widest].copy()
    touched = reach > 0
    return np.flatnonzero(touched), np.cumsum(touched) - 1


_Draws = List[List[Tuple[str, Union[float, int]]]]


class ReceiverStreams:
    """The ``receiver-<i>`` streams of one block of receivers.

    Lane ``j`` is receiver ``first + j``, seeded from ``seeds[j]``
    exactly as ``random.Random(seeds[j])``. A lane's state lives in one
    of three places: nowhere yet (it never drew), a row of the NumPy
    ``(lanes, 624)`` state, or a ``random.Random`` after a scalar
    handoff. It moves between them losslessly, so successive
    :meth:`overflow` calls resume every stream where it stopped.
    """

    def __init__(self, first: int, seeds: Sequence[int]) -> None:
        self._first = first
        self._seeds = list(seeds)
        self._scalar: Dict[int, random.Random] = {}
        self._on_grid = np.zeros(len(self._seeds), dtype=bool)
        # Per lane on the grid: the row of its next word. The tempered
        # row holds the current generation and the next one's first
        # ``_AHEAD`` words.
        self._pos = np.zeros(len(self._seeds), dtype=np.int64)
        self._state: Optional[_Words] = None
        self._words: Optional[_Words] = None

    def overflow(
        self,
        lanes: _Index,
        thresholds: npt.NDArray[np.float64],
        capacities: Union[int, _Index],
        keys: _Index,
    ) -> Tuple[_Index, _Index, _Index]:
        """Algorithm 2's draws for a batch of offers to full buffers.

        Offers come lane-major: ``lanes`` non-decreasing, each lane's
        offers in its delivery order. Offer ``i`` is kept when its
        lane's ``random() < thresholds[i]``, and then overwrites slot
        ``keys[i] + victim`` (keys non-negative), ``victim`` uniform
        below its capacity (one int, or one per offer) by
        ``randrange``'s ``getrandbits`` rejection: the draws
        :func:`~repro.buffers.reservoir.reservoir_overflow` makes, in
        the same order. Returns ``(lanes, slots, offers)``: for each
        slot written, the index of the last offer written there.

        While a sanitizer that corrupts a draw is tracing, every lane
        draws on its scalar stream, so the flipped value feeds back
        into the run at the draw index the scalar path gives it.
        """
        empty = np.zeros(0, dtype=np.int64)
        if not lanes.size:
            return empty, empty, empty
        if int(np.min(capacities)) < 1 or int(np.max(capacities)) >= 1 << 32:
            raise SimulationError("reservoir capacities must lie in [1, 2**32)")
        if int(keys.min()) < 0:
            raise SimulationError("bucket keys must be non-negative")
        starts = np.flatnonzero(np.diff(lanes, prepend=-1))
        if np.any(np.diff(lanes[starts]) <= 0):
            raise SimulationError("overflow offers are not grouped by lane")
        # Lanes by offer count, most first: the lanes still drawing at
        # any step are a prefix.
        counts = np.diff(np.append(starts, lanes.size))
        order = np.argsort(-counts, kind="stable")
        counts = counts[order]
        starts = starts[order]
        active = lanes[starts]
        sanitizer = determinism.ACTIVE
        steps = (
            int(counts[LOCKSTEP_LANES - 1])
            if counts.size >= LOCKSTEP_LANES
            and (sanitizer is None or sanitizer.corrupt_draw is None)
            else 0
        )
        table: Optional[npt.NDArray[np.int32]] = None
        if steps:
            written, column = _slot_columns(keys, int(np.max(capacities)))
            table = self._lockstep(
                active, starts, counts, steps, thresholds, capacities, keys,
                column, written.size,
            )
        # The rest of every lane that still draws, on its scalar stream.
        leaving = active[: int(np.count_nonzero(counts > steps))]
        handed: List[Dict[int, int]] = []
        for j, lane in enumerate(leaving.tolist()):
            o0, o1 = int(starts[j]) + steps, int(starts[j] + counts[j])
            kept, _accepted = reservoir_overflow(
                self._scalar_stream(lane), thresholds[o0:o1].tolist(),
                capacities if isinstance(capacities, int)
                else capacities[o0:o1].tolist(),
                keys[o0:o1].tolist(), range(o0, o1),
            )
            handed.append(kept)
        if table is not None:
            for j, kept in enumerate(handed):
                # Later in the lane's stream than its lockstep writes.
                table[j, column[list(kept)]] = list(kept.values())
            rows, cols = np.nonzero(table >= 0)
            return active[rows], written[cols], table[rows, cols].astype(np.int64)
        sizes = [len(kept) for kept in handed]
        total = sum(sizes)
        return (
            np.repeat(leaving, sizes),
            np.fromiter((s for kept in handed for s in kept), np.int64, total),
            np.fromiter((o for kept in handed for o in kept.values()), np.int64, total),
        )

    # -- where a lane's state lives --------------------------------------

    def _scalar_stream(self, lane: int) -> random.Random:
        """Lane ``lane`` as a ``random.Random`` at its current state."""
        rng = self._scalar.get(lane)
        if rng is None:
            rng = receiver_rng(self._first + lane, self._seeds[lane])
            if self._on_grid[lane]:
                assert self._state is not None
                internal = self._state[lane].tolist()
                internal.append(int(self._pos[lane]))
                rng.setstate((3, tuple(internal), None))
                self._on_grid[lane] = False
            self._scalar[lane] = rng
        return rng

    def _to_grid(self, lanes: _Index) -> _Words:
        """Move ``lanes`` onto the NumPy grid, each with at least
        ``_AHEAD`` words ready; returns the tempered words."""
        if self._state is None or self._words is None:
            self._state = np.empty((len(self._seeds), _N), dtype=np.uint32)
            self._words = np.empty((len(self._seeds), _ROW), dtype=np.uint32)
        state, words = self._state, self._words
        fresh = lanes[~self._on_grid[lanes]]
        held = np.asarray(
            [lane for lane in fresh.tolist() if lane in self._scalar],
            dtype=np.int64,
        )
        for lane in held.tolist():
            internal = self._scalar.pop(lane).getstate()[1]
            state[lane] = internal[:_N]
            self._pos[lane] = internal[_N]
        for c0 in range(0, held.size, _TWIST_CHUNK):
            chunk = held[c0 : c0 + _TWIST_CHUNK]
            mt = state[chunk]
            out = np.empty((chunk.size, _ROW), dtype=np.uint32)
            _temper(mt, out[:, :_N])
            _temper_ahead(mt, out[:, _N:])
            words[chunk] = out
        unseeded = fresh[~np.isin(fresh, held)]
        if unseeded.size:
            state[unseeded] = _init_by_array(
                [self._seeds[lane] for lane in unseeded.tolist()]
            ).T
            self._pos[unseeded] = _N
        self._on_grid[fresh] = True
        # A seeded state is twisted before its first draw.
        self._advance(unseeded)
        return words

    def _advance(self, lanes: _Index) -> None:
        """Start the next generation of ``lanes``: twist and temper their
        states, and move their positions back by 624."""
        if not lanes.size:
            return
        assert self._state is not None and self._words is not None
        state, words = self._state, self._words
        for c0 in range(0, lanes.size, _TWIST_CHUNK):
            chunk = lanes[c0 : c0 + _TWIST_CHUNK]
            mt = state[chunk]
            _twist(mt)
            state[chunk] = mt
            out = np.empty((chunk.size, _ROW), dtype=np.uint32)
            _temper(mt, out[:, :_N])
            _temper_ahead(mt, out[:, _N:])
            words[chunk] = out
        self._pos[lanes] -= _N

    # -- the lockstep ----------------------------------------------------

    def _lockstep(
        self,
        active: _Index,
        starts: _Index,
        counts: _Index,
        steps: int,
        thresholds: npt.NDArray[np.float64],
        capacities: Union[int, _Index],
        keys: _Index,
        column: _Index,
        width: int,
    ) -> npt.NDArray[np.int32]:
        """Step ``active`` lanes (by offer count, most first) through
        their first ``steps`` offers. Returns the ``(lanes, width)``
        table of the last offer written to each slot (slot ``s`` in
        column ``column[s]``), ``-1`` where none was: a step writes at
        most once per lane, so writing step by step leaves each slot's
        last write, and no one assignment holds a duplicate index."""
        words = self._to_grid(active).reshape(-1)
        caps = np.asarray(capacities, dtype=np.int64)
        shifts = (32 - _bit_length(caps)).astype(np.uint32)
        # getrandbits(bits) < cap  <=>  word < cap << (32 - bits)
        bounds = (caps << shifts).astype(np.uint32)
        per_offer = bool(caps.ndim)
        table = np.full((active.size, width), -1, dtype=np.int32)
        draws: Optional[_Draws] = None
        if determinism.ACTIVE is not None:
            draws = [[] for _ in range(active.size)]
        # Word positions as flat indices into the tempered grid.
        flat = active * _ROW + self._pos[active]
        # A lane can take a whole step while its position is at most
        # ``limit``: the end of its generation.
        limit = active * _ROW + _N
        live = np.searchsorted(-counts, -np.arange(steps), side="left")
        for step in range(steps):
            n = int(live[step])
            offer = starts[:n] + step
            at = flat[:n]
            high = words[at] >> np.uint32(5)
            at += 1
            low = words[at] >> np.uint32(6)
            at += 1
            uniforms = (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)
            hit = np.flatnonzero(uniforms < thresholds[offer])
            if draws is not None:
                for j, value in enumerate(uniforms.tolist()):
                    draws[j].append(("random", value))
            if hit.size:
                kept = offer[hit]
                if per_offer:
                    bound, shift = bounds[kept], shifts[kept]
                else:
                    bound, shift = bounds, shifts
                victims = self._victims(
                    words, active, hit, flat, limit, bound, shift, draws
                )
                table[hit, column[keys[kept] + victims]] = kept
            due = np.flatnonzero(at > limit[:n])
            if due.size:
                self._reposition(active, due, flat)
        self._pos[active] = flat - active * _ROW
        if draws is not None:
            for lane, lane_draws in zip(active.tolist(), draws):
                record_draws(f"receiver-{self._first + lane}", lane_draws)
        return table

    def _victims(
        self,
        words: _Words,
        active: _Index,
        hit: _Index,
        flat: _Index,
        limit: _Index,
        bound: _Words,
        shift: _Words,
        draws: Optional[_Draws],
    ) -> _Index:
        """``randrange(cap)`` for lanes ``active[hit]``: the first of
        their next words below ``bound``, looked for in a window of
        ``_WINDOW`` words, then word by word."""
        at = flat[hit]
        chosen = words[at]
        used = np.ones(hit.size, dtype=np.int64)
        bad = np.flatnonzero(chosen >= bound)
        if bad.size:
            spill = words[at[bad] + _SPILL[:, None]]
            rejected = spill >= (bound[bad] if bound.ndim else bound)
            lead = np.logical_and.accumulate(rejected, axis=0).sum(axis=0)
            pick = np.minimum(lead, _WINDOW - 2) * bad.size + np.arange(bad.size)
            chosen[bad] = spill.reshape(-1)[pick]
            used[bad] = lead + 2
        if draws is not None:
            shifts = np.broadcast_to(shift, hit.shape).tolist()
            taken = np.minimum(used, _WINDOW).tolist()
            for j, first, count, bits in zip(hit.tolist(), at.tolist(), taken, shifts):
                draws[j].extend(
                    ("getrandbits", word >> bits)
                    for word in words[first : first + count].tolist()
                )
        flat[hit] += np.minimum(used, _WINDOW)
        victims = (chosen >> shift).astype(np.int64)
        if bad.size:
            missed = np.flatnonzero(used == _WINDOW + 1)
            if missed.size:
                # The whole window was rejected: redraw word by word.
                victims[missed] = self._redraw(
                    words, active, hit[missed], flat, limit,
                    bound[missed] if bound.ndim else bound,
                    shift[missed] if shift.ndim else shift, draws,
                )
        return victims

    def _redraw(
        self,
        words: _Words,
        active: _Index,
        rows: _Index,
        flat: _Index,
        limit: _Index,
        bound: _Words,
        shift: _Words,
        draws: Optional[_Draws],
    ) -> _Index:
        """Victims of lanes ``active[rows]`` one word at a time, twisting
        as they run out of ready words, until each is below its bound."""
        victims = np.zeros(rows.size, dtype=np.int64)
        bound = np.broadcast_to(bound, rows.shape)
        shift = np.broadcast_to(shift, rows.shape)
        todo = np.arange(rows.size)
        while todo.size:
            lanes = rows[todo]
            due = lanes[flat[lanes] >= limit[lanes] + _AHEAD]
            if due.size:
                self._reposition(active, due, flat)
            chosen = words[flat[lanes]]
            flat[lanes] += 1
            if draws is not None:
                for j, word, bits in zip(
                    lanes.tolist(), chosen.tolist(), shift[todo].tolist()
                ):
                    draws[j].append(("getrandbits", word >> bits))
            ok = chosen < bound[todo]
            victims[todo[ok]] = chosen[ok] >> shift[todo][ok]
            todo = todo[~ok]
        return victims

    def _reposition(self, active: _Index, due: _Index, flat: _Index) -> None:
        """Start the next generation of lanes ``active[due]``, whose
        positions ran past their generation's end, and rebase their
        positions."""
        lanes = active[due]
        self._pos[lanes] = flat[due] - lanes * _ROW
        self._advance(lanes)
        flat[due] = lanes * _ROW + self._pos[lanes]
