"""Array-structured scenario engine for every protocol family.

:func:`run_fleet_scenario` simulates the entire receiver fleet as
arrays instead of per-node event callbacks: one broadcast timeline is
laid out up front, per-slot channel decisions are drawn for *all*
receivers at once (a block-wise vectorized Markov transition over a
``(receivers,)`` Gilbert–Elliott state array, or one Bernoulli mask,
bit-packed so the full delivery matrix costs one bit per decision),
and the per-receiver buffer/authentication state machines run as
receiver-block array kernels over that matrix — no heapq, no
per-delivery callbacks, and no per-record HMAC at replay time (all MAC
and key-chain outcomes are decided up front by batched
:meth:`~repro.crypto.mac.MacScheme.verify_many` tables and record
*identity*, with exact collision fallbacks). Each family has one
kernel, and each kernel's precompute checks the structural facts its
exactness rests on (a bucket is complete before any key can release
it; disclosed indices never decrease), raising
:class:`~repro.errors.SimulationError` rather than drifting:

- two-phase: segmented-cumsum ranks fill every reservoir slot, the
  trusted anchor is a running maximum over delivered reveals (frozen
  by the first one past the key-gap bound), and the first delivered
  copy of each reveal key is matched against its frozen bucket by
  record identity, with exact μMAC recomputation only on a miss;
- single-level: keep-first ranks fill the buckets, the trusted anchor
  is a running maximum over delivered disclosures, and a bucket is
  flushed iff the final anchor reaches it;
- multi-level: the high anchor fixes every CDM release and commitment
  recovery time, a loop over high intervals (numpy across receivers)
  settles EDRP pin acceptances, and each flat's data bucket is
  released when both its chain's commitment and its first low
  disclosure have arrived.

Peak occupancy always comes from cumulative sums of fills and
releases along the slot axis.

All seven catalog protocols are covered — the canonical table lives in
:mod:`repro.scenarios.families` (``VECTORIZED_PROTOCOLS``):

- ``dap`` / ``tesla_pp``: two-phase announce/reveal with μMAC records;
- ``tesla`` / ``mu_tesla``: single-level chains with full-width
  records and key disclosures (piggybacked or standalone);
- ``multilevel`` / ``eftp`` / ``edrp``: two-level chains with CDM
  reservoir buffering, commitment recovery and EDRP hash pinning.

Exactness contract
------------------

``run_fleet_scenario(config)`` returns the *identical* summary
``run_scenario`` produces at the same seed, for every family, because
both take their seeded streams from :mod:`repro.sim.draws` and consume
each stream in the same order: the medium per broadcast in attachment
order (one uniform per Bernoulli decision, two per Gilbert–Elliott
one); each reservoir receiver only for overflow offers (rank past
capacity), in its delivery order, with multi-level CDM and data pools
sharing one stream; the attacker in injection order (through
:func:`~repro.sim.draws.forged_byte_rows`, a NumPy mirror of its
stream), which makes every collision fallback exact. Both reservoir replays hand their overflow
offers, as arrays, to one entry point,
:meth:`ReceiverStreams.overflow <repro.sim.draws.ReceiverStreams.overflow>`.
It runs a block's receiver streams as lanes of one NumPy MT19937 that
reproduces ``random.Random(seed)`` word for word, stepping the lanes
through their offers in lockstep, and hands the last few long lanes to
:func:`~repro.buffers.reservoir.reservoir_overflow` (the scalar
oracle) at their exact state. So no per-receiver RNG loop is left here,
and under the determinism sanitizer every ``receiver-<i>`` stream
records the draws the DES receiver makes.

Sharding
--------

The fleet's per-receiver state is independent given the shared
delivery mask, so the receiver axis shards cleanly:
:func:`shard_plan` cuts it into contiguous ranges (balanced via
:func:`repro.net.harness.shard_sizes` — the same plan the live-network
and cluster harnesses use), each shard replays only its slice of the
bit-packed mask, and per-shard results stream back through
:meth:`repro.engine.executors.Executor.stream` to be folded one shard
at a time. With ``summary="aggregate"`` the reduction keeps a single
:class:`~repro.sim.metrics.FleetAggregate` instead of per-node rows,
so peak memory tracks one shard regardless of fleet size. Parallel
executors receive the packed mask through
:class:`multiprocessing.shared_memory.SharedMemory` (one copy for the
whole pool, closed and unlinked in ``finally`` paths).
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import (
    Any, ContextManager, Dict, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from repro import perf
from repro.crypto.mac import INDEX_BITS, MacScheme, MicroMacScheme
from repro.crypto.onewayfn import OneWayFunction, standard_functions
from repro.devtools.sanitizers.resources import release_resource, track_resource
from repro.engine.executors import Executor
from repro.engine.spec import ExperimentSpec
from repro.errors import ConfigurationError, SimulationError
from repro.protocols.dap import DapSender
from repro.protocols.edrp import edrp_params
from repro.protocols.eftp import eftp_params
from repro.protocols.messages import forged_message
from repro.protocols.mu_tesla import MuTeslaSender
from repro.protocols.multilevel import (
    MultiLevelParams,
    MultiLevelSender,
    _NO_COMMITMENT,
)
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MessageKeyPacket,
    MuTeslaDataPacket,
    StoredPacketRecord,
    TeslaPacket,
)
from repro.protocols.tesla import TeslaSender
from repro.protocols.tesla_pp import TeslaPlusPlusSender
from repro.sim.attacker import forged_copies_for_fraction
from repro.sim.channel import (
    GilbertElliottLoss,
    bernoulli_drop_mask,
    gilbert_elliott_drop_mask,
)
from repro.sim.draws import (
    STREAM_BYTES_PER_LANE, ReceiverStreams, SeedLadder, forged_byte_rows,
    medium_blocks,
)
from repro.sim.metrics import (
    FleetAggregate,
    FleetSummary,
    fleet_summary_from_arrays,
)
from repro.scenarios.families import (
    MULTI_LEVEL,
    SINGLE_LEVEL,
    TWO_PHASE,
    VECTORIZED_PROTOCOLS,
)
from repro.sim.scenario import (
    ScenarioConfig,
    ScenarioResult,
    _seed_bytes,
)
from repro.sim.workloads import (
    CrowdsensingWorkload,
    RemoteIdWorkload,
    VehicularBeaconWorkload,
    workload_for,
)
from repro.timesync.intervals import IntervalSchedule, TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition

__all__ = [
    "supports",
    "shard_plan",
    "run_fleet_scenario",
]

#: Protocols the vectorized fast path covers (catalog-complete) — the
#: canonical table lives in :mod:`repro.scenarios.families`.
SUPPORTED_PROTOCOLS = VECTORIZED_PROTOCOLS

#: Workload union the timeline builders accept (anything exposing
#: ``report_for`` and ``distinct_sources``).
_Workload = Union[CrowdsensingWorkload, VehicularBeaconWorkload, RemoteIdWorkload]

#: Bound on the weak-authentication key-walk gap — must match
#: ``TwoPhaseReceiverCore``'s / ``ChainReceiverCore``'s ``max_key_gap``.
_MAX_KEY_GAP = 4096

#: Data records buffered per sub-interval by multi-level receivers —
#: must match ``MultiLevelReceiver``'s ``low_buffer_capacity`` default.
_LOW_BUFFER_CAPACITY = 8

# Timeline slot kinds (two-phase family).
_ANNOUNCE = 0
_REVEAL = 1
_FORGED = 2

# Timeline slot kinds (multi-level family).
_CDM = 0
_DATA = 1
_DISC = 2

#: Per-buffered-item bit sizes, matching the DES receivers' pools.
_RECORD_BITS = StoredPacketRecord(0, b"\x00" * 25, b"\x00" * 10).stored_bits
_CDM_BITS = CdmPacket(1, _NO_COMMITMENT, b"\x00" * 10, 0, None).wire_bits


def supports(config: ScenarioConfig) -> bool:
    """Whether the vectorized engine covers this configuration."""
    return config.protocol in SUPPORTED_PROTOCOLS


def shard_plan(receivers: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, stop)`` receiver ranges for ``shards`` shards.

    Delegates the size split to :func:`repro.net.harness.shard_sizes`
    so the fleet engine, the live-network harness and the cluster
    coordinator all balance identically (sizes differ by at most one).
    """
    # Lazy import: net.harness builds on sim.scenario, which imports
    # this module lazily for the vectorized path.
    from repro.net.harness import shard_sizes

    sizes = shard_sizes(receivers, shards)
    plan: List[Tuple[int, int]] = []
    start = 0
    for size in sizes:
        plan.append((start, start + size))
        start += size
    return plan


# ---------------------------------------------------------------------------
# Replay plans: everything a shard needs, fully precomputed and picklable.
# MAC verification and hash pinning are folded into boolean tables
# here; forged TESLA disclosures carry their candidate key, walked in
# the shard replay only as far as the receivers' anchors require.


@dataclass(frozen=True)
class _TwoPhasePlan:
    """Slot arrays + MAC tables for ``dap`` / ``tesla_pp``.

    ``sources[b]`` is the canonical message id for announce/reveal
    slots (``copy % distinct_sources`` — distinct copies of one message
    share it, exactly as they share MAC bytes) and ``-1 - k`` for the
    ``k``-th forged injection, so a buffered slot value identifies the
    MAC bytes it was re-hashed from.
    """

    times: np.ndarray
    kinds: np.ndarray
    intervals: np.ndarray
    sources: np.ndarray
    gate: np.ndarray
    announce_macs: Dict[Tuple[int, int], bytes]
    forged_macs: List[bytes]
    reservoir: bool
    item_bits: int
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


@dataclass(frozen=True)
class _SingleLevelPlan:
    """Slot arrays + outcome tables for ``tesla`` / ``mu_tesla``.

    Each slot may carry a data record (``rec_interval >= 1``), a key
    disclosure (``disc_index >= 1``), or both (classic TESLA
    piggybacks). ``forged_valid[k]`` is the batched-``verify_many``
    outcome of the ``k``-th forged record under its interval's true
    chain key (record sources ``-1 - k`` index into it).
    ``disc_forged[b]`` is ``-1`` for an authentic disclosure and ``f``
    for the ``f``-th forged one, whose random candidate key is
    ``forged_keys[f]``; ``chain_keys[i]`` is the true ``K_i``
    (``K_0`` the commitment), so the replay can tell whether a forged
    candidate back-walks onto a receiver's trusted anchor (a 2^-80
    collision it mirrors by raising).
    """

    times: np.ndarray
    rec_interval: List[int]
    rec_source: List[int]
    forged_valid: List[bool]
    gate: List[bool]
    disc_index: List[int]
    disc_forged: List[int]
    forged_keys: List[bytes]
    chain_keys: List[bytes]
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


@dataclass(frozen=True)
class _MultiLevelPlan:
    """Slot arrays + outcome tables for ``multilevel`` / ``eftp`` / ``edrp``.

    ``kind`` selects the packet class per slot (:data:`_CDM`,
    :data:`_DATA`, :data:`_DISC`); ``index`` is the high interval for
    CDM slots and the flat sub-interval otherwise. ``source`` is the
    data-record message id, or for CDM slots ``-1`` (authentic) /
    ``k >= 0`` (the ``k``-th forged CDM). Forged-CDM MAC validity and
    EDRP hash-pin matches are precomputed tables; the commitments and
    low-chain keys the replay "recovers" are always the true ones, so
    no key bytes are needed at replay time.
    """

    times: np.ndarray
    kinds: np.ndarray
    index: np.ndarray
    sources: np.ndarray
    gate: np.ndarray
    disc_index: np.ndarray
    commitment_present: Dict[int, bool]
    has_next_hash: Dict[int, bool]
    forged_mac_valid: List[bool]
    forged_pin_match: List[bool]
    low_per_high: int
    high_gap_bound: int
    anchor_offset: int
    legitimate_bits: int
    forged_bits: int
    sent_authentic: int


_Plan = Union[_TwoPhasePlan, _SingleLevelPlan, _MultiLevelPlan]


def _interval_slots(
    schedule: IntervalSchedule, counts: np.ndarray, span: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lay out ``counts[i - 1]`` slots in each interval ``i``.

    Returns each slot's ``(interval, position, time)``, the slots
    interval-major. A slot's time is ``start_of(interval) + span *
    (position + 0.5) / spread`` with ``spread = max(count, 1)``: the
    float operations, in the order, of the DES's per-packet schedule.
    """
    intervals = np.repeat(np.arange(1, counts.size + 1), counts)
    first = np.cumsum(counts) - counts
    positions = np.arange(intervals.size) - np.repeat(first, counts)
    spread = np.maximum(counts, 1)[intervals - 1]
    starts = schedule.start + (intervals - 1) * schedule.duration
    return intervals, positions, starts + span * (positions + 0.5) / spread


def _byte_rows(table: np.ndarray) -> List[bytes]:
    """The rows of a ``(rows, width)`` uint8 table as bytes objects."""
    raw = np.ascontiguousarray(table).tobytes()
    width = table.shape[1]
    return [raw[at : at + width] for at in range(0, len(raw), width)]


def _build_two_phase_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    seeds: SeedLadder,
) -> _TwoPhasePlan:
    """Lay out every two-phase broadcast in DES event order.

    The sender schedules all its transmit events first (interval-major,
    position-minor), then the attacker schedules its injections — so a
    stable sort by time reproduces the event loop's ``(time, seq)``
    ordering exactly, including float-time ties.
    """
    condition = SecurityCondition(schedule, sync, config.disclosure_delay)
    sender_cls = DapSender if config.protocol == "dap" else TeslaPlusPlusSender
    sender = sender_cls(
        seed=_seed_bytes(config, "chain"),
        chain_length=config.intervals + config.disclosure_delay,
        disclosure_delay=config.disclosure_delay,
        packets_per_interval=config.packets_per_interval,
        announce_copies=config.announce_copies,
        message_for=workload.report_for,
    )
    n, delay, copies = config.intervals, config.disclosure_delay, config.announce_copies
    announce_block = config.packets_per_interval * copies
    # The workload's report cycle period, NOT config.sensing_tasks:
    # payload identity is what the DES's receivers actually compare, so
    # the grouping must follow the workload's own modulus.
    num_tasks = workload.distinct_sources
    announce_macs: Dict[Tuple[int, int], bytes] = {}
    for interval in range(1, n + 1):
        for c, mac in enumerate(sender.messages_and_macs(interval)[1]):
            announce_macs[(interval, c % num_tasks)] = mac

    # Interval i sends its announce block, then the reveals of i - d.
    reveals = np.where(np.arange(1, n + 1) > delay, config.packets_per_interval, 0)
    slot_interval, position, times = _interval_slots(
        schedule, announce_block + reveals, schedule.duration
    )
    announce = position < announce_block
    kinds = np.where(announce, _ANNOUNCE, _REVEAL)
    intervals = np.where(announce, slot_interval, slot_interval - delay)
    sources = (
        np.where(announce, position // copies, position - announce_block) % num_tasks
    )
    legitimate_bits = (
        n * announce_block * MacAnnouncePacket(1, b"").wire_bits
        + int(reveals.sum()) * MessageKeyPacket(1, b"", b"").wire_bits
    )

    forged_bits = 0
    forged_macs: List[bytes] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        forged = forged_copies_for_fraction(announce_block, config.attack_fraction)
        forged_interval, _copy, forged_times = _interval_slots(
            schedule,
            np.full(n, forged),
            schedule.duration * config.attack_burst_fraction,
        )
        # The factory draws 10 bytes per injection, in event order
        # (strictly increasing times within the attacker).
        forged_macs = _byte_rows(
            forged_byte_rows(attacker_rng, forged_interval.size, 10)
        )
        forged_bits = forged_interval.size * MacAnnouncePacket(
            1, b"", provenance=FORGED
        ).wire_bits
        times = np.concatenate((times, forged_times))
        kinds = np.concatenate((kinds, np.full(forged_interval.size, _FORGED)))
        intervals = np.concatenate((intervals, forged_interval))
        sources = np.concatenate((sources, -1 - np.arange(forged_interval.size)))

    # Stable: sender slots precede attacker slots, matching their
    # scheduling sequence numbers.
    order = np.argsort(times, kind="stable")
    times, kinds = times[order], kinds[order]
    intervals, sources = intervals[order], sources[order]
    # The security gate is identical across receivers (zero skew, equal
    # constant delay): evaluate once per announce slot at arrival time.
    gate = (kinds == _REVEAL) | condition.accepts_many(
        intervals, times + config.link_delay
    )
    reservoir = config.protocol == "dap"
    micro_bits = 24 if reservoir else 80
    return _TwoPhasePlan(
        times=times,
        kinds=kinds,
        intervals=intervals,
        sources=sources,
        gate=gate,
        announce_macs=announce_macs,
        forged_macs=forged_macs,
        reservoir=reservoir,
        item_bits=micro_bits + INDEX_BITS,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval
        * (config.intervals - config.disclosure_delay),
    )


def _build_single_level_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    seeds: SeedLadder,
) -> _SingleLevelPlan:
    """Timeline + outcome tables for classic TESLA / μTESLA."""
    delay = max(config.disclosure_delay, 2)
    tesla = config.protocol == "tesla"
    condition = SecurityCondition(schedule, sync, delay)
    sender_cls = TeslaSender if tesla else MuTeslaSender
    sender = sender_cls(
        seed=_seed_bytes(config, "chain"),
        chain_length=config.intervals,
        disclosure_delay=delay,
        packets_per_interval=config.packets_per_interval,
        message_for=workload.report_for,
    )
    n, ppi = config.intervals, config.packets_per_interval
    num_tasks = workload.distinct_sources
    # (interval, source) -> (message, mac) representative, for the
    # batched verify_many pass below.
    authentic_reps: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
    for interval in range(1, n + 1):
        messages, macs = sender.messages_and_macs(interval)
        for c, pair in enumerate(zip(messages, macs)):
            authentic_reps.setdefault((interval, c % num_tasks), pair)

    # Interval i sends its data records; TESLA piggybacks K_{i-d} on
    # each, μTESLA sends one standalone disclosure of it after them.
    disclosing = np.arange(1, n + 1) > delay
    slot_interval, position, times = _interval_slots(
        schedule, ppi + (disclosing & (not tesla)), schedule.duration
    )
    data = position < ppi
    rec_interval = np.where(data, slot_interval, -1)
    rec_source = np.where(data, position % num_tasks, 0)
    disc_index = np.where(
        disclosing[slot_interval - 1] & (~data | tesla), slot_interval - delay, -1
    )
    disc_forged = np.full(times.size, -1)
    disclosures = int(disclosing.sum())
    if tesla:
        legitimate_bits = ppi * (
            disclosures * TeslaPacket(1, b"", b"", 0, b"").wire_bits
            + (n - disclosures) * TeslaPacket(1, b"", b"", 0, None).wire_bits
        )
    else:
        legitimate_bits = (
            n * ppi * MuTeslaDataPacket(1, b"", b"").wire_bits
            + disclosures * KeyDisclosurePacket(1, b"").wire_bits
        )

    forged_bits = 0
    # forged record k: (interval, message, mac); forged disclosure f:
    # (disc_index, candidate key bytes).
    forged_records: List[Tuple[int, bytes, bytes]] = []
    forged_keys: List[bytes] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        copies = forged_copies_for_fraction(ppi, config.attack_fraction)
        forged_interval, forged_copy, forged_times = _interval_slots(
            schedule,
            np.full(n, copies),
            schedule.duration * config.attack_burst_fraction,
        )
        # Factory draw order: MAC bytes, then (TESLA only) the forged
        # disclosed key — at injection-event time.
        table = forged_byte_rows(
            attacker_rng, forged_interval.size, 20 if tesla else 10
        )
        forged_records = [
            (interval, forged_message(interval, copy), mac)
            for interval, copy, mac in zip(
                forged_interval.tolist(),
                forged_copy.tolist(),
                _byte_rows(table[:, :10]),
            )
        ]
        forged_disc = np.full(forged_interval.size, -1)
        forged_id = np.full(forged_interval.size, -1)
        if tesla:
            # The factory discloses interval-2 regardless of the
            # configured delay (mirrors tesla_forgery_factory).
            disclosed = np.flatnonzero(forged_interval > 2)
            forged_disc[disclosed] = forged_interval[disclosed] - 2
            forged_id[disclosed] = np.arange(disclosed.size)
            forged_keys = _byte_rows(table[disclosed, 10:])
        probe = (
            TeslaPacket(1, b"", b"", 0, b"", FORGED)
            if tesla
            else MuTeslaDataPacket(1, b"", b"", FORGED)
        )
        forged_bits = forged_interval.size * probe.wire_bits
        times = np.concatenate((times, forged_times))
        rec_interval = np.concatenate((rec_interval, forged_interval))
        rec_source = np.concatenate((rec_source, -1 - np.arange(forged_interval.size)))
        disc_index = np.concatenate((disc_index, forged_disc))
        disc_forged = np.concatenate((disc_forged, forged_id))

    order = np.argsort(times, kind="stable")
    times, rec_interval = times[order], rec_interval[order]
    gate = (rec_interval < 1) | condition.accepts_many(
        rec_interval, times + config.link_delay
    )

    # Batched receiver-side MAC verification: one verify_many call per
    # interval decides every record outcome up front (authentic
    # representatives must verify; a forged record verifying is the
    # 2^-80 truncated-HMAC collision, which the replay then mirrors by
    # counting a forged acceptance exactly as the DES would).
    mac_scheme = MacScheme()
    # K_0..K_n: the MAC keys here, and the anchors forged disclosures
    # are checked against in the shard replay (which walks each
    # candidate only down to the oldest anchor a receiver still holds).
    chain_keys = [sender.chain.commitment] + [
        sender.chain.key(i) for i in range(1, n + 1)
    ]
    forged_valid = [False] * len(forged_records)
    reps_by_interval: Dict[int, List[Tuple[int, Tuple[bytes, bytes]]]] = {}
    for (iv, src), pair in authentic_reps.items():
        reps_by_interval.setdefault(iv, []).append((src, pair))
    forged_by_interval: Dict[int, List[int]] = {}
    for k, (iv, _m, _mac) in enumerate(forged_records):
        forged_by_interval.setdefault(iv, []).append(k)
    for interval in range(1, n + 1):
        key = chain_keys[interval]
        reps = reps_by_interval.get(interval, [])
        forged_ids = forged_by_interval.get(interval, [])
        pairs = [pair for _src, pair in reps] + [
            (forged_records[k][1], forged_records[k][2]) for k in forged_ids
        ]
        if not pairs:
            continue
        outcomes = mac_scheme.verify_many(key, pairs)
        for (src, _pair), ok in zip(reps, outcomes[: len(reps)]):
            if not ok:
                raise ConfigurationError(
                    f"authentic record failed MAC verification at interval"
                    f" {interval}, source {src}"
                )
        for k, ok in zip(forged_ids, outcomes[len(reps):]):
            forged_valid[k] = ok

    return _SingleLevelPlan(
        times=times,
        rec_interval=rec_interval.tolist(),
        rec_source=rec_source[order].tolist(),
        forged_valid=forged_valid,
        gate=gate.tolist(),
        disc_index=disc_index[order].tolist(),
        disc_forged=disc_forged[order].tolist(),
        forged_keys=forged_keys,
        chain_keys=chain_keys,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval * (config.intervals - delay),
    )


def _multilevel_params(config: ScenarioConfig) -> MultiLevelParams:
    """The exact parameter derivation of the DES multi-level builder."""
    high_length = (config.intervals - 1) // config.low_per_high + 3
    params = MultiLevelParams(
        high_length=high_length,
        low_length=config.low_per_high,
        low_disclosure_delay=max(config.disclosure_delay, 2),
        cdm_copies=config.cdm_copies,
        packets_per_low_interval=config.packets_per_interval,
    )
    if config.protocol == "eftp":
        params = eftp_params(params)
    elif config.protocol == "edrp":
        params = edrp_params(params)
    return params


def _build_multilevel_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    seeds: SeedLadder,
) -> _MultiLevelPlan:
    """Timeline + outcome tables for multi-level μTESLA / EFTP / EDRP."""
    params = _multilevel_params(config)
    lph = config.low_per_high
    sender = MultiLevelSender(
        seed=_seed_bytes(config, "chain"),
        params=params,
        message_for=workload.report_for,
    )
    two_level = TwoLevelSchedule(0.0, config.interval_duration, lph)
    high_cond = SecurityCondition(
        two_level.high_schedule, sync, params.high_disclosure_delay
    )
    low_cond = SecurityCondition(
        two_level.low_schedule, sync, params.low_disclosure_delay
    )
    n, ppi = config.intervals, config.packets_per_interval
    low_delay = params.low_disclosure_delay
    num_tasks = workload.distinct_sources
    mac_scheme = MacScheme()
    # Batched receiver-side verification of the data records: every
    # representative must verify under its sub-interval key — one
    # verify_many per flat interval (records share the sub-interval
    # key), not one single-pair call per record: the batch pays the
    # HMAC key-block setup once per slot. The perf registry's
    # ``crypto.mac.batches`` counter pins this shape in the tests.
    for flat in range(1, n + 1):
        messages, macs = sender.messages_and_macs(flat)
        reps: Dict[int, Tuple[bytes, bytes]] = {}
        for c, pair in enumerate(zip(messages, macs)):
            reps.setdefault(c % num_tasks, pair)
        key = sender.chain.low_key(*params.split(flat))
        outcomes = mac_scheme.verify_many(key, list(reps.values()))
        for source, ok in zip(reps, outcomes):
            if not ok:
                raise ConfigurationError(
                    f"authentic data record failed MAC verification at flat"
                    f" interval {flat}, source {source}"
                )

    # Flat f sends its high interval's CDM copies, its data records,
    # then the disclosure of K_{f - d}.
    flats = np.arange(1, n + 1)
    high_of = (flats - 1) // lph + 1
    cdm_copies = np.array(
        [sender.cdm_copies_in_sub(sub) for sub in range(1, lph + 1)]
    )[(flats - 1) % lph]
    disclosing = flats > low_delay
    slot_flat, position, times = _interval_slots(
        schedule, cdm_copies + ppi + disclosing, schedule.duration
    )
    copies_here = cdm_copies[slot_flat - 1]
    high = high_of[slot_flat - 1]
    cdm = position < copies_here
    data = ~cdm & (position < copies_here + ppi)
    kinds = np.select([cdm, data], [_CDM, _DATA], _DISC)
    index = np.select([cdm, data], [high, slot_flat], slot_flat - low_delay)
    sources = np.select([cdm, data], [-1, (position - copies_here) % num_tasks], 0)
    cdm_by_high = {
        h: sender.cdm(h) for h in np.unique(high_of[cdm_copies > 0]).tolist()
    }
    cdm_disc = np.full(params.high_length + 1, -1)
    cdm_bits = np.zeros(params.high_length + 1, dtype=np.int64)
    for h, packet in cdm_by_high.items():
        if packet.disclosed_key is not None:
            cdm_disc[h] = packet.disclosed_index
        cdm_bits[h] = packet.wire_bits
    disc_index = np.where(cdm, cdm_disc[high], -1)
    legitimate_bits = (
        int(cdm_copies @ cdm_bits[high_of])
        + n * ppi * MuTeslaDataPacket(1, b"", b"").wire_bits
        + int(disclosing.sum()) * KeyDisclosurePacket(1, b"").wire_bits
    )

    forged_bits = 0
    # forged CDM k: (high, low_commitment, mac)
    forged_cdms: List[Tuple[int, bytes, bytes]] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        authentic_copies = max(config.cdm_copies // lph, 1)
        copies = forged_copies_for_fraction(
            authentic_copies, config.attack_fraction
        )
        forged_flat, _copy, forged_times = _interval_slots(
            schedule,
            np.full(n, copies),
            schedule.duration * config.attack_burst_fraction,
        )
        forged_high = high_of[forged_flat - 1]
        # Factory draw order: commitment bytes, then MAC bytes.
        table = forged_byte_rows(attacker_rng, forged_flat.size, 20)
        forged_cdms = list(zip(
            forged_high.tolist(), _byte_rows(table[:, :10]), _byte_rows(table[:, 10:])
        ))
        probe = CdmPacket(1, b"", b"", 0, None, provenance=FORGED)
        forged_bits = forged_flat.size * probe.wire_bits
        times = np.concatenate((times, forged_times))
        kinds = np.concatenate((kinds, np.full(forged_flat.size, _CDM)))
        index = np.concatenate((index, forged_high))
        sources = np.concatenate((sources, np.arange(forged_flat.size)))
        disc_index = np.concatenate((disc_index, np.full(forged_flat.size, -1)))

    order = np.argsort(times, kind="stable")
    times, kinds, index = times[order], kinds[order], index[order]
    arrivals = times + config.link_delay
    gate = np.select(
        [kinds == _CDM, kinds == _DATA],
        [
            high_cond.accepts_many(index, arrivals),
            low_cond.accepts_many(index, arrivals),
        ],
        default=True,
    )

    # Forged CDMs: verify_many under the targeted high key over the
    # receiver's payload reconstruction — any True is the 2^-80
    # collision path.
    forged_mac_valid = [False] * len(forged_cdms)
    by_high: Dict[int, List[int]] = {}
    for k, (h, _c, _m) in enumerate(forged_cdms):
        by_high.setdefault(h, []).append(k)
    for h, ids in by_high.items():
        key = sender.chain.high_key(h)
        pairs = []
        for k in ids:
            _h, commitment, mac = forged_cdms[k]
            payload = b"|".join([h.to_bytes(4, "big"), commitment, b""])
            pairs.append((payload, mac))
        for k, ok in zip(ids, mac_scheme.verify_many(key, pairs)):
            forged_mac_valid[k] = ok

    # EDRP hash pinning: a forged CDM matches the pin for high ``h``
    # only if H over its digest payload collides with the hash of the
    # authentic CDM_h (pin bytes come from authentic CDM_{h-1}).
    forged_pin_match = [False] * len(forged_cdms)
    if params.cdm_hash_chaining:
        hash_fn = standard_functions()["H"]
        expected: Dict[int, bytes] = {}
        for h, packet in cdm_by_high.items():
            if packet.next_cdm_hash is not None:
                expected[h + 1] = packet.next_cdm_hash
        for k, (h, commitment, mac) in enumerate(forged_cdms):
            pin = expected.get(h)
            if pin is None:
                continue
            digest_payload = b"|".join(
                [h.to_bytes(4, "big"), commitment, b"", mac]
            )
            forged_pin_match[k] = hash_fn(digest_payload) == pin

    return _MultiLevelPlan(
        times=times,
        kinds=kinds,
        index=index,
        sources=sources[order],
        gate=gate,
        disc_index=disc_index[order],
        commitment_present={
            h: packet.low_commitment != _NO_COMMITMENT
            for h, packet in cdm_by_high.items()
        },
        has_next_hash={
            h: packet.next_cdm_hash is not None
            for h, packet in cdm_by_high.items()
        },
        forged_mac_valid=forged_mac_valid,
        forged_pin_match=forged_pin_match,
        low_per_high=lph,
        high_gap_bound=4 * params.high_length,
        anchor_offset=0 if params.eftp_wiring else 1,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval
        * (config.intervals - params.low_disclosure_delay),
    )


def _build_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: _Workload,
    seeds: SeedLadder,
) -> _Plan:
    if config.protocol in TWO_PHASE:
        return _build_two_phase_plan(config, schedule, sync, workload, seeds)
    if config.protocol in SINGLE_LEVEL:
        return _build_single_level_plan(config, schedule, sync, workload, seeds)
    return _build_multilevel_plan(config, schedule, sync, workload, seeds)


# ---------------------------------------------------------------------------
# Delivery mask: the shared medium stream, bit-packed.


def _packed_delivery_mask(
    config: ScenarioConfig, slots: int, medium_rng: random.Random
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Bit-packed ``(slots, ceil(receivers/8))`` delivery matrix.

    Consumes the medium RNG stream in the exact order
    ``BroadcastMedium.broadcast`` does — per broadcast, one decision per
    attached receiver, in attachment order — but through a mirrored
    NumPy Mersenne state (:func:`repro.sim.draws.medium_blocks`) so the
    draws vectorize, generated in bounded blocks along the slot axis
    (Gilbert–Elliott channel state carries across blocks). Returns
    ``(packed, delivered_any, delivered_total)``.
    """
    receivers = config.receivers
    bursty = config.loss_mean_burst is not None and config.loss_probability > 0.0
    per_decision = 2 if bursty else 1
    row_bytes = (receivers + 7) // 8
    packed = np.empty((slots, row_bytes), dtype=np.uint8)
    delivered_any = np.zeros(slots, dtype=bool)
    delivered_total = 0
    reference = None
    if bursty:
        reference = GilbertElliottLoss.from_average(
            config.loss_probability, config.loss_mean_burst
        )
    channel_state: Optional[np.ndarray] = None
    for begin, end, flat in medium_blocks(
        medium_rng, slots, receivers * per_decision
    ):
        uniforms = flat.reshape(end - begin, receivers, per_decision)
        if reference is not None:
            drops, channel_state = gilbert_elliott_drop_mask(
                uniforms,
                reference.p_good_to_bad,
                reference.p_bad_to_good,
                reference.loss_good,
                reference.loss_bad,
                initial_bad=channel_state,
                return_state=True,
            )
        else:
            drops = bernoulli_drop_mask(
                uniforms[:, :, 0], config.loss_probability
            )
        delivered = ~drops
        packed[begin:end] = np.packbits(delivered, axis=1)
        delivered_any[begin:end] = delivered.any(axis=1)
        delivered_total += int(delivered.sum())
    return packed, delivered_any, delivered_total


def _shard_delivered(packed: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Unpack receivers ``[start, stop)`` from the bit-packed mask."""
    first_byte = start // 8
    bits = np.unpackbits(packed[:, first_byte : (stop + 7) // 8], axis=1)
    offset = start - 8 * first_byte
    return bits[:, offset : offset + (stop - start)].astype(bool)


# ---------------------------------------------------------------------------
# Per-shard replays. Each returns eight per-receiver counter lists
# (receiver order within the shard): authenticated, lost_no_record,
# rejected_forged, rejected_weak_auth, discarded_unsafe,
# forged_accepted, packets_received, peak_buffer_bits.

_Counts = Tuple[
    List[int], List[int], List[int], List[int],
    List[int], List[int], List[int], List[int],
]


def _offer_runs(
    offer_keys: np.ndarray, what: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group offer rows into one contiguous run per bucket key.

    Returns ``(run_starts, run_ends, run_id, run_keys)`` (ends
    inclusive, positions within the offer rows).

    Raises:
        SimulationError: if one bucket's offers are split across runs
            or the runs' keys do not ascend.
    """
    if not offer_keys.size:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty, empty
    changes = np.nonzero(np.diff(offer_keys))[0] + 1
    run_starts = np.concatenate((np.zeros(1, dtype=np.int64), changes))
    run_ends = np.append(changes, offer_keys.size) - 1
    run_keys = offer_keys[run_starts]
    if np.any(np.diff(run_keys) <= 0):
        raise SimulationError(f"{what}: a bucket's offers split across runs")
    run_id = np.zeros(offer_keys.size, dtype=np.int64)
    run_id[changes] = 1
    return run_starts, run_ends, np.cumsum(run_id), run_keys


def _run_ranks(
    d_off: np.ndarray, run_starts: np.ndarray, run_ends: np.ndarray,
    run_id: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-receiver arrival rank of each offer within its run, and each
    run's delivered-offer count (segmented cumulative sums)."""
    cum = np.cumsum(d_off, axis=0, dtype=np.int32)
    base = np.zeros((run_starts.size, d_off.shape[1]), dtype=np.int32)
    if run_starts.size > 1:
        base[1:] = cum[run_starts[1:] - 1]
    if not run_starts.size:
        return cum, base
    return cum - base[run_id], cum[run_ends] - base


@dataclass(frozen=True)
class _TwoPhaseVecPlan:
    """Receiver-independent numpy views of a :class:`_TwoPhasePlan`.

    Offers (gated announce/forged slots) are grouped into contiguous
    per-interval *runs*. Reveals carry their position within the offer
    sequence, so fills-before-reveal falls out of one cumulative sum,
    and the run of their interval (``-1`` when it had no gated offer);
    ``group_order``/``group_starts`` list reveals that share an
    ``(interval, source)`` key together when any key repeats (``None``
    otherwise).
    """

    offer_rows: np.ndarray
    discard_rows: np.ndarray
    reveal_rows: np.ndarray
    run_starts: np.ndarray
    run_ends: np.ndarray
    run_id: np.ndarray
    run_intervals: np.ndarray
    offer_sources: np.ndarray
    reveal_intervals: np.ndarray
    reveal_sources: np.ndarray
    reveal_run: np.ndarray
    pos_in_offers: np.ndarray
    group_order: Optional[np.ndarray]
    group_starts: Optional[np.ndarray]


def _two_phase_precompute(plan: _TwoPhasePlan) -> _TwoPhaseVecPlan:
    """Lay out a two-phase plan for the vectorized replay kernel.

    Verifies the structural facts the kernel's exactness proof rests
    on: each interval's gated offers form one contiguous slot run, runs
    ascend, reveals arrive in non-decreasing interval order, and every
    reveal of an interval lands after that interval's last offer (so
    the bucket it matches against is frozen). Announce/reveal windows
    guarantee all of this for generated plans.

    Raises:
        SimulationError: if the plan violates any of these facts — the
            replay would drift from the DES rather than fail.
    """
    kinds = np.asarray(plan.kinds, dtype=np.int64)
    gate = np.asarray(plan.gate, dtype=bool)
    intervals = np.asarray(plan.intervals, dtype=np.int64)
    sources = np.asarray(plan.sources, dtype=np.int64)
    is_offer = kinds != _REVEAL
    offer_rows = np.nonzero(is_offer & gate)[0]
    discard_rows = np.nonzero(is_offer & ~gate)[0]
    reveal_rows = np.nonzero(~is_offer)[0]
    run_starts, run_ends, run_id, run_intervals = _offer_runs(
        intervals[offer_rows], "two-phase plan"
    )
    reveal_intervals = intervals[reveal_rows]
    if np.any(np.diff(reveal_intervals) < 0):
        raise SimulationError(
            "two-phase plan: reveals arrive out of interval order"
        )
    reveal_sources = sources[reveal_rows]
    reveal_run = np.full(reveal_rows.size, -1, dtype=np.int64)
    if run_ends.size:
        at = np.minimum(
            np.searchsorted(run_intervals, reveal_intervals), run_ends.size - 1
        )
        hit = run_intervals[at] == reveal_intervals
        reveal_run[hit] = at[hit]
        late = np.flatnonzero(hit & (reveal_rows < offer_rows[run_ends][at]))
        if late.size:
            raise SimulationError(
                f"two-phase plan: reveal at slot {int(reveal_rows[late[0]])} "
                f"precedes the last offer of interval "
                f"{int(reveal_intervals[late[0]])}"
            )
    group_order, group_starts = _duplicate_groups(reveal_intervals, reveal_sources)
    return _TwoPhaseVecPlan(
        offer_rows=offer_rows,
        discard_rows=discard_rows,
        reveal_rows=reveal_rows,
        run_starts=run_starts,
        run_ends=run_ends,
        run_id=run_id,
        run_intervals=run_intervals,
        offer_sources=sources[offer_rows],
        reveal_intervals=reveal_intervals,
        reveal_sources=reveal_sources,
        reveal_run=reveal_run,
        pos_in_offers=np.searchsorted(offer_rows, reveal_rows),
        group_order=group_order,
        group_starts=group_starts,
    )


#: Receiver-block width for the vectorized replay — bounds the
#: (offer-slots x receivers) rank/cumsum temporaries to a few MiB.
_REPLAY_BLOCK = 8192


def _block_width(receivers: int, budget: int, per_receiver: int) -> int:
    """Receivers per replay block: at most ``budget`` bytes of block
    temporaries at ``per_receiver`` bytes each (within ``[32,
    _REPLAY_BLOCK]``), balanced so that no block is much narrower than
    the others."""
    widest = min(_REPLAY_BLOCK, max(32, budget // per_receiver))
    blocks = max(1, -(-receivers // widest))
    return max(1, -(-receivers // blocks))


#: Final-bucket value of a slot no offer filled (never a source id).
_NO_RECORD = np.iinfo(np.int64).max


def _replay_two_phase_vectorized(
    plan: _TwoPhasePlan,
    pre: _TwoPhaseVecPlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """One-pass Algorithm-2 reservoir kernel over whole slot floods.

    Per receiver block, a segmented cumulative sum ranks every
    delivered offer within its interval run. Ranks up to the buffer
    capacity are free-slot fills (Algorithm 2 stores those
    unconditionally), so the fill trajectory, bucket seen-counters and
    stale-pop totals all come out of numpy at once. Only overflow
    offers — rank past capacity — touch the receivers' streams: their
    ``(receiver, offer)`` pairs, straight from ``np.nonzero`` of the
    overflow mask, go to :meth:`~repro.sim.draws.ReceiverStreams.overflow`,
    which replays the ``m/k`` acceptance and victim draws for exactly
    those offers, in each receiver's delivery order, and returns the
    last offer written to each bucket slot. One scatter then leaves
    every bucket byte-identical to the DES receiver's.

    The reveal pass is array code over the ``(reveals, receivers)``
    block too. The trusted anchor is a running maximum over delivered
    reveals, frozen by the first one past the key-gap bound
    (:func:`_anchor_trajectory`; that reveal and every later one is a
    weak-authentication reject). Only the first delivered copy of an
    ``(interval, source)`` key is decided: authenticated when its
    bucket holds a record re-hashed from the same MAC bytes, lost
    otherwise; later copies are skipped after a match and lost after a
    miss. Peak occupancy is the fills so far minus the buckets already
    popped (those more than one interval behind the anchor), read
    before every reveal and at the end. The only Python loop is over
    first copies that miss a non-empty bucket: they are decided by
    actual μMAC equality, one
    :meth:`~repro.crypto.mac.MicroMacScheme.compute_many` batch per
    miss, so 24-bit collisions authenticate exactly as in the DES.
    """
    announce_macs = plan.announce_macs
    forged_macs = plan.forged_macs
    item_bits = plan.item_bits
    micro = MicroMacScheme(item_bits - INDEX_BITS)
    capacity = config.buffers

    offer_rows = pre.offer_rows
    run_id = pre.run_id
    offer_sources = pre.offer_sources
    n_runs = int(pre.run_starts.size)
    #: overflow events dedup to one surviving write per (run, victim);
    #: packing both into one int keys the per-receiver dict cheaply.
    rk_base = run_id * capacity
    # Reveals whose interval has a bucket to match against.
    matchable = np.flatnonzero(pre.reveal_run >= 0)
    matchable_runs = pre.reveal_run[matchable]
    matchable_sources = pre.reveal_sources[matchable, None]
    reveal_intervals = pre.reveal_intervals.tolist()
    reveal_sources = pre.reveal_sources.tolist()
    reveal_run = pre.reveal_run.tolist()

    total = len(seeds)
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    # Bound the largest per-block temporaries (the rank cumsums over
    # offer slots, the bucket tensor over runs x capacity and the
    # reveal matrices, next to the draw kernel's lane state and
    # survivor table) to a few dozen MiB regardless of how long the
    # scenario runs.
    widest = max(
        int(offer_rows.size), n_runs * capacity, int(pre.reveal_rows.size), 1
    )
    block = _block_width(
        total, 64 << 20, 8 * widest + STREAM_BYTES_PER_LANE + 4 * n_runs * capacity
    )
    for b0 in range(0, total, block):
        b1 = min(b0 + block, total)
        nb = b1 - b0
        blk = delivered[:, b0:b1]
        cols = np.arange(nb)
        d_off = blk[offer_rows]
        rank, counts = _run_ranks(d_off, pre.run_starts, pre.run_ends, run_id)
        stored_m = d_off & (rank <= capacity)
        fills = np.zeros((offer_rows.size + 1, nb), dtype=np.int32)
        np.cumsum(stored_m, axis=0, dtype=np.int32, out=fills[1:])

        # --- final buckets: one scatter of fills + one of survivors ---
        fin = np.full((nb, n_runs, capacity), _NO_RECORD, dtype=np.int64)
        st_c, st_r = np.nonzero(stored_m)
        fin[st_r, run_id[st_c], rank[st_c, st_r] - 1] = offer_sources[st_c]
        del st_c, st_r

        # --- overflow offers, receiver-major: the only RNG draws ---
        # (transposing first makes np.nonzero group by receiver, in
        # offer order — exactly the DES receiver's draw order)
        overflow = plan.reservoir and offer_rows.size
        if overflow:
            ov_r, ov_c = np.nonzero(np.ascontiguousarray((d_off & ~stored_m).T))
            # m/k acceptance thresholds; int -> float64 division is
            # bit-identical to the DES reservoir's Python capacity / seen.
            thresholds = capacity / rank[ov_c, ov_r]
        del rank, stored_m, d_off
        if overflow:
            lanes, slots, offers = ReceiverStreams(start + b0, seeds[b0:b1]).overflow(
                ov_r, thresholds, capacity, rk_base[ov_c]
            )
            fin.reshape(nb, -1)[lanes, slots] = offer_sources[ov_c[offers]]
            del ov_r, ov_c, thresholds, lanes, slots, offers

        # --- reveal pass: weak auth, first copies, record matching ---
        d_rev = blk[pre.reveal_rows]
        after, live = _anchor_trajectory(
            pre.reveal_intervals, d_rev, _MAX_KEY_GAP
        )
        first = live
        if pre.group_order is not None:
            first = live & _group_first(live, pre.group_order, pre.group_starts)
        contains = np.zeros_like(first)
        nonempty = np.zeros_like(first)
        if matchable.size:
            contains[matchable] = (
                fin[:, matchable_runs, :] == matchable_sources
            ).any(axis=2).T
            nonempty[matchable] = counts[matchable_runs] > 0
        matched = first & contains
        held_len = np.minimum(counts, capacity)
        # No surviving record shares these reveals' MAC bytes — decide
        # by actual μMAC equality so 24-bit collisions authenticate
        # exactly as in the DES, one batch per miss.
        miss_r, miss_j = np.nonzero((first & nonempty & ~contains).T)
        owner = -1
        local_key = b""
        for r, j in zip(miss_r.tolist(), miss_j.tolist()):
            if r != owner:
                owner = r
                local_key = _seed_bytes(config, f"local-{start + b0 + r}")
            interval = reveal_intervals[j]
            run = reveal_run[j]
            batch = [announce_macs[(interval, reveal_sources[j])]]
            for slot in fin[r, run, : held_len[run, r]].tolist():
                batch.append(
                    announce_macs[(interval, slot)]
                    if slot >= 0
                    else forged_macs[-1 - slot]
                )
            digests = micro.compute_many(local_key, batch)
            if digests[0] in digests[1:]:
                matched[j, r] = True

        n_live = live.sum(axis=0)
        auth = matched.sum(axis=0)
        lost = n_live - auth
        if pre.group_order is not None:
            # Later copies of a matched key are skipped, not lost.
            copies = np.add.reduceat(
                live[pre.group_order], pre.group_starts, axis=0, dtype=np.int32
            )
            won = np.logical_or.reduceat(
                matched[pre.group_order], pre.group_starts, axis=0
            )
            lost -= ((copies - 1) * won).sum(axis=0)

        # Occupancy = fills so far - buckets more than one interval
        # behind the anchor (popped), read before each reveal and at
        # the end: together these cover every point where the DES
        # receiver's append-time peak can land.
        popped = np.zeros((n_runs + 1, nb), dtype=np.int32)
        np.cumsum(held_len, axis=0, out=popped[1:])
        anchors = np.zeros((after.shape[0] + 1, nb), dtype=after.dtype)
        anchors[1:] = after
        gone = popped[np.searchsorted(pre.run_intervals, anchors - 1), cols]
        at_reveal = fills[pre.pos_in_offers] - gone[:-1]
        peak = np.maximum(fills[-1] - gone[-1], at_reveal.max(axis=0, initial=0))

        zeros = [0] * nb
        for column, values in zip(out, (
            auth.tolist(), lost.tolist(), zeros,
            (d_rev.sum(axis=0) - n_live).tolist(),
            blk[pre.discard_rows].sum(axis=0).tolist(), zeros,
            blk.sum(axis=0).tolist(), (peak * item_bits).tolist(),
        )):
            column.extend(values)
    return out  # type: ignore[return-value]


def _duplicate_groups(
    buckets: np.ndarray, sources: np.ndarray
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Offers grouped by ``(bucket, source)`` identity: a stable order
    listing each group contiguously, and each group's start in it —
    ``(None, None)`` when no identity repeats (every offer distinct)."""
    low = int(sources.min(initial=0))
    keys = buckets * (int(sources.max(initial=0)) - low + 1) + (sources - low)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    if not np.any(sorted_keys[1:] == sorted_keys[:-1]):
        return None, None
    return order, np.concatenate(([0], np.nonzero(np.diff(sorted_keys))[0] + 1))


def _group_first(d_off: np.ndarray, order: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Whether each delivered offer is the first delivered copy of its
    group (groups are contiguous in ``order``, beginning at ``starts``)."""
    cum = np.cumsum(d_off[order], axis=0, dtype=np.int32)
    base = np.zeros_like(cum)
    base[starts[1:]] = cum[starts[1:] - 1]
    base = np.maximum.accumulate(base, axis=0)
    first = np.empty_like(d_off)
    first[order] = d_off[order] & (cum - base == 1)
    return first


def _anchor_trajectory(
    index: np.ndarray, delivered: np.ndarray, gap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Trusted-anchor trajectory over key-disclosing rows (authentic
    single-level disclosures, two-phase reveals).

    ``index`` (non-decreasing) is each row's disclosed chain index and
    ``delivered`` the ``(rows, receivers)`` delivery block. A delivered
    disclosure authenticates unless it lies more than ``gap`` past the
    anchor; since indices never decrease, the first such rejection
    freezes the receiver's anchor for the rest of the run. Returns the
    anchor after each row and which rows authenticated.
    """
    values = np.where(delivered, index[:, None], 0)
    after = np.maximum.accumulate(values, axis=0)
    before = np.zeros_like(after)
    before[1:] = after[:-1]
    violation = delivered & (index[:, None] - before > gap)
    if not violation.any():
        return after, delivered
    stuck = np.logical_or.accumulate(violation, axis=0)
    frozen = before[np.argmax(violation, axis=0), np.arange(after.shape[1])]
    return np.where(stuck, frozen[None, :], after), delivered & ~stuck


@dataclass(frozen=True)
class _SingleLevelVecPlan:
    """Receiver-independent numpy views of a :class:`_SingleLevelPlan`.

    Gated records (*offers*) form one contiguous run per interval;
    ``group_order``/``group_starts`` list duplicate ``(interval,
    source)`` copies together when any exist (``None`` otherwise).
    """

    offer_rows: np.ndarray
    discard_rows: np.ndarray
    run_starts: np.ndarray
    run_ends: np.ndarray
    run_id: np.ndarray
    run_intervals: np.ndarray
    offer_intervals: np.ndarray
    offer_authentic: np.ndarray
    offer_forged_valid: np.ndarray
    group_order: Optional[np.ndarray]
    group_starts: Optional[np.ndarray]
    auth_rows: np.ndarray
    auth_index: np.ndarray
    fills_at_auth: np.ndarray
    forged_rows: np.ndarray
    forged_index: np.ndarray
    forged_ids: List[int]
    auth_before_forged: np.ndarray


def _single_level_precompute(plan: _SingleLevelPlan) -> _SingleLevelVecPlan:
    """Lay out a single-level plan for the array replay.

    Verifies the facts the replay's exactness rests on: each
    interval's gated records form one contiguous run, authentic
    disclosure indices never decrease in slot order, and every gated
    record of interval ``i`` arrives no later than the first authentic
    disclosure of an index ``>= i`` (so a bucket is complete before any
    key can flush it, and the trusted anchor is a running maximum).

    Raises:
        SimulationError: if the plan violates any of these facts.
    """
    rec = np.asarray(plan.rec_interval, dtype=np.int64)
    src = np.asarray(plan.rec_source, dtype=np.int64)
    gate = np.asarray(plan.gate, dtype=bool)
    disc = np.asarray(plan.disc_index, dtype=np.int64)
    forged = np.asarray(plan.disc_forged, dtype=np.int64)
    offer_rows = np.nonzero((rec >= 1) & gate)[0]
    offer_intervals = rec[offer_rows]
    run_starts, run_ends, run_id, run_intervals = _offer_runs(
        offer_intervals, "single-level plan"
    )
    auth_rows = np.nonzero((disc >= 1) & (forged < 0))[0]
    auth_index = disc[auth_rows]
    if np.any(np.diff(auth_index) < 0):
        raise SimulationError(
            "single-level plan: authentic disclosure indices decrease"
        )
    first_flush = np.searchsorted(auth_index, offer_intervals)
    flushable = first_flush < auth_rows.size
    late = offer_rows[flushable] > auth_rows[first_flush[flushable]]
    if late.any():
        row = int(offer_rows[flushable][late][0])
        raise SimulationError(
            f"single-level plan: gated record at slot {row} arrives after"
            " its interval's key can be trusted"
        )
    offer_sources = src[offer_rows]
    offer_authentic = offer_sources >= 0
    forged_valid = np.asarray(plan.forged_valid + [False], dtype=bool)
    offer_forged_valid = ~offer_authentic & forged_valid[
        np.where(offer_authentic, -1, -1 - offer_sources)
    ]
    # Duplicate copies of one (interval, source) verify as one record.
    group_order, group_starts = _duplicate_groups(
        offer_intervals, offer_sources
    )
    forged_rows = np.nonzero(forged >= 0)[0]
    return _SingleLevelVecPlan(
        offer_rows=offer_rows,
        discard_rows=np.nonzero((rec >= 1) & ~gate)[0],
        run_starts=run_starts,
        run_ends=run_ends,
        run_id=run_id,
        run_intervals=run_intervals,
        offer_intervals=offer_intervals,
        offer_authentic=offer_authentic,
        offer_forged_valid=offer_forged_valid,
        group_order=group_order,
        group_starts=group_starts,
        auth_rows=auth_rows,
        auth_index=auth_index,
        fills_at_auth=np.searchsorted(offer_rows, auth_rows, side="right"),
        forged_rows=forged_rows,
        forged_index=disc[forged_rows],
        forged_ids=[int(f) for f in forged[forged_rows].tolist()],
        auth_before_forged=np.searchsorted(auth_rows, forged_rows),
    )


def _forged_anchor_hits(
    plan: _SingleLevelPlan, forged_id: int, index: int, lowest: int
) -> Set[int]:
    """Anchors ``a`` in ``[lowest, index]`` onto which the forged
    disclosure's candidate back-walks (``F^(index-a)(candidate) ==
    K_a``) — empty outside a 2^-80 collision."""
    function = OneWayFunction("F")
    chain_keys = plan.chain_keys
    cursor = plan.forged_keys[forged_id]
    hits: Set[int] = set()
    for anchor in range(index, lowest - 1, -1):
        if cursor == chain_keys[anchor]:
            hits.add(anchor)
        if anchor > lowest:
            cursor = function(cursor)
    return hits


def _replay_single_level(
    plan: _SingleLevelPlan,
    pre: _SingleLevelVecPlan,
    config: ScenarioConfig,
    delivered: np.ndarray,
) -> _Counts:
    """Keep-first buffering, anchor trajectories and flushes as arrays.

    Per receiver block, segmented cumulative sums rank each delivered
    gated record within its interval (the first ``buffers`` are
    stored; keep-first never draws, so neither engine builds a
    receiver stream). The trusted anchor is a running
    maximum over delivered authentic disclosures, and an interval's
    bucket is flushed iff the final anchor reaches it (its records all
    precede the first key that can). Peak occupancy is read at every
    authentic disclosure slot and at the end: fills so far minus the
    buckets the anchor has already released. Forged disclosures
    back-walk from their candidate only to the lowest anchor held,
    when they arrive, by a receiver in the block that got them.
    """
    capacity = config.buffers
    n_runs = int(pre.run_starts.size)
    total = delivered.shape[1]
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    widest = max(int(pre.offer_rows.size), int(pre.auth_rows.size), 1)
    block = _block_width(total, 64 << 20, 8 * widest)
    for b0 in range(0, total, block):
        blk = delivered[:, b0 : b0 + block]
        nb = blk.shape[1]
        cols = np.arange(nb)
        d_off = blk[pre.offer_rows]
        rank, counts = _run_ranks(d_off, pre.run_starts, pre.run_ends, pre.run_id)
        stored = d_off & (rank <= capacity)
        held = np.minimum(counts, capacity)

        d_auth = blk[pre.auth_rows]
        after, accepted = _anchor_trajectory(pre.auth_index, d_auth, _MAX_KEY_GAP)
        anchors = np.zeros((after.shape[0] + 1, nb), dtype=after.dtype)
        anchors[1:] = after
        final = anchors[-1]
        d_forged = blk[pre.forged_rows]
        weak = (d_auth & ~accepted).sum(axis=0) + d_forged.sum(axis=0)

        # Forged disclosures: walk each candidate down to the lowest
        # anchor held by a receiver here that got it (within the gap
        # bound); one nobody got is not walked at all.
        if pre.forged_rows.size:
            held_at = anchors[pre.auth_before_forged]
            lowest = np.where(
                d_forged, held_at, np.iinfo(held_at.dtype).max
            ).min(axis=1).tolist()
            for f, (index, forged_id) in enumerate(
                zip(pre.forged_index.tolist(), pre.forged_ids)
            ):
                low = max(lowest[f], index - _MAX_KEY_GAP)
                if low > index:
                    continue
                hits = _forged_anchor_hits(plan, forged_id, index, low)
                if hits and any(
                    d_forged[f, r] and low <= held_at[f, r] <= index
                    and int(held_at[f, r]) in hits
                    for r in range(nb)
                ):
                    raise ConfigurationError(
                        "forged key disclosure back-walked to the trusted"
                        " chain (2^-80 collision) — replay cannot mirror a"
                        " corrupted trust anchor"
                    )

        flushed = stored & (pre.offer_intervals[:, None] <= final[None, :])
        first = flushed
        if pre.group_order is not None:
            first = flushed & _group_first(d_off, pre.group_order, pre.group_starts)
        authentic = pre.offer_authentic[:, None]
        valid = pre.offer_forged_valid[:, None]
        facc = (flushed & valid).sum(axis=0)
        auth = (first & authentic).sum(axis=0) + facc
        rejected = (flushed & ~authentic & ~valid).sum(axis=0)

        # Occupancy = fills so far - held records of released buckets.
        fills = np.zeros((d_off.shape[0] + 1, nb), dtype=np.int32)
        np.cumsum(stored, axis=0, dtype=np.int32, out=fills[1:])
        released = np.zeros((n_runs + 1, nb), dtype=np.int32)
        np.cumsum(held, axis=0, out=released[1:])
        at_auth = fills[pre.fills_at_auth] - released[
            np.searchsorted(pre.run_intervals, anchors[:-1], side="right"), cols
        ]
        at_end = fills[-1] - released[
            np.searchsorted(pre.run_intervals, final, side="right"), cols
        ]
        peak = np.maximum(at_end, at_auth.max(axis=0, initial=0))

        zeros = [0] * nb
        for column, values in zip(out, (
            auth.tolist(), zeros, rejected.tolist(), weak.tolist(),
            blk[pre.discard_rows].sum(axis=0).tolist(), facc.tolist(),
            blk.sum(axis=0).tolist(), (peak * _RECORD_BITS).tolist(),
        )):
            column.extend(values)
    return out  # type: ignore[return-value]


@dataclass(frozen=True)
class _MultiLevelVecPlan:
    """Receiver-independent numpy views of a :class:`_MultiLevelPlan`.

    CDM slots are grouped by high interval (``cdm_bounds[h]`` to
    ``cdm_bounds[h + 1]``); ``hd_rows`` are the authentic CDM slots
    that disclose a high key. Gated data records form one run per flat
    sub-interval, and ``run_first_disc`` points each run at the first
    low disclosure that can release it; ``repeated_sources`` says
    whether any flat carries one source twice (only then do buckets
    need deduplicating). ``seen_rows`` lists, per data chain, every
    slot that makes a receiver aware of that chain.
    """

    slots: int
    cdm_rows: np.ndarray
    cdm_authentic: np.ndarray
    cdm_gate: np.ndarray
    cdm_entry: np.ndarray
    cdm_bounds: List[int]
    pin_suspect: Optional[np.ndarray]
    mac_valid: Optional[np.ndarray]
    hd_rows: np.ndarray
    hd_index: np.ndarray
    data_rows: np.ndarray
    discard_rows: np.ndarray
    run_starts: np.ndarray
    run_ends: np.ndarray
    run_id: np.ndarray
    run_chain_pos: np.ndarray
    repeated_sources: bool
    disc_rows: np.ndarray
    disc_chain: np.ndarray
    run_first_disc: np.ndarray
    chains: np.ndarray
    chain_commit_high: np.ndarray
    seen_rows: np.ndarray
    seen_starts: np.ndarray
    pinning: List[bool]


def _multilevel_precompute(plan: _MultiLevelPlan) -> _MultiLevelVecPlan:
    """Lay out a multi-level plan for the array replay.

    Verifies the facts the replay's exactness rests on: CDM slots
    arrive in non-decreasing high order, and disclosed high indices
    and low disclosures in non-decreasing order; every CDM of high
    ``h`` arrives before the first high disclosure of an index
    ``>= h``; each flat's gated data records form one contiguous run,
    all before the first low disclosure of that flat or a later one.
    So every bucket is complete before any key can release it, and
    trusted anchors are running maxima.

    Raises:
        SimulationError: if the plan violates any of these facts.
    """
    kinds = np.asarray(plan.kinds, dtype=np.int64)
    index = np.asarray(plan.index, dtype=np.int64)
    sources = np.asarray(plan.sources, dtype=np.int64)
    gate = np.asarray(plan.gate, dtype=bool)
    disc = np.asarray(plan.disc_index, dtype=np.int64)
    lph = plan.low_per_high

    cdm_rows = np.nonzero(kinds == _CDM)[0]
    cdm_high = index[cdm_rows]
    if np.any(np.diff(cdm_high) < 0):
        raise SimulationError("multi-level plan: CDM highs decrease")
    n_high = int(cdm_high.max(initial=0))
    cdm_bounds = np.searchsorted(cdm_high, np.arange(n_high + 2)).tolist()
    cdm_entry = sources[cdm_rows]
    cdm_authentic = cdm_entry < 0
    hd_mask = cdm_authentic & (disc[cdm_rows] >= 1)
    hd_rows = cdm_rows[hd_mask]
    hd_index = disc[hd_rows]
    if np.any(np.diff(hd_index) < 0):
        raise SimulationError("multi-level plan: disclosed high indices decrease")
    first_release = np.searchsorted(hd_index, cdm_high)
    releasable = first_release < hd_rows.size
    if np.any(cdm_rows[releasable] > hd_rows[first_release[releasable]]):
        raise SimulationError(
            "multi-level plan: a CDM arrives after its high key is disclosed"
        )
    forged_ids = np.where(cdm_authentic, 0, cdm_entry)
    pin_match = np.asarray(plan.forged_pin_match + [False], dtype=bool)
    pin_suspect = ~cdm_authentic & pin_match[forged_ids]
    mac_valid = np.asarray(plan.forged_mac_valid, dtype=bool)

    disc_rows = np.nonzero(kinds == _DISC)[0]
    disc_flat = index[disc_rows]
    if np.any(np.diff(disc_flat) < 0):
        raise SimulationError("multi-level plan: low disclosures decrease")
    is_data = kinds == _DATA
    data_rows = np.nonzero(is_data & gate)[0]
    data_flat = index[data_rows]
    run_starts, run_ends, run_id, run_flat = _offer_runs(
        data_flat, "multi-level plan"
    )
    first_disc = np.searchsorted(disc_flat, data_flat)
    releasable = first_disc < disc_rows.size
    if np.any(data_rows[releasable] > disc_rows[first_disc[releasable]]):
        raise SimulationError(
            "multi-level plan: gated data record arrives after its"
            " sub-interval key can be trusted"
        )

    run_chain = (run_flat - 1) // lph + 1
    chains = np.unique(run_chain)
    # Every slot that adds a chain to the receiver's chains_seen: its
    # data records (gated or not), its low disclosures, and any CDM of
    # the previous high.
    all_data = np.nonzero(is_data)[0]
    seen_chain = np.concatenate((
        (index[all_data] - 1) // lph + 1,
        (disc_flat - 1) // lph + 1,
        cdm_high + 1,
    ))
    seen_row = np.concatenate((all_data, disc_rows, cdm_rows))
    keep = np.isin(seen_chain, chains)
    order = np.lexsort((seen_row[keep], seen_chain[keep]))
    seen_rows = seen_row[keep][order]
    seen_starts = np.searchsorted(seen_chain[keep][order], chains)
    commit_high = chains - 1
    present = np.array(
        [plan.commitment_present.get(int(h), False) for h in commit_high],
        dtype=bool,
    )
    return _MultiLevelVecPlan(
        slots=len(plan.kinds),
        cdm_rows=cdm_rows,
        cdm_authentic=cdm_authentic,
        cdm_gate=gate[cdm_rows],
        cdm_entry=cdm_entry,
        cdm_bounds=cdm_bounds,
        pin_suspect=pin_suspect if pin_suspect.any() else None,
        mac_valid=mac_valid if mac_valid.any() else None,
        hd_rows=hd_rows,
        hd_index=hd_index,
        data_rows=data_rows,
        discard_rows=np.nonzero(is_data & ~gate)[0],
        run_starts=run_starts,
        run_ends=run_ends,
        run_id=run_id,
        run_chain_pos=np.searchsorted(chains, run_chain),
        repeated_sources=(
            _duplicate_groups(data_flat, sources[data_rows])[0] is not None
        ),
        disc_rows=disc_rows,
        disc_chain=(disc_flat - 1) // lph + 1,
        run_first_disc=np.searchsorted(disc_flat, run_flat),
        chains=chains,
        chain_commit_high=np.where(present, commit_high, 0),
        seen_rows=seen_rows,
        seen_starts=seen_starts,
        pinning=[
            plan.has_next_hash.get(h, False) for h in range(n_high + 1)
        ],
    )


def _first_at_or_after(
    hit: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``(len(starts), receivers)`` position of the first ``True`` row of
    ``hit`` at or after each start (``len(hit)`` when there is none)."""
    rows = hit.shape[0]
    nxt = np.full((rows + 1, hit.shape[1]), rows, dtype=np.int64)
    nxt[:rows] = np.where(hit, np.arange(rows)[:, None], rows)
    nxt = np.minimum.accumulate(nxt[::-1], axis=0)[::-1]
    return nxt[starts]


def _peak_occupancy(
    slots: int, fill_rows: np.ndarray, fills: np.ndarray,
    release_rows: np.ndarray, releases: np.ndarray,
) -> np.ndarray:
    """Per-receiver peak of a pool's occupancy over the slot timeline.

    ``fills`` (per ``fill_rows`` slot) land before ``releases`` (a
    ``(buckets, receivers)`` matrix released at ``release_rows``, where
    ``slots`` means never) within one slot, as in the DES receiver.
    """
    nb = fills.shape[1]
    added = np.zeros((slots + 1, nb), dtype=np.int64)
    added[fill_rows] = fills
    removed = np.zeros(((slots + 1) * nb,), dtype=np.int64)
    flat_index = (release_rows * nb + np.arange(nb)[None, :]).ravel()
    removed += np.bincount(
        flat_index, weights=releases.ravel(), minlength=removed.size
    ).astype(np.int64)
    removed = removed.reshape(slots + 1, nb)
    level = np.cumsum(added, axis=0) - np.cumsum(removed, axis=0) + removed
    return level.max(axis=0, initial=0)


def _replay_multilevel(
    plan: _MultiLevelPlan,
    pre: _MultiLevelVecPlan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Two-level buffering, anchors and commitment recovery as arrays.

    Per receiver block: the high anchor is a running maximum over
    delivered high disclosures, which fixes when each CDM bucket is
    released and when each chain's commitment can be recovered. A loop
    over high intervals, with numpy across the block, decides the EDRP
    pin acceptances (a pinned high accepts its first authentic copy
    after the pin and buffers nothing more) and ranks every CDM offer.
    Overflow offers of both pools — rank past capacity — replay the
    shared per-receiver stream in delivery order through one
    :class:`~repro.sim.draws.ReceiverStreams` per block; with hash
    pinning, the draws of a high are settled (a resumed
    :meth:`~repro.sim.draws.ReceiverStreams.overflow` call on the same
    streams) before its acceptance feeds the next high's pin. A chain's
    commitment time is the earlier of its CDM acceptance and its
    recovery; a flat's data bucket is released when that commitment and
    its first delivered low disclosure are both in, and counted unless
    a CDM acceptance released it.
    """
    cdm_capacity = config.buffers
    data_capacity = _LOW_BUFFER_CAPACITY
    never = pre.slots
    n_high = len(pre.cdm_bounds) - 2
    n_runs = int(pre.run_starts.size)
    offset = plan.anchor_offset
    top_high = max(n_high, int(pre.chains.max(initial=0)) + offset)
    hd_pad = np.append(pre.hd_rows, never)
    disc_pad = np.append(pre.disc_rows, never)
    disc_chain_pad = np.append(pre.disc_chain, -1)
    # Overflow replacements are keyed per receiver: CDM buckets first,
    # then data runs, one slot per buffered position.
    data_key0 = (n_high + 1) * cdm_capacity
    slot_cols = np.arange(cdm_capacity)

    total = len(seeds)
    out: Tuple[List[int], ...] = ([], [], [], [], [], [], [], [])
    # The occupancy timelines are (slots x block) int64, several at
    # once: half the two-phase budget keeps them, the draw kernel's
    # lane state and its survivor table to a few dozen MiB.
    widest = max(pre.slots, (n_high + 1) * cdm_capacity, n_runs * data_capacity, 1)
    block = _block_width(
        total,
        32 << 20,
        8 * widest + STREAM_BYTES_PER_LANE + 4 * (data_key0 + n_runs * data_capacity),
    )
    for b0 in range(0, total, block):
        blk = delivered[:, b0 : b0 + block]
        nb = blk.shape[1]
        cols = np.arange(nb)
        streams = ReceiverStreams(start + b0, seeds[b0 : b0 + nb])

        # --- high anchor and release times ---
        ht_after, valid = _anchor_trajectory(
            pre.hd_index, blk[pre.hd_rows], plan.high_gap_bound
        )
        n_hd = int(pre.hd_rows.size)
        span = top_high + 2
        keyed = (ht_after.T + (cols * span)[:, None]).ravel()
        queries = np.arange(1, top_high + 1)[None, :] + (cols * span)[:, None]
        # release[h - 1]: first high-disclosure position whose anchor
        # reaches h (n_hd when none does).
        release = (
            np.searchsorted(keyed, queries.ravel()).reshape(nb, top_high)
            - (cols * n_hd)[:, None]
        ).T
        release_row = hd_pad[release]

        # --- data pool ranks and overflow offers ---
        d_data = blk[pre.data_rows]
        d_rank, d_counts = _run_ranks(d_data, pre.run_starts, pre.run_ends, pre.run_id)
        d_stored = d_data & (d_rank <= data_capacity)
        d_held = np.minimum(d_counts, data_capacity)
        ov_c, ov_r = np.nonzero(d_data & ~d_stored)
        data_sources = np.asarray(plan.sources, dtype=np.int64)[pre.data_rows]
        pending = [(
            pre.data_rows[ov_c], ov_r, data_capacity / d_rank[ov_c, ov_r],
            np.full(ov_c.size, data_capacity),
            data_key0 + pre.run_id[ov_c] * data_capacity, data_sources[ov_c],
        )]
        # Final data buckets matter only for deduplicating repeated
        # sources; otherwise every held record is distinct.
        fin_data: Optional[np.ndarray] = None
        if pre.repeated_sources:
            fin_data = np.full((nb, n_runs, data_capacity), -1, dtype=np.int64)
            st_c, st_r = np.nonzero(d_stored)
            fin_data[st_r, pre.run_id[st_c], d_rank[st_c, st_r] - 1] = data_sources[st_c]

        fin_cdm = np.full((nb, n_high + 1, cdm_capacity), -2, dtype=np.int64)
        cdm_held = np.zeros((n_high + 1, nb), dtype=np.int64)
        pinned_at = np.full((n_high + 2, nb), never, dtype=np.int64)
        pin_accept = np.full((n_high + 2, nb), never, dtype=np.int64)
        cdm_fill_rows: List[np.ndarray] = []
        cdm_fills: List[np.ndarray] = []

        def settle(upto: int) -> None:
            """Replay the pending overflow draws at slots <= ``upto`` in
            each receiver's delivery order; scatter the survivors."""
            taken = []
            kept = []
            for group in pending:
                due = group[0] <= upto
                taken.append(tuple(part[due] for part in group))
                if not due.all():
                    kept.append(tuple(part[~due] for part in group))
            pending[:] = kept
            if not taken:
                return
            rows, recv, thr, cap, base, entry = (
                np.concatenate(parts) for parts in zip(*taken)
            )
            if not rows.size:
                return
            order = np.lexsort((rows, recv))
            lanes, slots, offers = streams.overflow(
                recv[order], thr[order], cap[order], base[order]
            )
            e = entry[order][offers]
            is_cdm = slots < data_key0
            fin_cdm.reshape(nb, -1)[lanes[is_cdm], slots[is_cdm]] = e[is_cdm]
            if fin_data is not None:
                is_data = ~is_cdm
                fin_data.reshape(nb, -1)[
                    lanes[is_data], slots[is_data] - data_key0
                ] = e[is_data]

        def accept_time(h: int) -> np.ndarray:
            """When high ``h`` enters cdm_auth: its pin acceptance, else
            the release of a bucket still holding an authentic copy."""
            held = slot_cols[None, :] < cdm_held[h][:, None]
            holds_auth = ((fin_cdm[:, h, :] == -1) & held).any(axis=1)
            late = np.where(holds_auth, release_row[h - 1], never)
            return np.where(pin_accept[h] < never, pin_accept[h], late)

        # --- CDM pool: one pass per high interval ---
        for h in range(1, n_high + 1):
            c0, c1 = pre.cdm_bounds[h], pre.cdm_bounds[h + 1]
            if c0 == c1:
                continue
            rows = pre.cdm_rows[c0:c1]
            d = blk[rows]
            offers = d & pre.cdm_gate[c0:c1, None]
            if pre.pinning[h - 1]:
                pin = pinned_at[h]
                after_pin = rows[:, None] > pin[None, :]
                first = d & pre.cdm_authentic[c0:c1, None] & after_pin
                found = first.any(axis=0)
                pin_accept[h] = np.where(
                    found, rows[np.argmax(first, axis=0)], never
                )
                before = rows[:, None] < pin_accept[h][None, :]
                if pre.pin_suspect is not None and (
                    d & pre.pin_suspect[c0:c1, None] & after_pin & before
                ).any():
                    raise ConfigurationError(
                        "forged CDM matched the EDRP hash pin"
                        " (2^-80 collision) — replay cannot mirror"
                        " a corrupted commitment"
                    )
                offers &= before
            rank = np.cumsum(offers, axis=0, dtype=np.int32)
            stored = offers & (rank <= cdm_capacity)
            cdm_held[h] = np.minimum(rank[-1], cdm_capacity)
            st_c, st_r = np.nonzero(stored)
            fin_cdm[st_r, h, rank[st_c, st_r] - 1] = pre.cdm_entry[c0 + st_c]
            cdm_fill_rows.append(rows)
            cdm_fills.append(stored)
            ov_c, ov_r = np.nonzero(offers & ~stored)
            if ov_c.size:
                pending.append((
                    rows[ov_c], ov_r, cdm_capacity / rank[ov_c, ov_r],
                    np.full(ov_c.size, cdm_capacity),
                    np.full(ov_c.size, h * cdm_capacity),
                    pre.cdm_entry[c0 + ov_c],
                ))
            if pre.pinning[h]:
                # The next high's pin lands when this one is accepted.
                settle(int(rows[-1]))
                pinned_at[h + 1] = accept_time(h)
        settle(never)

        # --- CDM acceptance, release and the collision fallback ---
        cdm_release = release_row[:n_high]
        accepted = np.full((n_high + 1, nb), never, dtype=np.int64)
        for h in range(1, n_high + 1):
            accepted[h] = accept_time(h)
        if pre.mac_valid is not None:
            # A buffered forged copy ahead of the first authentic one
            # would be verified first: a 2^-80 MAC collision.
            entries = fin_cdm[:, 1:, :]
            held = slot_cols[None, None, :] < cdm_held[1:].T[:, :, None]
            authentic = (entries == -1) & held
            first_auth = np.where(
                authentic.any(axis=2), np.argmax(authentic, axis=2), cdm_capacity
            )
            forged_ok = (entries >= 0) & held & pre.mac_valid[np.maximum(entries, 0)]
            ahead = (forged_ok & (slot_cols[None, None, :] < first_auth[:, :, None])).any(axis=2)
            unpinned = pin_accept[1 : n_high + 1].T >= never
            if (ahead & unpinned & (cdm_release.T < never)).any():
                raise ConfigurationError(
                    "forged CDM passed MAC verification (2^-80"
                    " collision) — replay cannot mirror a"
                    " corrupted commitment"
                )

        # --- commitments: CDM acceptance vs recovery from the anchor ---
        seen = np.minimum.reduceat(
            np.where(blk[pre.seen_rows], pre.seen_rows[:, None], never),
            pre.seen_starts, axis=0,
        ) if pre.seen_rows.size else np.full((pre.chains.size, nb), never)
        next_valid = _first_at_or_after(valid, np.arange(n_hd + 1))
        reach = release[pre.chains + offset - 1]
        recovered_at = hd_pad[
            next_valid[np.maximum(np.searchsorted(pre.hd_rows, seen), reach), cols]
        ]
        by_cdm = accepted[pre.chain_commit_high]
        committed = np.minimum(by_cdm, recovered_at)
        recovered = recovered_at < by_cdm
        bootstrap = pre.chains == 1
        committed[bootstrap] = -1
        recovered[bootstrap] = True

        # --- data buckets: released by commitment + low disclosure ---
        first_disc = _first_at_or_after(blk[pre.disc_rows], pre.run_first_disc)
        run_chain = pre.chains[pre.run_chain_pos]
        disclosed = np.where(
            disc_chain_pad[first_disc] == run_chain[:, None],
            disc_pad[first_disc], never,
        )
        commit = committed[pre.run_chain_pos]
        released = (disclosed < never) & (commit < never)
        counted = released & ((disclosed > commit) | recovered[pre.run_chain_pos])
        if fin_data is None:
            distinct = d_held
        else:
            ordered = np.sort(fin_data, axis=2)
            fresh = ordered >= 0
            fresh[:, :, 1:] &= ordered[:, :, 1:] != ordered[:, :, :-1]
            distinct = fresh.sum(axis=2).T
        auth = (distinct * counted).sum(axis=0)

        # --- peaks: fills before releases within a slot ---
        data_peak = _peak_occupancy(
            never, pre.data_rows, d_stored,
            np.where(released, np.maximum(disclosed, commit), never), d_held,
        )
        cdm_peak = _peak_occupancy(
            never,
            np.concatenate(cdm_fill_rows) if cdm_fill_rows else np.zeros(0, dtype=np.int64),
            np.concatenate(cdm_fills) if cdm_fills else np.zeros((0, nb), dtype=bool),
            cdm_release, cdm_held[1:],
        )

        zeros = [0] * nb
        for column, values in zip(out, (
            auth.tolist(), zeros, zeros, zeros,
            blk[pre.discard_rows].sum(axis=0).tolist(), zeros,
            blk.sum(axis=0).tolist(),
            (cdm_peak * _CDM_BITS + data_peak * _RECORD_BITS).tolist(),
        )):
            column.extend(values)
    return out  # type: ignore[return-value]


def _replay_span(
    plan: _Plan,
    config: ScenarioConfig,
    start: int,
    seeds: Sequence[int],
    delivered: np.ndarray,
) -> _Counts:
    """Replay receivers ``[start, start + len(seeds))`` against their
    delivery slice (``start`` keys per-receiver local-key derivation)."""
    if isinstance(plan, _TwoPhasePlan):
        return _replay_two_phase_vectorized(
            plan, _two_phase_precompute(plan), config, start, seeds, delivered
        )
    if isinstance(plan, _SingleLevelPlan):
        return _replay_single_level(
            plan, _single_level_precompute(plan), config, delivered
        )
    return _replay_multilevel(
        plan, _multilevel_precompute(plan), config, start, seeds, delivered
    )


# ---------------------------------------------------------------------------
# Sharded execution.


def _run_shard(task: Tuple[Any, ...]) -> Tuple[int, int, _Counts]:
    """Worker entry point: attach the shared delivery mask, replay one
    receiver shard, detach. Module-level so process pools can pickle it."""
    plan, config, start, stop, seeds, shm_name, slots, row_bytes = task
    if shm_name is None:
        raise ConfigurationError("shard task carries no shared-memory block")
    block = _attach_shared(shm_name)
    try:
        packed = np.ndarray(
            (slots, row_bytes), dtype=np.uint8, buffer=block.buf
        )
        delivered = _shard_delivered(packed, start, stop)
    finally:
        # Attach-side hygiene: close (never unlink — the parent owns
        # the block's lifetime).
        block.close()
    counts = _replay_span(plan, config, start, seeds, delivered)
    return start, stop, counts


def _attach_shared(name: str) -> shared_memory.SharedMemory:
    """Attach an existing shared-memory block without tracker churn."""
    try:
        # Python >= 3.13: opt out of the resource tracker on the attach
        # side; the creating process owns cleanup.
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class _CountAccumulator:
    """Streaming reduction over per-shard counter blocks.

    ``nodes`` mode scatters each block into full-fleet arrays for an
    exact :class:`~repro.sim.metrics.FleetSummary`; ``aggregate`` mode
    folds each block into a fixed-size
    :class:`~repro.sim.metrics.FleetAggregate` and forgets it, so peak
    memory tracks one shard regardless of receiver count.
    """

    def __init__(self, receivers: int, sent_authentic: int, mode: str) -> None:
        self._mode = mode
        self._sent = sent_authentic
        if mode == "nodes":
            self._columns = [
                np.zeros(receivers, dtype=np.int64) for _ in range(8)
            ]
        else:
            self._aggregate = FleetAggregate.empty(sent_authentic)

    def fold(self, start: int, stop: int, counts: _Counts) -> None:
        if self._mode == "nodes":
            for column, values in zip(self._columns, counts):
                column[start:stop] = values
            return
        (auth, lost, rejf, weak, disc, facc, recv, peak) = counts
        shard = FleetAggregate(
            node_count=stop - start,
            sent_authentic=self._sent,
            total_authenticated=sum(auth),
            total_lost_no_record=sum(lost),
            total_rejected_forged=sum(rejf),
            total_rejected_weak_auth=sum(weak),
            total_discarded_unsafe=sum(disc),
            total_forged_accepted=sum(facc),
            total_packets_received=sum(recv),
            peak_buffer_bits=max(peak, default=0),
        )
        self._aggregate = self._aggregate.merged_with(shard)

    def result(self, receivers: int) -> FleetSummary | FleetAggregate:
        if self._mode == "nodes":
            names = [f"recv-{r}" for r in range(receivers)]
            return fleet_summary_from_arrays(
                names, *self._columns, sent_authentic=self._sent
            )
        return self._aggregate


def _phase(name: str) -> ContextManager[None]:
    """Time a run phase into the active perf registry (free when no
    registry is collecting)."""
    active = perf.ACTIVE
    return active.timer(name) if active is not None else nullcontext()


def _replay_shards(
    plan: _Plan,
    config: ScenarioConfig,
    spans: List[Tuple[int, int]],
    receiver_seeds: List[int],
    packed: np.ndarray,
    accumulator: _CountAccumulator,
    executor: Optional[Executor],
) -> None:
    """Replay every shard and fold it, in-process or (given a parallel
    ``executor``) over shared memory."""
    slots = packed.shape[0]
    if executor is not None:
        block = shared_memory.SharedMemory(create=True, size=packed.nbytes)
        track_resource(
            "shm", block.name, f"fleet delivery mask ({packed.nbytes} bytes)"
        )
        try:
            shared_view = np.ndarray(
                packed.shape, dtype=np.uint8, buffer=block.buf
            )
            shared_view[:] = packed
            row_bytes = packed.shape[1]
            tasks = tuple(
                (
                    plan,
                    config,
                    start,
                    stop,
                    receiver_seeds[start:stop],
                    block.name,
                    slots,
                    row_bytes,
                )
                for start, stop in spans
            )
            spec = ExperimentSpec.over(
                _run_shard,
                tasks,
                label=f"fleet[{config.protocol}]",
                task_labels=[f"shard[{a}:{b}]" for a, b in spans],
            )
            for _index, result in executor.stream(spec):
                start, stop, counts = result
                accumulator.fold(start, stop, counts)
        finally:
            # Create-side hygiene: the block must disappear even when a
            # shard fails mid-stream.
            block.close()
            block.unlink()
            release_resource("shm", block.name)
    else:
        for start, stop in spans:
            delivered = _shard_delivered(packed, start, stop)
            counts = _replay_span(
                plan, config, start, receiver_seeds[start:stop], delivered
            )
            accumulator.fold(start, stop, counts)


def run_fleet_scenario(
    config: ScenarioConfig,
    *,
    shards: int = 1,
    executor: Optional[Executor] = None,
    summary: str = "nodes",
) -> ScenarioResult:
    """Vectorized equivalent of :func:`~repro.sim.scenario.run_scenario`.

    Args:
        config: the scenario to run (any catalog protocol family).
        shards: receiver-axis shards (``shard_plan`` ranges; clamped to
            the receiver count). With ``shards == 1`` the replay runs
            inline.
        executor: optional :class:`~repro.engine.executors.Executor`
            to fan shards out on. Parallel executors receive the
            bit-packed delivery mask via ``multiprocessing``
            shared memory (one copy for the whole pool); serial (or
            no) executors replay shard slices in-process. Results are
            folded as they stream in, whichever order they finish.
        summary: ``"nodes"`` for an exact per-receiver
            :class:`~repro.sim.metrics.FleetSummary` (byte-identical to
            the DES), ``"aggregate"`` for a fixed-size
            :class:`~repro.sim.metrics.FleetAggregate` whose memory
            does not grow with the fleet.

    Raises:
        ConfigurationError: for protocol families outside
            :data:`SUPPORTED_PROTOCOLS` (callers should fall back to
            the DES — ``run_scenario`` does this automatically), or
            invalid ``shards`` / ``summary`` values.
    """
    if not supports(config):
        raise ConfigurationError(
            f"vectorized engine does not support protocol {config.protocol!r};"
            f" supported: {SUPPORTED_PROTOCOLS}"
        )
    if summary not in ("nodes", "aggregate"):
        raise ConfigurationError(
            f"summary must be 'nodes' or 'aggregate', got {summary!r}"
        )
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    shards = min(shards, config.receivers)

    seeds = SeedLadder(config.seed)
    schedule = IntervalSchedule(0.0, config.interval_duration)
    sync = LooseTimeSync(config.max_offset)
    workload = workload_for(config)
    receiver_seeds = seeds.receiver_seeds(config.receivers)

    with _phase("fleet.plan"):
        plan = _build_plan(config, schedule, sync, workload, seeds)
    slots = len(plan.times)
    with _phase("fleet.mask"):
        packed, delivered_any, delivered_total = _packed_delivery_mask(
            config, slots, seeds.medium
        )

    accumulator = _CountAccumulator(
        config.receivers, plan.sent_authentic, summary
    )
    spans = shard_plan(config.receivers, shards)
    parallel = executor is not None and executor.jobs > 1 and len(spans) > 1
    with _phase(f"fleet.replay.{config.protocol}"):
        _replay_shards(
            plan, config, spans, receiver_seeds, packed, accumulator,
            executor if parallel else None,
        )
    fleet = accumulator.result(config.receivers)

    total_bits = plan.legitimate_bits + plan.forged_bits
    forged_fraction = plan.forged_bits / total_bits if total_bits else 0.0

    horizon = schedule.end_of(config.intervals) + 2 * config.interval_duration
    simulated = horizon
    if delivered_any.any():
        last_arrival = (
            float(plan.times[delivered_any].max()) + config.link_delay
        )
        if last_arrival > horizon:
            simulated = last_arrival

    active = perf.ACTIVE
    if active is not None:
        active.incr("sim.broadcasts", slots)
        active.incr("sim.deliveries", delivered_total)
        active.incr("sim.drops", slots * config.receivers - delivered_total)

    return ScenarioResult(
        config=config,
        fleet=fleet,
        sent_authentic=plan.sent_authentic,
        forged_bandwidth_fraction=forged_fraction,
        simulated_seconds=simulated,
        nodes=(),
    )
