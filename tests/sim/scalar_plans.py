"""The fleet engine's plan builders as they were before the plans were
laid out as arrays: one ``packets_for_interval`` call per interval, one
Python tuple per slot, a ``sorted`` by time, and one
:func:`~repro.sim.attacker.forged_bytes` call per injection.

Kept as the oracle ``tests/sim/test_scalar_plans.py`` pins the array
builders in :mod:`repro.sim.fleet` to, field by field.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.crypto.mac import INDEX_BITS, MacScheme
from repro.crypto.onewayfn import standard_functions
from repro.errors import ConfigurationError
from repro.protocols.dap import DapSender
from repro.protocols.messages import forged_message
from repro.protocols.mu_tesla import MuTeslaSender
from repro.protocols.multilevel import MultiLevelSender, _NO_COMMITMENT
from repro.protocols.packets import (
    FORGED,
    CdmPacket,
    KeyDisclosurePacket,
    MacAnnouncePacket,
    MuTeslaDataPacket,
    TeslaPacket,
)
from repro.protocols.tesla import TeslaSender
from repro.protocols.tesla_pp import TeslaPlusPlusSender
from repro.sim import fleet
from repro.sim.attacker import forged_bytes, forged_copies_for_fraction
from repro.sim.draws import SeedLadder
from repro.sim.scenario import ScenarioConfig, _seed_bytes
from repro.timesync.intervals import IntervalSchedule, TwoLevelSchedule
from repro.timesync.sync import LooseTimeSync, SecurityCondition


def build_two_phase_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: fleet._Workload,
    seeds: SeedLadder,
) -> fleet._TwoPhasePlan:
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
    announce_block = config.packets_per_interval * config.announce_copies
    # The workload's report cycle period, NOT config.sensing_tasks:
    # payload identity is what the DES's receivers actually compare, so
    # the grouping must follow the workload's own modulus.
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    entries: List[Tuple[float, int, int, int]] = []
    announce_macs: Dict[Tuple[int, int], bytes] = {}
    legitimate_bits = 0
    for interval in range(1, config.intervals + 1):
        start = schedule.start_of(interval)
        packets = list(sender.packets_for_interval(interval))
        spread = max(len(packets), 1)
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, MacAnnouncePacket):
                source = (position // config.announce_copies) % num_tasks
                announce_macs[(interval, source)] = packet.mac
                entries.append((time, fleet._ANNOUNCE, interval, source))
            else:
                source = (position - announce_block) % num_tasks
                entries.append((time, fleet._REVEAL, packet.index, source))

    forged_bits = 0
    forged_macs: List[bytes] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        copies = forged_copies_for_fraction(announce_block, config.attack_fraction)
        window = duration * config.attack_burst_fraction
        forged_wire_bits = MacAnnouncePacket(
            index=1, mac=b"\x00" * 10, provenance=FORGED
        ).wire_bits
        for interval in range(1, config.intervals + 1):
            start = schedule.start_of(interval)
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                entries.append((time, fleet._FORGED, interval, -1 - len(forged_macs)))
                # The factory draws 10 bytes per injection, in event
                # order (strictly increasing times within the attacker).
                forged_macs.append(forged_bytes(attacker_rng, 10))
                forged_bits += forged_wire_bits

    # Stable by construction: sender entries precede attacker entries in
    # the list, matching their scheduling sequence numbers.
    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    kinds = [entries[i][1] for i in order]
    intervals = [entries[i][2] for i in order]
    sources = [entries[i][3] for i in order]
    # The security gate is identical across receivers (zero skew, equal
    # constant delay): evaluate once per announce slot at arrival time.
    gate = (
        (np.array(kinds) == fleet._REVEAL)
        | condition.accepts_many(intervals, times + config.link_delay)
    ).tolist()
    reservoir = config.protocol == "dap"
    micro_bits = 24 if reservoir else 80
    return fleet._TwoPhasePlan(
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


def build_single_level_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: fleet._Workload,
    seeds: SeedLadder,
) -> fleet._SingleLevelPlan:
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
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    # entry: (time, rec_interval, rec_source, disc_index, forged_disc_id)
    entries: List[Tuple[float, int, int, int, int]] = []
    legitimate_bits = 0
    # (interval, source) -> (message, mac) representative, for the
    # batched verify_many pass below.
    authentic_reps: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
    for interval in range(1, config.intervals + 1):
        start = schedule.start_of(interval)
        packets = list(sender.packets_for_interval(interval))
        spread = max(len(packets), 1)
        data_copy = 0
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, KeyDisclosurePacket):
                entries.append((time, -1, 0, packet.index, -1))
                continue
            source = data_copy % num_tasks
            data_copy += 1
            authentic_reps.setdefault(
                (interval, source), (packet.message, packet.mac)
            )
            disc = -1
            if tesla and packet.disclosed_key is not None:
                disc = packet.disclosed_index
            entries.append((time, interval, source, disc, -1))

    forged_bits = 0
    # forged record k: (interval, message, mac); forged disclosure f:
    # (disc_index, candidate key bytes).
    forged_records: List[Tuple[int, bytes, bytes]] = []
    forged_disclosures: List[Tuple[int, bytes]] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        copies = forged_copies_for_fraction(
            config.packets_per_interval, config.attack_fraction
        )
        window = duration * config.attack_burst_fraction
        probe = (
            TeslaPacket(1, b"\x00" * 25, b"\x00" * 10, 0, b"\x00" * 10, FORGED)
            if tesla
            else MuTeslaDataPacket(1, b"\x00" * 25, b"\x00" * 10, FORGED)
        )
        for interval in range(1, config.intervals + 1):
            start = schedule.start_of(interval)
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                k = len(forged_records)
                # Factory draw order: MAC bytes, then (TESLA only) the
                # forged disclosed key — at injection-event time.
                mac = forged_bytes(attacker_rng, 10)
                forged_records.append(
                    (interval, forged_message(interval, copy), mac)
                )
                disc = -1
                forged_id = -1
                if tesla:
                    key = forged_bytes(attacker_rng, 10)
                    # The factory discloses interval-2 regardless of the
                    # configured delay (mirrors tesla_forgery_factory).
                    di = max(interval - 2, 0)
                    if di >= 1:
                        disc = di
                        forged_id = len(forged_disclosures)
                        forged_disclosures.append((di, key))
                entries.append((time, interval, -1 - k, disc, forged_id))
                forged_bits += probe.wire_bits

    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    rec_interval = [entries[i][1] for i in order]
    rec_source = [entries[i][2] for i in order]
    disc_index = [entries[i][3] for i in order]
    forged_disc_id = [entries[i][4] for i in order]
    rec = np.array(rec_interval)
    gate = (
        (rec < 1) | condition.accepts_many(rec, times + config.link_delay)
    ).tolist()

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
        sender.chain.key(i) for i in range(1, config.intervals + 1)
    ]
    forged_valid = [False] * len(forged_records)
    reps_by_interval: Dict[int, List[Tuple[int, Tuple[bytes, bytes]]]] = {}
    for (iv, src), pair in authentic_reps.items():
        reps_by_interval.setdefault(iv, []).append((src, pair))
    forged_by_interval: Dict[int, List[int]] = {}
    for k, (iv, _m, _mac) in enumerate(forged_records):
        forged_by_interval.setdefault(iv, []).append(k)
    for interval in range(1, config.intervals + 1):
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

    return fleet._SingleLevelPlan(
        times=times,
        rec_interval=rec_interval,
        rec_source=rec_source,
        forged_valid=forged_valid,
        gate=gate,
        disc_index=disc_index,
        disc_forged=forged_disc_id,
        forged_keys=[key for _di, key in forged_disclosures],
        chain_keys=chain_keys,
        legitimate_bits=legitimate_bits,
        forged_bits=forged_bits,
        sent_authentic=config.packets_per_interval * (config.intervals - delay),
    )


def build_multilevel_plan(
    config: ScenarioConfig,
    schedule: IntervalSchedule,
    sync: LooseTimeSync,
    workload: fleet._Workload,
    seeds: SeedLadder,
) -> fleet._MultiLevelPlan:
    """Timeline + outcome tables for multi-level μTESLA / EFTP / EDRP."""
    params = fleet._multilevel_params(config)
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
    num_tasks = workload.distinct_sources
    duration = schedule.duration
    # entry: (time, kind, index, source, disc_index)
    entries: List[Tuple[float, int, int, int, int]] = []
    legitimate_bits = 0
    cdm_by_high: Dict[int, CdmPacket] = {}
    data_reps: Dict[Tuple[int, int], Tuple[bytes, bytes]] = {}
    for flat in range(1, config.intervals + 1):
        start = schedule.start_of(flat)
        packets = list(sender.packets_for_interval(flat))
        spread = max(len(packets), 1)
        data_copy = 0
        for position, packet in enumerate(packets):
            time = start + duration * (position + 0.5) / spread
            legitimate_bits += packet.wire_bits
            if isinstance(packet, CdmPacket):
                cdm_by_high.setdefault(packet.high_index, packet)
                disc = (
                    packet.disclosed_index
                    if packet.disclosed_key is not None
                    else -1
                )
                entries.append((time, fleet._CDM, packet.high_index, -1, disc))
            elif isinstance(packet, MuTeslaDataPacket):
                source = data_copy % num_tasks
                data_copy += 1
                data_reps.setdefault(
                    (packet.index, source), (packet.message, packet.mac)
                )
                entries.append((time, fleet._DATA, packet.index, source, -1))
            else:
                entries.append((time, fleet._DISC, packet.index, 0, -1))

    forged_bits = 0
    # forged CDM k: (high, low_commitment, mac)
    forged_cdms: List[Tuple[int, bytes, bytes]] = []
    if config.attack_fraction > 0.0:
        attacker_rng = seeds.attacker()
        authentic_copies = max(config.cdm_copies // lph, 1)
        copies = forged_copies_for_fraction(
            authentic_copies, config.attack_fraction
        )
        window = duration * config.attack_burst_fraction
        probe = CdmPacket(1, b"\x00" * 10, b"\x00" * 10, 0, None, provenance=FORGED)
        for flat in range(1, config.intervals + 1):
            start = schedule.start_of(flat)
            high = (flat - 1) // lph + 1
            for copy in range(copies):
                time = start + window * (copy + 0.5) / max(copies, 1)
                # Factory draw order: commitment bytes, then MAC bytes.
                commitment = forged_bytes(attacker_rng, 10)
                mac = forged_bytes(attacker_rng, 10)
                entries.append((time, fleet._CDM, high, len(forged_cdms), -1))
                forged_cdms.append((high, commitment, mac))
                forged_bits += probe.wire_bits

    order = sorted(range(len(entries)), key=lambda i: entries[i][0])
    times = np.array([entries[i][0] for i in order], dtype=np.float64)
    kinds = [entries[i][1] for i in order]
    index = [entries[i][2] for i in order]
    sources = [entries[i][3] for i in order]
    disc_index = [entries[i][4] for i in order]
    arrivals = times + config.link_delay
    kind_array = np.array(kinds)
    gate = np.select(
        [kind_array == fleet._CDM, kind_array == fleet._DATA],
        [
            high_cond.accepts_many(index, arrivals),
            low_cond.accepts_many(index, arrivals),
        ],
        default=True,
    ).tolist()

    # Batched receiver-side verification tables. Data records: every
    # representative must verify under its sub-interval key. Forged
    # CDMs: verify_many under the targeted high key over the receiver's
    # payload reconstruction — any True is the 2^-80 collision path.
    mac_scheme = MacScheme()
    # One verify_many per flat interval (records share the sub-interval
    # key), not one single-pair call per record: the batch pays the
    # HMAC key-block setup once per slot. The perf registry's
    # ``crypto.mac.batches`` counter pins this shape in the tests.
    reps_by_flat: Dict[int, List[Tuple[int, Tuple[bytes, bytes]]]] = {}
    for (flat, source), pair in data_reps.items():
        reps_by_flat.setdefault(flat, []).append((source, pair))
    for flat in sorted(reps_by_flat):
        chain, sub = (flat - 1) // lph + 1, (flat - 1) % lph + 1
        key = sender.chain.low_key(chain, sub)
        group = reps_by_flat[flat]
        outcomes = mac_scheme.verify_many(key, [pair for _src, pair in group])
        for (source, _pair), ok in zip(group, outcomes):
            if not ok:
                raise ConfigurationError(
                    f"authentic data record failed MAC verification at flat"
                    f" interval {flat}, source {source}"
                )
    forged_mac_valid = [False] * len(forged_cdms)
    by_high: Dict[int, List[int]] = {}
    for k, (high, _c, _m) in enumerate(forged_cdms):
        by_high.setdefault(high, []).append(k)
    for high, ids in by_high.items():
        key = sender.chain.high_key(high)
        pairs = []
        for k in ids:
            _h, commitment, mac = forged_cdms[k]
            payload = b"|".join([high.to_bytes(4, "big"), commitment, b""])
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
        for high, packet in cdm_by_high.items():
            if packet.next_cdm_hash is not None:
                expected[high + 1] = packet.next_cdm_hash
        for k, (high, commitment, mac) in enumerate(forged_cdms):
            pin = expected.get(high)
            if pin is None:
                continue
            digest_payload = b"|".join(
                [high.to_bytes(4, "big"), commitment, b"", mac]
            )
            forged_pin_match[k] = hash_fn(digest_payload) == pin

    commitment_present = {
        high: packet.low_commitment != _NO_COMMITMENT
        for high, packet in cdm_by_high.items()
    }
    has_next_hash = {
        high: packet.next_cdm_hash is not None
        for high, packet in cdm_by_high.items()
    }

    return fleet._MultiLevelPlan(
        times=times,
        kinds=kinds,
        index=index,
        sources=sources,
        gate=gate,
        disc_index=disc_index,
        commitment_present=commitment_present,
        has_next_hash=has_next_hash,
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
