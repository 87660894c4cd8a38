"""The benchmark's four workloads.

Each workload turns the benchmark seed into its inputs (the program only
ever sees the generated configurations), exposes the operations one
timed pass runs, and the output checks that run after timing. Importing
this module imports nothing from the program and runs nothing; the
program is imported when a workload is built, which is part of set-up.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: In-process receiver-axis shards for fleet runs (no worker pool: the
#: reference machine has two cores, so a pool's timing spread would be
#: the scheduler's, not the program's).
FLEET_SHARDS = 2

#: Down-scaled copy of a fleet config that the DES oracle replays.
ORACLE_RECEIVERS = 8
ORACLE_INTERVALS = 200

#: LoadTestReport fields that are wall-clock measurements, not outputs.
SOAK_TIMING_FIELDS = ("wall_seconds", "packets_per_second", "latency_p50_us", "latency_p99_us")


class CheckFailed(Exception):
    """An output check found a wrong result."""


@dataclass
class OpResult:
    """What one timed operation produced.

    Attributes:
        units: work done (receiver deliveries, datagrams, solved cells).
        summary: the operation's deterministic output; every pass must
            reproduce the warm-up pass's summary exactly.
        samples_us: per-unit cost samples in microseconds, when the
            program measures them itself (the soak's decode-to-verify
            latencies); otherwise the harness uses wall time / units.
        counts: extra per-layer counts for the traced run.
    """

    units: int
    summary: Any
    samples_us: Optional[Sequence[float]] = None
    counts: Dict[str, float] = field(default_factory=dict)


Op = Tuple[str, Callable[[], OpResult]]
Check = Tuple[str, Callable[[], None]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Base: inputs from a seed, timed operations, output checks."""

    name = ""
    #: Nominal wall seconds of one pass on the 2-core reference host at
    #: the commit that defined the benchmark (its speed varies by up to
    #: 40%). It fixes how many passes a run times (``--seconds`` over
    #: this), so the sample count does not depend on the speed of the
    #: code under test.
    pass_seconds = 1.0

    def __init__(self) -> None:
        #: DES oracle time and deliveries, accumulated by the checks.
        self.oracle_s = 0.0
        self.oracle_deliveries = 0

    def ops(self) -> List[Op]:
        raise NotImplementedError

    def checks(self, results: List[OpResult]) -> List[Check]:
        """Checks over one pass's results (same order as :meth:`ops`)."""
        raise NotImplementedError

    def _des(self, config: Any) -> Any:
        """Run the discrete-event simulator as the correctness oracle."""
        from repro.sim.scenario import run_scenario

        started = time.perf_counter()
        result = run_scenario(replace(config, engine="des"))
        self.oracle_s += time.perf_counter() - started
        self.oracle_deliveries += sum(n.packets_received for n in result.fleet.nodes)
        return result


def _result_bytes(result: Any) -> bytes:
    """A scenario result's summary as bytes, for byte-for-byte comparison."""
    return repr(
        (
            result.fleet,
            result.sent_authentic,
            result.forged_bandwidth_fraction,
            result.simulated_seconds,
        )
    ).encode()


class _FleetWorkload(Workload):
    """Fleet-engine runs of a list of configs, one operation each."""

    def __init__(self, configs: List[Any]) -> None:
        super().__init__()
        from repro.sim import fleet

        self._fleet = fleet
        self.configs = configs

    def ops(self) -> List[Op]:
        return [(c.protocol, lambda c=c: self._run(c)) for c in self.configs]

    def _run(self, config: Any) -> OpResult:
        result = self._fleet.run_fleet_scenario(
            config, shards=FLEET_SHARDS, summary="aggregate"
        )
        aggregate = result.fleet
        return OpResult(
            units=aggregate.total_packets_received,
            summary=(
                aggregate,
                result.sent_authentic,
                result.forged_bandwidth_fraction,
                result.simulated_seconds,
            ),
        )

    def checks(self, results: List[OpResult]) -> List[Check]:
        checks: List[Check] = []
        for config, result in zip(self.configs, results):
            checks.append((f"{config.protocol}: no forged packet accepted",
                           lambda c=config, r=result: self._check_run(c, r)))
            checks.append((f"{config.protocol}: down-scaled run equals the DES",
                           lambda c=config: self._check_parity(c)))
        return checks

    @staticmethod
    def _check_run(config: Any, result: OpResult) -> None:
        aggregate = result.summary[0]
        _require(aggregate.total_forged_accepted == 0,
                 f"{aggregate.total_forged_accepted} forged packets accepted")
        _require(aggregate.node_count == config.receivers,
                 f"{aggregate.node_count} receivers summarised, {config.receivers} run")
        _require(result.units > 0, "no packet was delivered")

    def _check_parity(self, config: Any) -> None:
        small = replace(
            config,
            receivers=min(config.receivers, ORACLE_RECEIVERS),
            intervals=min(config.intervals, ORACLE_INTERVALS),
        )
        vectorized = self._fleet.run_fleet_scenario(
            small, shards=FLEET_SHARDS, summary="nodes"
        )
        des = self._des(small)
        _require(_result_bytes(vectorized) == _result_bytes(des),
                 "fleet engine summary differs from the DES")
        _require(des.fleet.total_forged_accepted == 0, "DES accepted a forged packet")


class FleetWide(_FleetWorkload):
    """fig5-t2 (p=0.5, Bernoulli loss 0.1, m=4, 40 intervals) at 10^4
    receivers, one protocol per replay family."""

    name = "fleet-wide"
    pass_seconds = 4.0
    protocols = ("dap", "tesla", "multilevel")

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.scenarios import get_scenario

        rng = random.Random(seed)
        base = get_scenario("fig5-t2").config
        receivers = 64 if smoke else 10_000
        super().__init__([
            replace(base, protocol=p, receivers=receivers, seed=rng.getrandbits(32))
            for p in self.protocols
        ])


class FleetStormLong(_FleetWorkload):
    """The three T3 storm catalog entries (p=0.8, Gilbert-Elliott loss,
    m=13) run long enough that the sender key chains are pebbled."""

    name = "fleet-storm-long"
    pass_seconds = 4.0
    scenarios = (
        "vehicular-beacon-storm-t3",
        "remote-id-storm-t3",
        "crowdsensing-edrp-storm-t3",
    )

    def __init__(self, seed: int, smoke: bool = False) -> None:
        from repro.crypto import PEBBLED_THRESHOLD
        from repro.scenarios import get_scenario

        rng = random.Random(seed)
        receivers, intervals = (4, 64) if smoke else (8, PEBBLED_THRESHOLD)
        super().__init__([
            replace(
                get_scenario(name).config,
                receivers=receivers,
                intervals=intervals,
                seed=rng.getrandbits(32),
            )
            for name in self.scenarios
        ])


class LoopbackSoak(Workload):
    """A closed-loop DAP soak over the loopback transport in virtual time."""

    name = "loopback-soak"
    pass_seconds = 2.7

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__()
        from repro.engine import SerialExecutor
        from repro.net import harness

        class Recording(SerialExecutor):
            """The default serial executor, keeping the shard results."""

            def run(self, spec: Any) -> List[Any]:
                self.results = super().run(spec)
                return self.results

        self._harness = harness
        self._executor_type = Recording
        self.config = harness.LoadTestConfig(
            transport="loopback",
            protocol="dap",
            receivers=4 if smoke else 64,
            shards=1,
            intervals=20 if smoke else 120,
            attack_fraction=0.5,
            loss_probability=0.1,
            seed=random.Random(seed).getrandbits(32),
            engine="des",
        )
        self.nodes: Tuple[Any, ...] = ()

    def ops(self) -> List[Op]:
        return [("dap", self._run)]

    def _run(self) -> OpResult:
        executor = self._executor_type()
        report = self._harness.run_loadtest(self.config, executor=executor)
        (soak,) = executor.results
        self.nodes = soak.fleet.nodes
        document = report.to_dict()
        for name in SOAK_TIMING_FIELDS:
            del document[name]
        return OpResult(
            units=report.datagrams_delivered,
            summary=document,
            samples_us=[latency * 1e6 for latency in soak.latencies],
            counts={"net.malformed": report.malformed},
        )

    def checks(self, results: List[OpResult]) -> List[Check]:
        (result,) = results
        return [
            ("soak: no forged packet accepted", lambda: self._check_run(result)),
            ("soak: fleet equals the DES node for node", self._check_parity),
        ]

    def _check_run(self, result: OpResult) -> None:
        report = result.summary
        _require(report["forged_accepted"] == 0,
                 f"{report['forged_accepted']} forged packets accepted")
        _require(report["receivers"] == self.config.receivers, "receiver count changed")
        _require(report["latency_samples"] > 0, "no decode-to-verify latency sampled")

    def _check_parity(self) -> None:
        des = self._des(self.config.scenario_for_shard(0))
        _require(tuple(des.fleet.nodes) == tuple(self.nodes),
                 "loopback soak differs from the DES")


class GameSweep(Workload):
    """Fig. 6-8 regeneration: regime bands at p=0.8 over m=1..100, then
    both Algorithm 3 modes over a 99-point open p grid; serial, no cache."""

    name = "game-sweep"
    pass_seconds = 2.5

    def __init__(self, seed: int, smoke: bool = False) -> None:
        super().__init__()
        from repro.analysis import costs, trajectories
        from repro.analysis.sweep import open_interval_grid
        from repro.game.parameters import paper_parameters

        self._costs_module = costs
        self._trajectories = trajectories

        rng = random.Random(seed)
        self.grid = open_interval_grid(
            0.0, 1.0, 9 if smoke else 99, margin=rng.uniform(0.004, 0.006)
        )
        self.band_base = paper_parameters(p=0.8, m=1, max_buffers=100)
        self.m_values = list(range(1, 101))
        self.cost_base = paper_parameters(p=0.5, m=1)

    def ops(self) -> List[Op]:
        return [
            ("regime_bands", self._bands),
            ("cost_curves.paper", lambda: self._costs("paper")),
            ("cost_curves.argmin", lambda: self._costs("argmin")),
        ]

    def _bands(self) -> OpResult:
        bands, labels = self._trajectories.regime_bands(self.band_base, self.m_values)
        return OpResult(
            units=len(self.m_values),
            summary=(tuple(bands), tuple(sorted(labels.items()))),
        )

    def _costs(self, selection: str) -> OpResult:
        curves = self._costs_module.cost_curves(self.cost_base, self.grid, selection)
        return OpResult(
            units=len(self.grid) * self.cost_base.max_buffers,
            summary=curves,
        )

    def checks(self, results: List[OpResult]) -> List[Check]:
        bands, paper, argmin = results
        return [
            ("Fig. 6 regime bands", lambda: self._check_bands(bands.summary[0])),
            ("game defense never costs more than the naive one",
             lambda: self._check_cheaper(paper.summary, argmin.summary)),
            ("argmin cost <= paper cost at every p",
             lambda: self._check_argmin(paper.summary, argmin.summary)),
        ]

    @staticmethod
    def _check_bands(bands: Tuple[Any, ...]) -> None:
        from repro.game.ess import EssType

        order = [band.ess_type for band in bands]
        _require(order == [EssType.CORNER_11, EssType.EDGE_1Y,
                           EssType.INTERIOR, EssType.EDGE_X1],
                 f"regime order {order}")
        # Paper: 1-11 / 12-17 / 18-54 / 55-100 (17 may move by one: Euler).
        _require(bands[0].m_max == 11, f"first band ends at {bands[0].m_max}")
        _require(abs(bands[1].m_max - 17) <= 1, f"second band ends at {bands[1].m_max}")
        _require(bands[2].m_max == 54, f"third band ends at {bands[2].m_max}")

    @staticmethod
    def _check_cheaper(paper: Any, argmin: Any) -> None:
        _require(paper.always_cheaper(), "paper-mode defense costs more than naive")
        _require(argmin.always_cheaper(), "argmin-mode defense costs more than naive")

    @staticmethod
    def _check_argmin(paper: Any, argmin: Any) -> None:
        _require(paper.attack_levels == argmin.attack_levels, "grids differ")
        for p, best, published in zip(paper.attack_levels, argmin.game_costs,
                                      paper.game_costs):
            _require(best <= published + 1e-9,
                     f"argmin cost {best} > paper cost {published} at p={p}")


WORKLOADS = {
    workload.name: workload
    for workload in (FleetWide, FleetStormLong, LoopbackSoak, GameSweep)
}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    """The named workload's inputs for ``seed`` (``smoke``: tiny sizes)."""
    return WORKLOADS[name](seed, smoke)
