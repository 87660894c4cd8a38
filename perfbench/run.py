"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fleet-wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each in its own process

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``. Each run
builds the workload's inputs from ``--seed``, runs one untimed warm-up
pass, then a fixed number of timed passes: ``--seconds`` over the
workload's reference pass time (see ``Workload.pass_seconds``), so the
sample count does not depend on the speed of the code under test. The
figures come from the slow end of the passes (see
:func:`end_to_end_metrics`).
Set-up is the median of fresh processes, one before the warm-up and one
after each timed pass. Output checks run after the timed region. With
``--trace 0`` the metrics are the end-to-end ones declared in
``BENCHMARK.json``; with ``--trace 1`` one untraced pass is timed, the
public entry points of every layer are wrapped (see ``tracing.py``) for
the timed passes, and the per-layer metrics are reported instead. Spans
go to ``.perfbench/`` under the repository root.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every operation and check passed, 1 when one failed, 2 when the
program under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(1, str(ROOT / "src"))

from perfbench import workloads  # noqa: E402
from perfbench.tracing import Tracer, layer_patches  # noqa: E402

#: Fewest timed passes a run makes.
MIN_PASSES = 3


def benchmark_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{"end_to_end": {name: spec}, "per_layer": {name: spec}}``."""
    spec = benchmark_spec()
    return {
        kind: {metric["name"]: metric for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def pass_count(workload: workloads.Workload, seconds: float) -> int:
    """Timed passes for a run of ``seconds`` on the reference host."""
    return max(MIN_PASSES, round(seconds / workload.pass_seconds))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (the rule ``repro.net.harness`` uses)."""
    ordered = sorted(samples)
    return ordered[min(int(q / 100.0 * len(ordered)), len(ordered) - 1)]


class Pass:
    """One pass over a workload's operations."""

    def __init__(self) -> None:
        self.wall = 0.0
        self.results: List[Optional[workloads.OpResult]] = []
        self.cost_p50_us = 0.0
        self.cost_p99_us = 0.0
        self._costs_us: List[float] = []

    @property
    def units(self) -> int:
        return sum(r.units for r in self.results if r is not None)

    def add(self, result: Optional[workloads.OpResult], wall: float) -> None:
        """Record one operation and its per-unit cost samples: the
        program's own (the soak's decode-to-verify latencies) or else the
        operation's wall over its units."""
        self.results.append(result)
        if result is None or result.units <= 0:
            return
        if result.samples_us is None:
            self._costs_us.append(wall * 1e6 / result.units)
        else:
            self._costs_us.extend(result.samples_us)
            # Drop the raw samples: what the benchmark keeps should not
            # grow the peak RSS it reports.
            result.samples_us = None

    def finish(self, wall: float) -> None:
        self.wall = wall
        if self._costs_us:
            self.cost_p50_us = percentile(self._costs_us, 50.0)
            self.cost_p99_us = percentile(self._costs_us, 99.0)
        self._costs_us = []


def run_pass(workload: workloads.Workload, tracer: Optional[Tracer] = None) -> Pass:
    """Run every operation once; an operation that raises is recorded as None.

    The previous pass's garbage is collected first, outside the timing,
    so no pass pays for another's.
    """
    gc.collect()
    done = Pass()
    started = time.perf_counter()
    for label, op in workload.ops():
        op_started = time.perf_counter()
        try:
            if tracer is None:
                result = op()
            else:
                with tracer.span("bench.op"):
                    result = op()
                for name, amount in result.counts.items():
                    tracer.counters[name] += amount
        except Exception:
            print(f"operation {workload.name}/{label} raised:", file=sys.stderr)
            traceback.print_exc()
            result = None
        done.add(result, time.perf_counter() - op_started)
    done.finish(time.perf_counter() - started)
    return done


def timed_passes(
    workload: workloads.Workload,
    count: int,
    tracer: Optional[Tracer] = None,
    between: Optional[Callable[[], None]] = None,
) -> List[Pass]:
    """``count`` passes; ``between`` runs after each, outside its timing."""
    passes: List[Pass] = []
    for index in range(1, count + 1):
        if tracer is not None:
            tracer.pass_id = index
        passes.append(run_pass(workload, tracer))
        if between is not None:
            between()
    return passes


def run_checks(
    workload: workloads.Workload, reference: Pass, passes: List[Pass]
) -> Tuple[int, int]:
    """Output checks, outside the timed region: ``(attempted, failed)``."""
    checks: List[workloads.Check] = []
    for index, done in enumerate(passes, start=1):
        checks.append((
            f"pass {index} reproduces the warm-up outputs",
            lambda done=done: _same_outputs(reference, done),
        ))
    last = passes[-1].results
    if all(result is not None for result in last):
        # (An operation that raised is already counted as failed.)
        checks.extend(workload.checks(last))  # type: ignore[arg-type]
    failed = 0
    for label, check in checks:
        try:
            check()
        except Exception:
            failed += 1
            print(f"check failed: {workload.name}: {label}", file=sys.stderr)
            traceback.print_exc()
    return len(checks), failed


def _same_outputs(reference: Pass, done: Pass) -> None:
    expected = [r.summary if r is not None else None for r in reference.results]
    actual = [r.summary if r is not None else None for r in done.results]
    if None in expected or expected != actual:
        raise workloads.CheckFailed("outputs differ between passes")


def end_to_end_metrics(
    passes: List[Pass], setup_s: float, peak_rss_mb: float
) -> Dict[str, float]:
    """Run-level figures from the slow end of a fixed number of passes.

    Each pass gives its work per second and its per-unit cost
    percentiles. The 2-core reference host is shared and its speed moves
    by up to 40% for seconds to minutes; over sets of ten seeds per
    workload there, the slowest pass's figures spread 3-23% (IQR over
    median) where the median pass's spread 2-38%. So work per second and
    the p50 cost are the slowest pass's. The p99 cost is the second
    slowest pass's: it is a tail figure, so one disturbed pass moves it
    far more than it moves the pass's throughput or median (in one set
    of soak runs the worst pass's p99 spread 39% and its median moved
    26% from the set before). The pass count is fixed per workload
    (:func:`pass_count`), so the code under test does not choose how
    many passes the figures are taken over.
    """
    p99_costs = sorted(p.cost_p99_us for p in passes)
    return {
        "setup_s": setup_s,
        "work_per_s": min(p.units / p.wall for p in passes),
        "unit_cost_p50_us": max(p.cost_p50_us for p in passes),
        "unit_cost_p99_us": p99_costs[max(0, len(p99_costs) - 2)],
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    counters: Dict[str, int],
    passes: List[Pass],
    baseline_wall: float,
    workload: workloads.Workload,
) -> Dict[str, float]:
    """Per-pass layer figures from a traced run."""
    n = len(passes)
    c = tracer.counters
    out: Dict[str, float] = {}

    def timed(name: str, *fields: str) -> None:
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = tracer.calls(name) / n
            elif field == "s":
                out[f"{name}.s"] = tracer.inclusive_s(name) / n
            elif field == "self_s":
                out[f"{name}.self_s"] = tracer.self_s(name) / n
            else:
                out[f"{name}.{field}"] = c.get(f"{name}.{field}", 0.0) / n

    timed("fleet.run", "calls", "self_s")
    for protocol in ("dap", "tesla", "multilevel", "tesla_pp", "edrp"):
        prefix = f"fleet.run.{protocol}"
        out[f"{prefix}.ns_per_delivery"] = 1e9 * _ratio(
            c.get(f"{prefix}.s", 0.0), c.get(f"{prefix}.deliveries", 0.0)
        )
    out["fleet.mask.decisions"] = c.get("fleet.mask.decisions", 0.0) / n
    out["fleet.mask.bytes_computed"] = c.get("fleet.mask.bytes_computed", 0.0) / n
    out["fleet.mask.delivered_frac"] = _ratio(
        c.get("fleet.mask.delivered", 0.0), c.get("fleet.mask.decisions", 0.0)
    )
    timed("channel.bernoulli_mask", "s")
    timed("channel.ge_mask", "s")
    for name in ("crypto.mac.compute_many", "crypto.mac.verify_many",
                 "crypto.umac.compute_many", "crypto.umac.verify_many"):
        timed(name, "calls", "items", "s")
    timed("crypto.oneway", "calls", "s")
    timed("crypto.keychain.key", "calls", "s")
    timed("crypto.mac.compute", "calls")
    timed("crypto.umac.compute", "calls")
    timed("timesync.accepts", "calls", "s")
    timed("protocols.sender.packets_for_interval", "calls", "s")
    timed("protocols.wire.encode", "calls", "s")
    timed("protocols.wire.decode", "calls", "s")
    timed("protocols.receiver.receive", "calls", "s")
    timed("buffers.reservoir.offer", "calls", "s")
    out["buffers.reservoir.stored_frac"] = _ratio(
        c.get("buffers.reservoir.stored", 0.0), tracer.calls("buffers.reservoir.offer")
    )
    timed("net.loopback.run", "self_s")
    timed("net.provenance_of", "calls")
    out["net.forged_frac"] = _ratio(c.get("net.forged", 0.0), tracer.calls("net.provenance_of"))
    out["net.malformed"] = c.get("net.malformed", 0.0) / n
    timed("game.batched_replicator.integrate", "calls", "s")
    timed("game.solver.solve", "calls", "s")
    timed("game.stable_points", "s")
    out["game.dynamics_fallback_frac"] = _ratio(
        tracer.calls("game.realized_ess"), tracer.calls("game.solver.solve")
    )
    timed("engine.run_tasks", "self_s")
    # repro.perf counters: walk-cache hits, and MACs per batch call (the
    # scalar MACs the registry also counts are taken out).
    out["crypto.walk_cache.hit_rate"] = _ratio(
        counters.get("crypto.walk_cache.hits", 0),
        counters.get("crypto.walk_cache.hits", 0) + counters.get("crypto.walk_cache.misses", 0),
    )
    scalar_macs = tracer.calls("crypto.mac.compute") + tracer.calls("crypto.umac.compute")
    out["crypto.mac.batch_items_mean"] = _ratio(
        counters.get("crypto.mac", 0) - scalar_macs, counters.get("crypto.mac.batches", 0)
    )
    out["des.run_scenario.ns_per_delivery"] = 1e9 * _ratio(
        workload.oracle_s, workload.oracle_deliveries
    )
    wall = sum(p.wall for p in passes)
    traced_pass = statistics.median(p.wall for p in passes)
    out["trace.pass_s"] = traced_pass
    out["trace.overhead_frac"] = traced_pass / baseline_wall - 1.0
    ops_wall = tracer.inclusive_s("bench.op")
    out["trace.unattributed_frac"] = (tracer.self_s("bench.op") + wall - ops_wall) / wall
    return out


def run_workload(
    workload: workloads.Workload,
    count: int,
    trace: bool,
    setup: Optional[Callable[[], float]] = None,
    trace_file: Optional[Path] = None,
) -> Dict[str, Any]:
    """Warm up, time ``count`` passes, check; return what the CLI prints.

    ``setup`` measures one set-up sample; untraced runs call it before the
    warm-up and after each timed pass and report the median.
    """
    setup_samples: List[float] = []
    if setup is not None and not trace:
        setup_samples.append(setup())
    warmup = run_pass(workload)
    if trace:
        baseline = run_pass(workload)
        tracer = Tracer()
        from repro import perf

        tracer.install(layer_patches())
        for target in tracer.missing:
            print(f"trace: {target} not found; its metrics read 0", file=sys.stderr)
        try:
            with perf.collecting() as registry:
                passes = timed_passes(workload, count, tracer)
        finally:
            tracer.uninstall()
        timed_all = [baseline] + passes
    else:
        between = None if setup is None else lambda: setup_samples.append(setup())
        passes = timed_passes(workload, count, between=between)
        timed_all = passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = failed = 0
    for done in [warmup] + timed_all:
        attempted += len(done.results)
        failed += sum(result is None for result in done.results)
    checks_attempted, checks_failed = run_checks(workload, warmup, timed_all)
    attempted += checks_attempted
    failed += checks_failed

    if trace:
        values = per_layer_metrics(
            tracer, dict(registry.counters), passes, baseline.wall, workload
        )
        if trace_file is not None:
            tracer.dump(trace_file, {"workload": workload.name, "passes": len(passes),
                                     "missing": tracer.missing})
    else:
        setup_s = statistics.median(setup_samples) if setup_samples else 0.0
        values = end_to_end_metrics(passes, setup_s, peak_rss_mb)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "values": values,
        "passes": [(p.units / p.wall, p.cost_p50_us, p.cost_p99_us) for p in passes],
    }


def setup_sample(workload: str, seed: int) -> float:
    """Wall time of one fresh process that imports and builds the inputs."""
    started = time.perf_counter()
    # No timeout: Popen.wait(timeout) polls in 50 ms sleeps, which would
    # quantise a half-second measurement.
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def _run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, each in a fresh process."""
    combined = {}
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            timeout=600,
        )
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        combined[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(combined, sort_keys=True))
    ok = all(result and result["correct"] for result in combined.values())
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({ROOT / 'src' / 'repro'})",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.build(args.workload, args.seed)
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return _run_all(args.seed, seconds, args.trace)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = declared_metrics()[kind]
    workload = workloads.build(args.workload, args.seed)
    # One file per workload (the last traced run's), so repeated runs do
    # not pile up span dumps in the checkout.
    trace_file = ROOT / ".perfbench" / f"spans-{args.workload}.json"
    outcome = run_workload(
        workload,
        pass_count(workload, seconds),
        bool(args.trace),
        setup=lambda: setup_sample(args.workload, args.seed),
        trace_file=trace_file,
    )

    metrics = {
        name: {"value": outcome["values"][name], "unit": spec["unit"]}
        for name, spec in declared.items()
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"  timed passes (work/s, unit cost p50 us, p99 us):")
    for rate, p50, p99 in outcome["passes"]:
        print(f"  pass {rate:16.6g} {p50:12.6g} {p99:12.6g}")
    for name, metric in metrics.items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"  {'failed_ops_frac':<44} {outcome['failed'] / outcome['attempted']:>16.6g}"
          f" fraction  ({outcome['failed']}/{outcome['attempted']})")
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
