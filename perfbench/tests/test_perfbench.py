"""The benchmark's own tests: contract, smoke runs, tracer hygiene."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracing import Patch, Tracer, layer_patches

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TARGETS = json.loads((ROOT / "perfbench" / "targets.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke(name: str, trace: bool, trace_file: Path | None = None) -> dict:
    workload = workloads.build(name, seed=3, smoke=True)
    return run.run_workload(workload, 2, trace=trace, setup=lambda: 0.5,
                            trace_file=trace_file)


def test_metric_and_workload_names_follow_the_contract():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def test_end_to_end_bounds_and_setup_metric():
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["better"] == "lower"
    bounds = [m["bound"] for m in metrics.values()]
    assert all(0 < bound <= 0.25 for bound in bounds)
    assert metrics["setup_s"]["bound"] == max(bounds)


def test_every_per_layer_metric_names_its_targets():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert set(TARGETS["per_layer"]) == declared
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for entry in TARGETS["per_layer"].values():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in end_to_end and workload in workloads.WORKLOADS, target
    tuning = TARGETS["tuning_seeds"]
    assert not tuning["first"] <= TARGETS["held_out_seed"] <= tuning["last"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_passes_checks_and_emits_every_metric(name, trace, tmp_path):
    outcome = smoke(name, trace, tmp_path / "spans.json")
    assert outcome["correct"], outcome
    assert outcome["failed"] == 0 and outcome["attempted"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(outcome["values"]) == {m["name"] for m in SPEC[kind]}
    if not trace:
        assert all(value > 0 for value in outcome["values"].values())


def test_traced_run_restores_every_wrapped_callee(tmp_path):
    patches = layer_patches()
    before = [vars(p.resolve())[p.attr] for p in patches]
    smoke("loopback-soak", True, tmp_path / "spans.json")
    assert [vars(p.resolve())[p.attr] for p in patches] == before


def test_missing_callee_is_skipped_and_reported():
    patches = layer_patches()
    before = [vars(p.resolve())[p.attr] for p in patches]
    tracer = Tracer()
    tracer.install(patches + [Patch("repro.sim.fleet", "no_such_callee", "x")])
    try:
        assert tracer.missing == ["repro.sim.fleet.no_such_callee"]
        assert [vars(p.resolve())[p.attr] for p in patches] != before
    finally:
        tracer.uninstall()
    assert [vars(p.resolve())[p.attr] for p in patches] == before


def test_failed_install_leaves_nothing_wrapped():
    patches = layer_patches()
    before = [vars(p.resolve())[p.attr] for p in patches]
    with pytest.raises(TypeError):
        Tracer().install(patches + [Patch("repro.sim.fleet", "SUPPORTED_PROTOCOLS", "x")])
    assert [vars(p.resolve())[p.attr] for p in patches] == before


def test_span_parents_are_in_the_same_trace(tmp_path):
    path = tmp_path / "spans.json"
    smoke("loopback-soak", True, path)
    document = json.loads(path.read_text())
    spans = {span[0]: span for span in document["spans"]}
    assert spans
    for sid, name, start, end, parent, pass_id in spans.values():
        assert start <= end
        assert pass_id >= 1
        if parent != -1:
            assert parent in spans, (sid, name)
            p = spans[parent]
            assert p[2] <= start and end <= p[3]
            assert p[5] == pass_id


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("outer"):
            pass
    assert tracer.calls("outer") == 2
    assert tracer.inclusive_s("outer") >= tracer.inclusive_s("inner")
    total = tracer.self_s("outer") + tracer.self_s("inner")
    assert total == pytest.approx(tracer.inclusive_s("outer"))


def test_pass_count_depends_only_on_the_run_length():
    for workload in workloads.WORKLOADS.values():
        assert run.pass_count(workload, 0) == run.MIN_PASSES
        assert run.pass_count(workload, 10 * workload.pass_seconds) == 10


def test_figures_come_from_whole_passes():
    passes = []
    for rate, p50, p99 in ((100.0, 1.5, 9.0), (80.0, 4.0, 8.0), (90.0, 2.0, 10.0)):
        done = run.Pass()
        done.results = [workloads.OpResult(units=int(rate), summary=None)]
        done.wall = 1.0
        done.cost_p50_us, done.cost_p99_us = p50, p99
        passes.append(done)
    values = run.end_to_end_metrics(passes, setup_s=0.5, peak_rss_mb=1.0)
    assert values["work_per_s"] == 80.0
    assert values["unit_cost_p50_us"] == 4.0
    # The tail figure drops the one most disturbed pass.
    assert values["unit_cost_p99_us"] == 9.0


def test_batch_compute_inside_batch_verify_is_counted_once():
    from repro.crypto.mac import MacScheme, MicroMacScheme

    patches = [p for p in layer_patches() if p.name.startswith("crypto.")]
    tracer = Tracer()
    tracer.install(patches)
    try:
        mac, umac = MacScheme(), MicroMacScheme()
        key = bytes(16)
        tags = mac.compute_many(key, [b"a", b"b"])
        assert mac.verify_many(key, [(b"a", tags[0]), (b"b", tags[1])]) == [True, True]
        micro = umac.compute_many(key, tags)
        assert umac.verify_many(key, list(zip(tags, micro))) == [True, True]
    finally:
        tracer.uninstall()
    for scheme in ("mac", "umac"):
        assert tracer.calls(f"crypto.{scheme}.compute_many") == 1
        assert tracer.counters[f"crypto.{scheme}.compute_many.items"] == 2
        assert tracer.calls(f"crypto.{scheme}.verify_many") == 1
        assert tracer.counters[f"crypto.{scheme}.verify_many.items"] == 2


def test_seconds_defaults_to_the_declared_run_length(monkeypatch):
    seen = []

    def run_all(seed: int, seconds: float, trace: int) -> int:
        seen.append(seconds)
        return 0

    monkeypatch.setattr(run, "_run_all", run_all)
    assert run.main(["--workload", "all", "--seed", "1"]) == 0
    assert seen == [SPEC["run_seconds"]]


def test_importing_the_benchmark_runs_nothing():
    code = (
        "import sys; import perfbench.run, perfbench.workloads, perfbench.tracing;"
        " loaded = [m for m in sys.modules if m == 'repro' or m.startswith('repro.')];"
        " print(len(loaded))"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "0"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "game-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
