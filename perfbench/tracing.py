"""In-memory span tracer that wraps the program's public layer entry points.

Nothing under ``src/`` is instrumented: :func:`layer_patches` lists the
public callees of each layer, and :class:`Tracer` swaps each one for a
timing wrapper where its callers look it up — a class attribute for
methods, the importing module's binding for functions imported by name —
and puts every original back on :meth:`Tracer.uninstall`.

A span is ``(id, name, start, end, parent, pass_id)``; ``parent`` is the
id of the enclosing span or ``-1``. Self time is a span's duration minus
the time its child spans cover. ``calls`` counts every recorded call;
inclusive time is only added for the outermost span of a name, so a
method that recurses into itself (or a batch call that reaches a traced
scalar call of the same name) is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Hook run after a traced call returns:
#: ``hook(counters, elapsed_s, result, args, kwargs)``.
Hook = Callable[[Dict[str, float], float, Any, tuple, dict], None]

#: Spans kept for the dump; later spans are still counted. Ids are
#: given out at span start, so a kept span's parent is always kept.
SPAN_CAP = 100_000


@dataclass(frozen=True)
class Patch:
    """One public callee to wrap: ``owner.attr`` recorded as span ``name``.

    ``owner`` is ``"module"`` or ``"module:Class"``. A call made while a
    span named ``unless_inside`` is open is not recorded (its time is
    already in that span), so a batch verify that computes through the
    traced batch compute counts its items once.
    """

    owner: str
    attr: str
    name: str
    hook: Optional[Hook] = None
    unless_inside: Optional[str] = None

    def resolve(self) -> Any:
        module_name, _, class_name = self.owner.partition(":")
        target: Any = importlib.import_module(module_name)
        if class_name:
            target = getattr(target, class_name)
        if self.attr not in vars(target):
            raise AttributeError(f"{self.owner} does not define {self.attr} itself")
        return target


class Tracer:
    """Span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int, int]] = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = {}
        #: free-form counts the hooks and the workloads add
        self.counters: Dict[str, float] = defaultdict(float)
        self.pass_id = 0
        self._stack: List[List[Any]] = []
        self._open: Dict[str, int] = {}
        self._next_id = 0
        self._installed: List[Tuple[Any, str, Any]] = []
        #: patch targets :meth:`install` could not find
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> List[Any]:
        sid = self._next_id
        self._next_id = sid + 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, name, time.perf_counter(), 0.0, parent]
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def close(self, frame: List[Any]) -> float:
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        sid, name, start, child, parent = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += duration - child
        depth = self._open[name] - 1
        self._open[name] = depth
        if depth == 0:
            stat[1] += duration
        if self._stack:
            self._stack[-1][3] += duration
        if sid < SPAN_CAP:
            self.spans.append((sid, name, start, end, parent, self.pass_id))
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block (for the benchmark's own ops)."""
        frame = self.open(name)
        try:
            yield
        finally:
            self.close(frame)

    # -- wrapping ------------------------------------------------------

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        hook: Optional[Hook] = None,
        unless_inside: Optional[str] = None,
    ) -> Any:
        tracer = self
        counters = self.counters
        open_names = self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if unless_inside is not None and open_names.get(unless_inside):
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = tracer.close(frame)
            if hook is not None:
                hook(counters, elapsed, result, args, kwargs)
            return result

        return traced

    def install(self, patches: List[Patch]) -> None:
        """Wrap every patch target; on any failure, undo what was done.

        A target the program no longer has is skipped and listed in
        :attr:`missing` (its metrics then read 0), so a refactor that
        moves a layer does not stop the traced run.
        """
        try:
            for patch in patches:
                try:
                    target = patch.resolve()
                except (ImportError, AttributeError):
                    self.missing.append(f"{patch.owner}.{patch.attr}")
                    continue
                original = vars(target)[patch.attr]
                if not callable(original):
                    raise TypeError(f"{patch.owner}.{patch.attr} is not callable")
                setattr(target, patch.attr,
                        self.wrap(original, patch.name, patch.hook, patch.unless_inside))
                self._installed.append((target, patch.attr, original))
        except Exception:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, last wrapped first."""
        while self._installed:
            target, attr, original = self._installed.pop()
            setattr(target, attr, original)

    # -- results -------------------------------------------------------

    def calls(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def inclusive_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write the kept spans (and how many were not kept) as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(meta)
        document["fields"] = ["id", "name", "start", "end", "parent", "pass"]
        document["spans"] = self.spans
        document["spans_not_kept"] = max(0, self._next_id - SPAN_CAP)
        path.write_text(json.dumps(document, separators=(",", ":")))


# ---------------------------------------------------------------------------
# What to wrap, layer by layer.


def _items(name: str) -> Hook:
    key = f"{name}.items"

    def hook(counters: Dict[str, float], _dt: float, result: Any, *_: Any) -> None:
        counters[key] += len(result)

    return hook


def _fleet_run(
    counters: Dict[str, float], dt: float, result: Any, args: tuple, kwargs: dict
) -> None:
    # The timed passes run summary="aggregate": the result is a FleetAggregate.
    protocol = (args[0] if args else kwargs["config"]).protocol
    counters[f"fleet.run.{protocol}.s"] += dt
    counters[f"fleet.run.{protocol}.deliveries"] += result.fleet.total_packets_received


def _mask(counters: Dict[str, float], _dt: float, result: Any, *_: Any) -> None:
    import numpy as np

    drops = result[0] if isinstance(result, tuple) else result
    steps, lanes = drops.shape
    counters["fleet.mask.decisions"] += drops.size
    counters["fleet.mask.delivered"] += drops.size - int(np.count_nonzero(drops))
    # Bit-packed delivery matrix rows, as the fleet engine stores them.
    counters["fleet.mask.bytes_computed"] += steps * ((lanes + 7) // 8)


def _offer(counters: Dict[str, float], _dt: float, result: Any, *_: Any) -> None:
    counters["buffers.reservoir.stored"] += result.stored


def _provenance(counters: Dict[str, float], _dt: float, result: Any, *_: Any) -> None:
    counters["net.forged"] += result != "legitimate"


def layer_patches() -> List[Patch]:
    """Every public callee the traced run wraps, grouped by layer."""
    senders = (
        "repro.protocols._two_phase:TwoPhaseSender",
        "repro.protocols.tesla:TeslaSender",
        "repro.protocols.renewal:RenewingDapSender",
        "repro.protocols.mu_tesla:MuTeslaSender",
        "repro.protocols.multilevel:MultiLevelSender",
    )
    receivers = (
        "repro.protocols.dap:DapReceiver",
        "repro.protocols.tesla_pp:TeslaPlusPlusReceiver",
        "repro.protocols.tesla:TeslaReceiver",
        "repro.protocols.renewal:RenewingDapReceiver",
        "repro.protocols.mu_tesla:MuTeslaReceiver",
        "repro.protocols.multilevel:MultiLevelReceiver",
    )
    patches = [
        # repro.sim.fleet (and the channel kernels it imports by name)
        Patch("repro.sim.fleet", "run_fleet_scenario", "fleet.run", _fleet_run),
        Patch("repro.sim.fleet", "bernoulli_drop_mask", "channel.bernoulli_mask", _mask),
        Patch("repro.sim.fleet", "gilbert_elliott_drop_mask", "channel.ge_mask", _mask),
        # repro.crypto
        Patch("repro.crypto.mac:MacScheme", "compute", "crypto.mac.compute"),
        Patch("repro.crypto.mac:MacScheme", "compute_many", "crypto.mac.compute_many",
              _items("crypto.mac.compute_many"), unless_inside="crypto.mac.verify_many"),
        Patch("repro.crypto.mac:MacScheme", "verify_many", "crypto.mac.verify_many",
              _items("crypto.mac.verify_many")),
        Patch("repro.crypto.mac:MicroMacScheme", "compute", "crypto.umac.compute"),
        Patch("repro.crypto.mac:MicroMacScheme", "compute_many", "crypto.umac.compute_many",
              _items("crypto.umac.compute_many"), unless_inside="crypto.umac.verify_many"),
        Patch("repro.crypto.mac:MicroMacScheme", "verify_many", "crypto.umac.verify_many",
              _items("crypto.umac.verify_many")),
        Patch("repro.crypto.onewayfn:OneWayFunction", "__call__", "crypto.oneway"),
        Patch("repro.crypto.onewayfn:OneWayFunction", "iterate", "crypto.oneway"),
        Patch("repro.crypto.keychain:KeyChain", "key", "crypto.keychain.key"),
        Patch("repro.crypto.pebbled:PebbledKeyChain", "key", "crypto.keychain.key"),
        # repro.timesync
        Patch("repro.timesync.sync:SecurityCondition", "accepts", "timesync.accepts"),
        # repro.protocols (the wire codec where the net layer imports it)
        Patch("repro.net.daemons", "encode_packet", "protocols.wire.encode"),
        Patch("repro.net.flood", "encode_packet", "protocols.wire.encode"),
        Patch("repro.net.daemons", "decode_packet", "protocols.wire.decode"),
        # repro.buffers
        Patch("repro.buffers.reservoir:ReservoirBuffer", "offer",
              "buffers.reservoir.offer", _offer),
        # repro.net
        Patch("repro.net.transport:LoopbackNetwork", "run", "net.loopback.run"),
        Patch("repro.net.flood:ProvenanceRegistry", "provenance_of",
              "net.provenance_of", _provenance),
        # repro.game / repro.engine
        Patch("repro.game.replicator:BatchedReplicator", "integrate",
              "game.batched_replicator.integrate"),
        Patch("repro.game.optimizer:EquilibriumSolver", "solve", "game.solver.solve"),
        Patch("repro.game.optimizer", "stable_points", "game.stable_points"),
        Patch("repro.game.optimizer", "realized_ess", "game.realized_ess"),
        Patch("repro.net.harness", "run_tasks", "engine.run_tasks"),
        Patch("repro.analysis.costs", "run_tasks", "engine.run_tasks"),
    ]
    patches += [
        Patch(owner, "packets_for_interval", "protocols.sender.packets_for_interval")
        for owner in senders
    ]
    patches += [
        Patch(owner, "receive", "protocols.receiver.receive") for owner in receivers
    ]
    return patches
