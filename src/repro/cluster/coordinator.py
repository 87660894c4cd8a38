"""The soak-cluster coordinator.

One coordinator owns a cluster run end to end:

1. **Plan** — the scenario population is split into shard tasks up
   front (:mod:`repro.cluster.shards`); nothing is invented later.
2. **Lease** — a TCP accept loop admits workers (spawned locally by
   default, remote in principle); the dispatch loop leases tasks to
   workers with spare capacity and tracks every lease in a
   :class:`~repro.cluster.leases.LeaseTable`. Heartbeats renew only
   the leases for tasks a worker reports actively running, so a dead
   worker — or a dead soak thread inside a live worker — lets its
   leases expire and the orphaned shards re-lease to survivors.
3. **Backpressure** — a worker at its ``max_inflight`` bound or over
   its RSS limit receives no new leases; when every worker is
   saturated the dispatch loop throttles (counted as
   ``backpressure_waits`` in the metrics).
4. **Observe** — worker heartbeat snapshots and coordinator aggregates
   stream into a tail-able ``metrics.jsonl``
   (:mod:`repro.cluster.metrics`).
5. **Fault** — the declarative schedule fires on the soak timeline:
   loss rewrites later-dispatched scenarios, worker events kill,
   partition, heal or respawn daemons (:mod:`repro.cluster.faults`).
6. **Merge + reconcile** — completed soaks fold through the existing
   :func:`~repro.net.harness.merge_soaks` path into one
   :class:`~repro.net.harness.LoadTestReport`, then every task is
   reconciled against a fleet-engine prediction of the scenario it
   echoed back (:mod:`repro.cluster.reconcile`).

Threading model: the dispatch loop runs on the caller's thread; the
accept loop and one handler per connection run as daemon threads, all
mutating shared state under one lock. Workers are separate *processes*
started with :mod:`subprocess` — never ``fork`` — because a forked
child of this multi-threaded coordinator could inherit a held lock
(reprolint RPL004 enforces the fork ban repo-wide).
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

import repro
from repro.cluster.config import ClusterConfig
from repro.cluster.faults import FaultEvent, FaultSchedule
from repro.cluster.leases import LeaseTable
from repro.cluster.metrics import MetricsLog
from repro.cluster.protocol import (
    MessageStream,
    decode_scenario,
    decode_soak,
    encode_scenario,
)
from repro.cluster.reconcile import Reconciliation, reconcile_soaks
from repro.cluster.shards import ShardTask, plan_tasks
from repro.devtools.sanitizers.locks import tracked_lock
from repro.devtools.sanitizers.resources import release_resource, track_resource
from repro.errors import ClusterError
from repro.net.harness import LoadTestReport, SoakResult, merge_soaks
from repro.sim.scenario import ScenarioConfig

__all__ = ["ClusterCoordinator", "ClusterResult", "run_cluster_soak"]

_POLL_SECONDS = 0.02


@dataclass(frozen=True)
class ClusterResult:
    """Everything a finished cluster soak produced.

    Attributes:
        report: the merged :class:`LoadTestReport` (its ``shards``
            field counts completed tasks, i.e. ``shards * rounds``).
        reconciliation: the per-task fleet-engine verdicts, or None
            when reconciliation was disabled.
        tasks: planned (= completed) task count.
        releases: leases that expired and were re-leased — nonzero
            exactly when a worker died or wedged mid-soak.
        backpressure_waits: dispatch-loop passes throttled because
            every live worker was at its in-flight or RSS limit.
        nacks: leases workers refused at their own bound.
        duplicate_results: late results dropped because a re-leased
            task had already reported (first result wins; equal seeds
            make the copies identical anyway).
        wall_seconds: coordinator wall time for the whole run.
    """

    report: LoadTestReport
    reconciliation: Optional[Reconciliation]
    tasks: int
    releases: int
    backpressure_waits: int
    nacks: int
    duplicate_results: int
    wall_seconds: float


class _WorkerHandle:
    """Coordinator-side view of one connected worker."""

    def __init__(
        self, worker_id: int, stream: MessageStream, now: float, pid: int = 0
    ) -> None:
        self.worker_id = worker_id
        self.stream = stream
        self.pid = pid
        self.connected = True
        self.partitioned = False
        self.last_heartbeat = now
        self.inflight_reported = 0
        self.rss_bytes = 0


class ClusterCoordinator:
    """Drives one cluster soak; see the module docs for the phases."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self.port: Optional[int] = None
        self._task_list: List[ShardTask] = plan_tasks(
            config.scenario, config.shards, config.rounds
        )
        self._tasks: Dict[str, ShardTask] = {
            task.task_id: task for task in self._task_list
        }
        self._lock = tracked_lock("cluster.coordinator", reentrant=True)
        self._pending: Deque[ShardTask] = deque(self._task_list)
        self._leases = LeaseTable()
        self._attempts: Dict[str, int] = {}
        self._results: Dict[str, SoakResult] = {}
        self._result_scenarios: Dict[str, ScenarioConfig] = {}
        self._workers: Dict[int, _WorkerHandle] = {}
        self._processes: Dict[int, subprocess.Popen] = {}
        self._next_worker_id = config.workers
        self._schedule = FaultSchedule(config.faults)
        self._current_loss: Optional[float] = None
        self._releases = 0
        self._backpressure_waits = 0
        self._nacks = 0
        self._duplicates = 0
        self._fatal: Optional[ClusterError] = None
        self._stop = threading.Event()
        self._started = 0.0
        self._metrics: Optional[MetricsLog] = None

    # ----- the run ---------------------------------------------------

    def run(self) -> ClusterResult:
        """Run the soak to completion and return the merged result."""
        config = self.config
        self._started = time.monotonic()
        if config.metrics_path is not None:
            self._metrics = MetricsLog(config.metrics_path)
        server = socket.create_server((config.host, config.port))
        server.settimeout(0.25)
        self.port = server.getsockname()[1]
        track_resource(
            "socket",
            str(id(server)),
            f"coordinator listener {config.host}:{self.port}",
        )
        accept_thread = threading.Thread(
            target=self._accept_loop,
            args=(server,),
            name="cluster-accept",
            daemon=True,
        )
        accept_thread.start()
        try:
            if config.spawn_workers:
                for index in range(config.workers):
                    self._spawn_worker(index)
            self._dispatch_loop()
        finally:
            self._stop.set()
            self._shutdown_workers()
            try:
                server.close()
            except OSError:
                pass
            release_resource("socket", str(id(server)))
            accept_thread.join(timeout=2.0)
            if self._metrics is not None:
                self._metrics.close()
        ordered = [self._results[task.task_id] for task in self._task_list]
        report = merge_soaks(config.scenario, ordered, "loopback")
        reconciliation = None
        if config.reconcile:
            reconciliation = reconcile_soaks(
                [
                    (
                        task.task_id,
                        self._result_scenarios[task.task_id],
                        self._results[task.task_id],
                    )
                    for task in self._task_list
                ],
                tolerance=config.tolerance,
            )
        return ClusterResult(
            report=report,
            reconciliation=reconciliation,
            tasks=len(self._task_list),
            releases=self._releases,
            backpressure_waits=self._backpressure_waits,
            nacks=self._nacks,
            duplicate_results=self._duplicates,
            wall_seconds=time.monotonic() - self._started,
        )

    # ----- dispatch loop ---------------------------------------------

    def _dispatch_loop(self) -> None:
        deadline = self._started + self.config.max_runtime
        next_metrics = self._started
        while True:
            now = time.monotonic()
            with self._lock:
                if self._fatal is not None:
                    raise self._fatal
                if len(self._results) >= len(self._tasks):
                    return
                pending_ids = [task.task_id for task in self._pending]
            if now > deadline:
                raise ClusterError(
                    f"cluster soak hit its {self.config.max_runtime}s"
                    f" deadline with tasks still unfinished:"
                    f" {sorted(set(self._tasks) - set(self._results))}"
                )
            self._fire_faults(now - self._started)
            self._expire_leases(now)
            self._check_worker_supply(pending_ids)
            dispatched = self._dispatch_pending(now)
            if now >= next_metrics:
                self._write_coordinator_record(now - self._started)
                next_metrics = now + self.config.metrics_interval
            if not dispatched:
                time.sleep(_POLL_SECONDS)

    def _dispatch_pending(self, now: float) -> int:
        """Lease as many pending tasks as worker capacity allows."""
        grants: List[Tuple[_WorkerHandle, ShardTask, ScenarioConfig]] = []
        throttled = False
        with self._lock:
            while self._pending:
                task = self._pending[0]
                handle = self._eligible_worker()
                if handle is None:
                    throttled = bool(self._live_workers())
                    break
                self._pending.popleft()
                attempts = self._attempts.get(task.task_id, 0) + 1
                self._attempts[task.task_id] = attempts
                if attempts > self.config.max_attempts:
                    self._fatal = ClusterError(
                        f"task {task.task_id!r} exhausted its"
                        f" {self.config.max_attempts} lease attempts"
                    )
                    return 0
                scenario = self._effective_scenario(task)
                self._leases.grant(
                    task.task_id,
                    handle.worker_id,
                    self.config.lease_ttl,
                    now,
                )
                grants.append((handle, task, scenario))
        if throttled:
            self._backpressure_waits += 1
        for handle, task, scenario in grants:
            try:
                handle.stream.send(
                    {
                        "type": "lease",
                        "task_id": task.task_id,
                        "scenario": encode_scenario(scenario),
                    }
                )
            except OSError:
                with self._lock:
                    handle.connected = False
                    self._leases.release(task.task_id)
                    self._pending.appendleft(task)
        return len(grants)

    def _effective_scenario(self, task: ShardTask) -> ScenarioConfig:
        """The task's scenario with any active loss fault applied."""
        from dataclasses import replace

        if self._current_loss is None:
            return task.scenario
        return replace(task.scenario, loss_probability=self._current_loss)

    def _live_workers(self) -> List[_WorkerHandle]:
        return [
            handle
            for handle in self._workers.values()
            if handle.connected and not handle.partitioned
        ]

    def _eligible_worker(self) -> Optional[_WorkerHandle]:
        """The least-loaded live worker with spare capacity, if any."""
        best: Optional[_WorkerHandle] = None
        best_load = 0
        for handle in self._live_workers():
            outstanding = max(
                len(self._leases.held_by(handle.worker_id)),
                handle.inflight_reported,
            )
            if outstanding >= self.config.max_inflight:
                continue
            if (
                self.config.max_rss_mb is not None
                and handle.rss_bytes > self.config.max_rss_mb * 1024 * 1024
            ):
                continue
            if best is None or outstanding < best_load:
                best = handle
                best_load = outstanding
        return best

    def _expire_leases(self, now: float) -> None:
        with self._lock:
            for lease in self._leases.expire(now):
                if lease.task_id in self._results:
                    continue  # completed just before expiry
                self._releases += 1
                self._pending.appendleft(self._tasks[lease.task_id])
                self._record(
                    {
                        "kind": "release",
                        "t": round(now - self._started, 3),
                        "task": lease.task_id,
                        "worker": lease.worker_id,
                    }
                )

    def _check_worker_supply(self, pending_ids: List[str]) -> None:
        """Fail fast when no worker can ever pick up the pending work."""
        if not pending_ids or not self.config.spawn_workers:
            return
        with self._lock:
            if self._live_workers() or len(self._schedule):
                return
            processes = list(self._processes.values())
        if processes and all(proc.poll() is not None for proc in processes):
            raise ClusterError(
                "every spawned worker has exited with tasks still"
                f" pending: {sorted(pending_ids)}"
            )

    # ----- fault schedule --------------------------------------------

    def _fire_faults(self, elapsed: float) -> None:
        for event in self._schedule.due(elapsed, self._fault_ready):
            self._apply_fault(event, elapsed)

    def _fault_ready(self, event: FaultEvent) -> bool:
        """Whether a due event may fire now.

        A kill waits until its victim holds a lease: killing a worker is
        meant to orphan its shards, and one that lands while the worker
        is still starting (or between leases) orphans nothing. A victim
        that is neither connected nor running has nothing to wait for.
        Every other action fires on time.
        """
        if event.action != "kill-worker":
            return True
        with self._lock:
            if self._leases.held_by(event.worker):
                return True
            handle = self._workers.get(event.worker)
            connected = handle is not None and handle.connected
        process = self._processes.get(event.worker)
        return not connected and (process is None or process.poll() is not None)

    def _apply_fault(self, event: FaultEvent, elapsed: float) -> None:
        self._record(
            {
                "kind": "fault",
                "t": round(elapsed, 3),
                "action": event.action,
                "value": event.value,
            }
        )
        if event.action == "loss":
            self._current_loss = event.value
            return
        worker_id = event.worker
        if event.action == "kill-worker":
            process = self._processes.get(worker_id)
            if process is not None and process.poll() is None:
                process.kill()
            with self._lock:
                handle = self._workers.get(worker_id)
                if handle is not None:
                    handle.connected = False
                    handle.stream.close()
        elif event.action == "partition-worker":
            with self._lock:
                handle = self._workers.get(worker_id)
                if handle is not None:
                    handle.partitioned = True
        elif event.action == "heal-worker":
            with self._lock:
                handle = self._workers.get(worker_id)
                if handle is not None:
                    handle.partitioned = False
        elif event.action == "restart-worker":
            process = self._processes.get(worker_id)
            if self.config.spawn_workers and (
                process is None or process.poll() is not None
            ):
                self._spawn_worker(worker_id)

    # ----- worker processes ------------------------------------------

    def _spawn_worker(self, index: int) -> None:
        src_root = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        extra = env.get("PYTHONPATH", "")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{extra}" if extra else str(src_root)
        )
        command = [
            sys.executable,
            "-m",
            "repro.cluster.worker",
            "--connect",
            f"{self.config.host}:{self.port}",
            "--worker-id",
            str(index),
            "--max-runtime",
            str(self.config.max_runtime + 30.0),
        ]
        self._processes[index] = subprocess.Popen(command, env=env)

    def _shutdown_workers(self) -> None:
        with self._lock:
            handles = list(self._workers.values())
        for handle in handles:
            if handle.connected:
                try:
                    handle.stream.send({"type": "shutdown"})
                except OSError:
                    pass
            handle.stream.close()
        for process in self._processes.values():
            if process.poll() is None:
                process.terminate()
        grace = time.monotonic() + 3.0
        for process in self._processes.values():
            remaining = grace - time.monotonic()
            try:
                process.wait(timeout=max(remaining, 0.1))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)

    # ----- connection handling ---------------------------------------

    def _accept_loop(self, server: socket.socket) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # server closed: run is over
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="cluster-conn",
                daemon=True,
            )
            handler.start()

    def _assign_worker_id(self, requested: Optional[int]) -> int:
        if requested is not None:
            existing = self._workers.get(requested)
            if existing is None or not existing.connected:
                return requested
        assigned = self._next_worker_id
        self._next_worker_id += 1
        return assigned

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = MessageStream(conn)
        handle: Optional[_WorkerHandle] = None
        try:
            hello = stream.recv()
            if hello is None or hello.get("type") != "register":
                return
            requested = hello.get("worker_id")
            now = time.monotonic()
            with self._lock:
                worker_id = self._assign_worker_id(
                    int(requested) if requested is not None else None
                )
                handle = _WorkerHandle(
                    worker_id, stream, now, pid=int(hello.get("pid", 0))
                )
                self._workers[worker_id] = handle
            stream.send(
                {
                    "type": "welcome",
                    "worker_id": worker_id,
                    "max_inflight": self.config.max_inflight,
                    "heartbeat_interval": self.config.heartbeat_interval,
                    "stall_seconds": self.config.task_stall,
                }
            )
            while not self._stop.is_set():
                message = stream.recv()
                if message is None:
                    return
                self._handle_message(handle, message)
        except (OSError, ClusterError, ValueError, KeyError):
            pass  # connection-level failure: the lease TTL recovers the work
        finally:
            if handle is not None:
                with self._lock:
                    if self._workers.get(handle.worker_id) is handle:
                        handle.connected = False
            stream.close()

    def _handle_message(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        with self._lock:
            if handle.partitioned:
                return  # partitioned: the coordinator is deaf to it
        kind = message["type"]
        if kind == "heartbeat":
            self._on_heartbeat(handle, message)
        elif kind == "result":
            self._on_result(handle, message)
        elif kind == "task-failed":
            self._on_task_failed(handle, message)
        elif kind == "nack":
            self._on_nack(handle, message)

    def _on_heartbeat(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        now = time.monotonic()
        active = [str(task_id) for task_id in message.get("active", [])]
        with self._lock:
            handle.last_heartbeat = now
            handle.inflight_reported = int(message.get("inflight", 0))
            handle.rss_bytes = int(message.get("rss_bytes", 0))
            self._leases.renew(
                handle.worker_id, active, self.config.lease_ttl, now
            )
        self._record(
            {
                "kind": "worker",
                "t": round(now - self._started, 3),
                "worker": handle.worker_id,
                "inflight": int(message.get("inflight", 0)),
                "active": active,
                "rss_bytes": int(message.get("rss_bytes", 0)),
                "perf": message.get("perf", {}),
            }
        )

    def _on_result(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        task_id = str(message["task_id"])
        soak = decode_soak(message["soak"])
        scenario = decode_scenario(message["scenario"])
        with self._lock:
            self._leases.release(task_id)
            if task_id in self._results:
                self._duplicates += 1
                return
            if task_id not in self._tasks:
                return  # not ours (stale worker from a previous run)
            self._results[task_id] = soak
            self._result_scenarios[task_id] = scenario
            completed = len(self._results)
        self._record(
            {
                "kind": "result",
                "t": round(time.monotonic() - self._started, 3),
                "task": task_id,
                "worker": handle.worker_id,
                "completed": completed,
                "total": len(self._tasks),
            }
        )

    def _on_task_failed(
        self, handle: _WorkerHandle, message: Dict[str, Any]
    ) -> None:
        task_id = str(message["task_id"])
        with self._lock:
            self._leases.release(task_id)
            task = self._tasks.get(task_id)
            if task is not None and task_id not in self._results:
                attempts = self._attempts.get(task_id, 0)
                if attempts >= self.config.max_attempts:
                    self._fatal = ClusterError(
                        f"task {task_id!r} failed its final attempt:"
                        f" {message.get('error', 'unknown error')}"
                    )
                else:
                    self._pending.append(task)
        self._record(
            {
                "kind": "task-failed",
                "t": round(time.monotonic() - self._started, 3),
                "task": task_id,
                "worker": handle.worker_id,
                "error": str(message.get("error", "")),
            }
        )

    def _on_nack(self, handle: _WorkerHandle, message: Dict[str, Any]) -> None:
        task_id = str(message["task_id"])
        with self._lock:
            self._nacks += 1
            self._leases.release(task_id)
            task = self._tasks.get(task_id)
            if task is not None and task_id not in self._results:
                self._pending.append(task)

    # ----- metrics ----------------------------------------------------

    def _record(self, record: Dict[str, Any]) -> None:
        if self._metrics is not None:
            self._metrics.write(record)

    def _write_coordinator_record(self, elapsed: float) -> None:
        with self._lock:
            record = {
                "kind": "coordinator",
                "t": round(elapsed, 3),
                "pending": len(self._pending),
                "leased": len(self._leases),
                "completed": len(self._results),
                "total": len(self._tasks),
                "releases": self._releases,
                "backpressure_waits": self._backpressure_waits,
                "nacks": self._nacks,
                "workers": {
                    str(handle.worker_id): {
                        "pid": handle.pid,
                        "connected": handle.connected,
                        "partitioned": handle.partitioned,
                        "inflight": handle.inflight_reported,
                        "rss_bytes": handle.rss_bytes,
                    }
                    for handle in self._workers.values()
                },
            }
        self._record(record)


def run_cluster_soak(config: ClusterConfig) -> ClusterResult:
    """Run one coordinator soak to completion (the library entry point
    behind ``repro cluster soak``)."""
    return ClusterCoordinator(config).run()
