"""Pluggable executors: how an :class:`ExperimentSpec` actually runs.

Two implementations share one contract — results come back in task
order and per-task failures are isolated into
:class:`~repro.errors.TaskError` carrying the failing task's label:

- :class:`SerialExecutor` runs tasks in a deterministic in-process
  loop. It is the default everywhere: zero overhead, exact ordering,
  trivially debuggable.
- :class:`ParallelExecutor` fans tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with ``jobs``
  workers. Because every worker function is a pure function of its
  picklable task payload (seeded RNGs, frozen configs), the results
  are **bit-identical** to serial execution — the equivalence suite in
  ``tests/engine`` pins that guarantee.

The process pool is **warm**: it is created lazily on the first
parallel :meth:`~ParallelExecutor.run` and reused across subsequent
calls, so a sweep driver paying the spawn + import cost once can fan
out many specs without re-forking workers each time. Workers
pre-import :mod:`repro` in their initializer so the first task does
not eat the import latency either. Use the executor as a context
manager (or call :meth:`~ParallelExecutor.close`) to release the pool.

A spec with a batch worker (:attr:`ExperimentSpec.batch_fn`) runs as
contiguous batches in :meth:`Executor.run`: one batch per run on the
serial executor, one per worker on the pool. A batch that raises is
rerun task by task in the calling process, so the
:class:`~repro.errors.TaskError` still names the failing task.
:meth:`Executor.stream` runs every spec task by task.

Workers and payloads must be picklable for the parallel path; that is
the only seam the engine imposes on the layers above it.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, TaskError
from repro.engine.spec import ExperimentSpec

__all__ = ["Executor", "SerialExecutor", "ParallelExecutor", "executor_for"]


def _warm_worker() -> None:
    """Pool initializer: pre-import the package so the first task a
    worker receives pays no import latency."""
    import repro  # noqa: F401


class Executor:
    """The executor contract: ordered results, isolated failures."""

    #: Number of OS processes the executor occupies (1 for serial).
    jobs: int = 1

    def run(self, spec: ExperimentSpec) -> List[Any]:
        """Run every task of ``spec``; results in task order."""
        raise NotImplementedError

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        """Yield ``(task_index, result)`` pairs as tasks complete.

        The streaming counterpart of :meth:`run` for reductions that
        fold results one at a time instead of holding the whole result
        list — the fleet engine merges per-shard summaries this way so
        peak memory tracks one shard, not the fleet. Serial executors
        yield in task order; parallel executors yield in completion
        order (the index tells the consumer which task finished).
        Failures raise the same labelled :class:`TaskError` as
        :meth:`run`.
        """
        raise NotImplementedError

    @staticmethod
    def _task_error(spec: ExperimentSpec, index: int, exc: BaseException) -> TaskError:
        label = spec.label_for(index)
        return TaskError(
            f"{spec.label}: {label} failed: {exc}", label=label, index=index
        )

    @classmethod
    def _each(cls, spec: ExperimentSpec, start: int, stop: int) -> List[Any]:
        """Tasks ``start..stop-1`` one at a time, in this process."""
        results: List[Any] = []
        for index in range(start, stop):
            try:
                results.append(spec.fn(spec.tasks[index]))
            # Executor fault boundary: any task failure is converted to
            # a labelled TaskError and re-raised, never swallowed —
            # exactly the shape RPL006 requires of a broad except.
            except Exception as exc:
                raise cls._task_error(spec, index, exc) from exc
        return results

    @classmethod
    def _batch_error(
        cls, spec: ExperimentSpec, start: int, stop: int, exc: BaseException
    ) -> TaskError:
        """The error for a batch of tasks ``start..stop-1`` that raised
        ``exc``. The tasks rerun one at a time here, so the first failing
        task raises its own :class:`TaskError`; if none fails, the batch
        worker disagrees with ``fn`` and the returned error says so."""
        cls._each(spec, start, stop)
        first, last = spec.label_for(start), spec.label_for(stop - 1)
        return TaskError(
            f"{spec.label}: the batch {first}..{last} failed ({exc}),"
            " but each of its tasks succeeds alone",
            label=first,
            index=start,
        )

    @staticmethod
    def _batch_results(
        spec: ExperimentSpec, start: int, stop: int, results: Sequence[Any]
    ) -> List[Any]:
        """A batch's results, checked to be one per task."""
        results = list(results)
        if len(results) != stop - start:
            raise TaskError(
                f"{spec.label}: the batch worker returned {len(results)}"
                f" results for {stop - start} tasks",
                label=spec.label_for(start),
                index=start,
            )
        return results


class SerialExecutor(Executor):
    """Deterministic in-process execution, task order preserved."""

    def run(self, spec: ExperimentSpec) -> List[Any]:
        if spec.batch_fn is None:
            return self._each(spec, 0, len(spec))
        try:
            results = spec.batch_fn(spec.tasks)
        # Executor fault boundary (RPL006-conformant): the batch reruns
        # task by task and the failing task's TaskError is raised.
        except Exception as exc:
            raise self._batch_error(spec, 0, len(spec), exc) from exc
        return self._batch_results(spec, 0, len(spec), results)

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        for index, task in enumerate(spec.tasks):
            try:
                result = spec.fn(task)
            # Executor fault boundary (RPL006-conformant): wrap and
            # re-raise with the failing task's label.
            except Exception as exc:
                raise self._task_error(spec, index, exc) from exc
            yield index, result

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor(Executor):
    """Warm process-pool execution across ``jobs`` cores.

    The pool is created lazily on the first parallel :meth:`run` and
    **reused across calls**: a driver running many specs pays worker
    spawn + ``import repro`` once, not per sweep. Each worker
    pre-imports the package in its initializer. A task failure raises
    :class:`~repro.errors.TaskError` but leaves the pool warm; only a
    broken pool (a worker died mid-task) is torn down and rebuilt on
    the next call.

    Args:
        jobs: worker processes (>= 1). ``jobs=1`` still goes through a
            pool — useful for exercising the pickling seam — while
            :func:`executor_for` maps 1 to :class:`SerialExecutor`.
        maxtasksperchild: recycle each worker after this many tasks
            (guards against slow memory growth in week-long sweeps).
            Requires Python >= 3.11; workers are then spawned rather
            than forked, per the stdlib's constraint.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        maxtasksperchild: Optional[int] = None,
    ) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if maxtasksperchild is not None:
            if maxtasksperchild < 1:
                raise ConfigurationError(
                    f"maxtasksperchild must be >= 1, got {maxtasksperchild}"
                )
            if sys.version_info < (3, 11):
                raise ConfigurationError(
                    "maxtasksperchild requires Python >= 3.11"
                )
        self.jobs = jobs
        self._maxtasksperchild = maxtasksperchild
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            kwargs: Dict[str, Any] = {
                "max_workers": self.jobs,
                "initializer": _warm_worker,
            }
            if self._maxtasksperchild is not None:
                # The stdlib only supports worker recycling with spawn
                # or forkserver start methods.
                kwargs["max_tasks_per_child"] = self._maxtasksperchild
                kwargs["mp_context"] = multiprocessing.get_context("spawn")
            self._pool = concurrent.futures.ProcessPoolExecutor(**kwargs)
        return self._pool

    def run(self, spec: ExperimentSpec) -> List[Any]:
        # No pool for a single task: the pickle round trip would only
        # add latency without any overlap to exploit.
        if len(spec) == 1 or self.jobs == 1:
            return SerialExecutor().run(spec)
        pool = self._ensure_pool()
        if spec.batch_fn is not None:
            return self._run_batches(pool, spec)
        try:
            futures = [pool.submit(spec.fn, task) for task in spec.tasks]
        except BrokenProcessPool as exc:
            self.close()
            raise self._task_error(spec, 0, exc) from exc
        results: List[Any] = []
        for index, future in enumerate(futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                # A worker died (OOM, signal). The pool is unusable;
                # discard it so the next run() starts fresh.
                self.close()
                raise self._task_error(spec, index, exc) from exc
            # Executor fault boundary (RPL006-conformant): the failure
            # is wrapped into a labelled TaskError and re-raised after
            # cancelling the tasks behind it.
            except Exception as exc:
                for pending in futures[index + 1:]:
                    pending.cancel()
                raise self._task_error(spec, index, exc) from exc
        return results

    def _run_batches(
        self, pool: concurrent.futures.ProcessPoolExecutor, spec: ExperimentSpec
    ) -> List[Any]:
        """``spec`` as one contiguous batch per worker."""
        count = min(self.jobs, len(spec))
        bounds = [
            (len(spec) * i // count, len(spec) * (i + 1) // count)
            for i in range(count)
        ]
        try:
            futures = [
                pool.submit(spec.batch_fn, spec.tasks[start:stop])
                for start, stop in bounds
            ]
        except BrokenProcessPool as exc:
            self.close()
            raise self._task_error(spec, 0, exc) from exc
        results: List[Any] = []
        for (start, stop), future in zip(bounds, futures):
            try:
                batch = future.result()
            except BrokenProcessPool as exc:
                self.close()
                raise self._task_error(spec, start, exc) from exc
            # Executor fault boundary (RPL006-conformant): cancel the
            # batches behind this one, rerun it task by task here and
            # raise the failing task's TaskError.
            except Exception as exc:
                for pending in futures:
                    pending.cancel()
                raise self._batch_error(spec, start, stop, exc) from exc
            results.extend(self._batch_results(spec, start, stop, batch))
        return results

    def stream(self, spec: ExperimentSpec) -> Iterator[Tuple[int, Any]]:
        # Same single-task shortcut as run(): no pickle round trip when
        # there is nothing to overlap.
        if len(spec) == 1 or self.jobs == 1:
            yield from SerialExecutor().stream(spec)
            return
        pool = self._ensure_pool()
        try:
            futures = {
                pool.submit(spec.fn, task): index
                for index, task in enumerate(spec.tasks)
            }
        except BrokenProcessPool as exc:
            self.close()
            raise self._task_error(spec, 0, exc) from exc
        try:
            for future in concurrent.futures.as_completed(futures):
                index = futures[future]
                try:
                    result = future.result()
                except BrokenProcessPool as exc:
                    self.close()
                    raise self._task_error(spec, index, exc) from exc
                # Executor fault boundary (RPL006-conformant): wrap the
                # failure into a labelled TaskError; the finally clause
                # below cancels whatever has not started yet.
                except Exception as exc:
                    raise self._task_error(spec, index, exc) from exc
                yield index, result
        finally:
            for pending in futures:
                pending.cancel()

    def close(self) -> None:
        """Shut the warm pool down; the next :meth:`run` recreates it."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def executor_for(jobs: Optional[int]) -> Executor:
    """The executor a ``--jobs`` style setting asks for.

    ``None``, 0 and 1 mean serial; anything larger is a process pool
    of that many workers.
    """
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(jobs=jobs)
