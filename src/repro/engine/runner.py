"""The runner: cache lookup, executor dispatch, ordered reassembly.

``Runner`` is the one code path every repeated computation in the
repository goes through. The flow per batch:

1. address every task (:meth:`ExperimentSpec.cache_key_for`);
2. answer what the :class:`~repro.engine.ResultCache` already holds;
3. hand *only the misses* to the executor (serial or process pool);
4. store fresh results and reassemble everything in task order.

Determinism: the result list depends only on the spec, never on the
executor choice or on which subset happened to be cached — the
equivalence tests assert serial == parallel == cached, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import CacheKeyError
from repro.engine.cache import ResultCache
from repro.engine.executors import Executor, SerialExecutor
from repro.engine.spec import ExperimentSpec

__all__ = ["Runner", "RunReport", "run_tasks"]


@dataclass(frozen=True)
class RunReport:
    """One batch's outcome plus where the results came from.

    Attributes:
        results: per-task results, task order.
        cache_hits: tasks answered by the cache.
        executed: tasks actually computed this run.
    """

    results: Tuple[Any, ...]
    cache_hits: int
    executed: int

    def __iter__(self) -> Iterator[Any]:
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class Runner:
    """Executes specs through an executor behind a result cache.

    Args:
        executor: defaults to :class:`SerialExecutor` — determinism
            first, parallelism on request.
        cache: when ``None`` every task is computed every time.
    """

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.cache = cache

    def run(self, spec: ExperimentSpec) -> List[Any]:
        """The results of ``spec``, task order; see :meth:`run_report`."""
        return list(self.run_report(spec).results)

    def run_report(self, spec: ExperimentSpec) -> RunReport:
        """Run ``spec`` and report the cache's contribution."""
        if self.cache is None:
            return RunReport(
                results=tuple(self.executor.run(spec)),
                cache_hits=0,
                executed=len(spec),
            )

        results: List[Any] = [None] * len(spec)
        keys: List[Optional[str]] = [None] * len(spec)
        miss_indices: List[int] = []
        for index in range(len(spec)):
            try:
                key = spec.cache_key_for(index)
            except CacheKeyError:
                # Unaddressable task payloads (closures, live objects)
                # degrade to compute-always instead of failing the run.
                miss_indices.append(index)
                continue
            keys[index] = key
            hit, value = self.cache.lookup(key)
            if hit:
                results[index] = value
            else:
                miss_indices.append(index)

        if miss_indices:
            sub_spec = replace(
                spec,
                tasks=tuple(spec.tasks[i] for i in miss_indices),
                task_labels=tuple(spec.label_for(i) for i in miss_indices),
            )
            fresh = self.executor.run(sub_spec)
            for index, value in zip(miss_indices, fresh):
                results[index] = value
                key = keys[index]
                if key is not None:
                    self.cache.store(key, value)

        return RunReport(
            results=tuple(results),
            cache_hits=len(spec) - len(miss_indices),
            executed=len(miss_indices),
        )


def run_tasks(
    fn: Callable[[Any], Any],
    tasks: Sequence[Any],
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    label: str = "experiment",
    task_labels: Optional[Sequence[str]] = None,
    batch_fn: Optional[Callable[[Tuple[Any, ...]], Sequence[Any]]] = None,
) -> List[Any]:
    """One-call engine front door: ``fn`` over ``tasks``, ordered.

    Equivalent to building an :class:`ExperimentSpec` and a
    :class:`Runner` by hand; the ``executor``/``cache`` keyword pair is
    the exact shape every library entry point forwards. ``batch_fn``
    computes runs of cache misses together (see :class:`ExperimentSpec`).
    """
    spec = ExperimentSpec.over(
        fn, tasks, label=label, task_labels=task_labels, batch_fn=batch_fn
    )
    return Runner(executor=executor, cache=cache).run(spec)
