"""The unit of work the experiment engine schedules.

An :class:`ExperimentSpec` is a *homogeneous batch*: one picklable
worker function applied to a sequence of picklable task payloads. That
shape covers every repetition the codebase performs — seeds of a
scenario, cells of a parameter sweep, attack levels of a cost curve —
and is exactly what both a serial loop and a process pool can execute,
so the choice of executor becomes a parameter instead of a rewrite.

A spec may also carry a *batch worker*: one call that computes a whole
run of tasks together, for workers whose tasks share array work (the
attack levels of a cost curve solve as one ``(p, m)`` plane). It must
return exactly what ``fn`` returns task by task; executors call it on
contiguous runs of tasks, and ``fn`` stays the per-task definition that
names a failing task and addresses the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.engine.hashing import CODE_VERSION, stable_key

__all__ = ["ExperimentSpec"]


def _worker_fingerprint(fn: Callable[[Any], Any]) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"


@dataclass(frozen=True)
class ExperimentSpec:
    """A batch of tasks for one worker function.

    Attributes:
        fn: the worker — a module-level callable (so
            :class:`~repro.engine.ParallelExecutor` can pickle it)
            taking one task payload and returning one result.
        tasks: the payloads, one per task, in result order.
        label: human-readable batch name, used in progress/error text.
        task_labels: per-task names for failure isolation (defaults to
            ``task[i]``); a crashed cell reports *which* cell died.
        batch_fn: optional module-level callable taking a tuple of task
            payloads and returning their results in order, equal to
            ``[fn(task) for task in tasks]``.
    """

    fn: Callable[[Any], Any]
    tasks: Tuple[Any, ...]
    label: str = "experiment"
    task_labels: Optional[Tuple[str, ...]] = field(default=None)
    batch_fn: Optional[Callable[[Tuple[Any, ...]], Sequence[Any]]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ConfigurationError(f"{self.label}: tasks must be non-empty")
        if self.task_labels is not None:
            labels = tuple(self.task_labels)
            object.__setattr__(self, "task_labels", labels)
            if len(labels) != len(self.tasks):
                raise ConfigurationError(
                    f"{self.label}: {len(labels)} task_labels for"
                    f" {len(self.tasks)} tasks"
                )

    def __len__(self) -> int:
        return len(self.tasks)

    def label_for(self, index: int) -> str:
        """The display label of task ``index``."""
        if self.task_labels is not None:
            return self.task_labels[index]
        return f"task[{index}]"

    def cache_key_for(self, index: int) -> str:
        """Content address of task ``index``.

        Folds the engine code version, the worker's qualified name and
        the task payload, so the same payload run through a different
        worker (or a newer release) can never satisfy the lookup.
        """
        return stable_key(
            (CODE_VERSION, _worker_fingerprint(self.fn), self.tasks[index])
        )

    @classmethod
    def over(
        cls,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        label: str = "experiment",
        task_labels: Optional[Sequence[str]] = None,
        batch_fn: Optional[Callable[[Tuple[Any, ...]], Sequence[Any]]] = None,
    ) -> "ExperimentSpec":
        """Convenience constructor accepting any sequences."""
        return cls(
            fn=fn,
            tasks=tuple(tasks),
            label=label,
            task_labels=tuple(task_labels) if task_labels is not None else None,
            batch_fn=batch_fn,
        )
