"""The fleet engine's shared delivery-mask block is released on every
path: after a clean sharded run on a process pool, and when a shard
fails mid-stream. Each check also attaches to the block by name
afterwards, so a block that is closed and released but never unlinked
still fails here."""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import List

import pytest

from repro.devtools.sanitizers import resources
from repro.engine import ParallelExecutor
from repro.scenarios import get_scenario
from repro.sim.fleet import run_fleet_scenario


class _NamingSanitizer(resources.ResourceSanitizer):
    """A resource sanitizer that remembers every shm block's name."""

    def __init__(self) -> None:
        super().__init__()
        self.shm_names: List[str] = []

    def track(self, kind: str, token: str, label: str) -> None:
        if kind == "shm":
            self.shm_names.append(token)
        super().track(kind, token, label)


class _FailingExecutor:
    """Runs the first shard in this process, then fails the stream."""

    jobs = 2

    def stream(self, spec):
        yield 0, spec.fn(spec.tasks[0])
        raise RuntimeError("shard 1 died")


@pytest.fixture(scope="module")
def config():
    return get_scenario("crowdsensing-probe-t1").config


def _assert_unlinked(names: List[str]) -> None:
    assert names, "the run never created a shared-memory block"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_sharded_pool_run_leaks_no_shared_memory(config):
    sanitizer = _NamingSanitizer()
    with ParallelExecutor(jobs=2) as executor:
        with resources.tracking(sanitizer):
            result = run_fleet_scenario(config, shards=2, executor=executor)
    assert [leak for leak in sanitizer.leaks() if leak.kind == "shm"] == []
    _assert_unlinked(sanitizer.shm_names)
    assert result.fleet == run_fleet_scenario(config).fleet


def test_block_is_released_when_a_shard_fails(config):
    sanitizer = _NamingSanitizer()
    with resources.tracking(sanitizer):
        with pytest.raises(RuntimeError, match="shard 1 died"):
            run_fleet_scenario(
                config, shards=2, executor=_FailingExecutor()  # type: ignore[arg-type]
            )
    assert sanitizer.leaks() == ()
    assert sanitizer.released == sanitizer.tracked == 1
    _assert_unlinked(sanitizer.shm_names)
