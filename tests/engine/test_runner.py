"""Runner: cache short-circuiting, miss dispatch, ordered reassembly."""

from __future__ import annotations

from repro.engine import (
    ExperimentSpec,
    ResultCache,
    Runner,
    SerialExecutor,
    run_tasks,
)


def double(task: int) -> int:
    return 2 * task


CALLS = []


def recording_double(task: int) -> int:
    CALLS.append(task)
    return 2 * task


class TestWithoutCache:
    def test_runs_everything(self):
        report = Runner().run_report(ExperimentSpec(fn=double, tasks=(1, 2, 3)))
        assert report.results == (2, 4, 6)
        assert report.cache_hits == 0
        assert report.executed == 3

    def test_report_iterates_and_sizes(self):
        report = Runner().run_report(ExperimentSpec(fn=double, tasks=(1, 2)))
        assert list(report) == [2, 4]
        assert len(report) == 2


class TestWithCache:
    def test_second_run_is_all_hits(self):
        cache = ResultCache()
        runner = Runner(cache=cache)
        spec = ExperimentSpec(fn=double, tasks=(1, 2, 3))
        first = runner.run_report(spec)
        second = runner.run_report(spec)
        assert second.results == first.results
        assert second.cache_hits == 3
        assert second.executed == 0

    def test_partial_overlap_computes_only_new_tasks(self):
        CALLS.clear()
        cache = ResultCache()
        runner = Runner(cache=cache)
        runner.run(ExperimentSpec(fn=recording_double, tasks=(1, 2)))
        report = runner.run_report(
            ExperimentSpec(fn=recording_double, tasks=(2, 3, 1))
        )
        assert report.results == (4, 6, 2)
        assert report.cache_hits == 2
        assert report.executed == 1
        assert CALLS == [1, 2, 3]  # 3 computed once, never 1 or 2 again

    def test_cache_is_shared_across_runners(self):
        cache = ResultCache()
        Runner(cache=cache).run(ExperimentSpec(fn=double, tasks=(7,)))
        report = Runner(cache=cache).run_report(
            ExperimentSpec(fn=double, tasks=(7,))
        )
        assert report.cache_hits == 1

    def test_unaddressable_task_degrades_to_compute(self):
        # Payload contains a live object stable_key cannot fold; the
        # runner must compute it every time rather than crash.
        cache = ResultCache()
        runner = Runner(cache=cache)
        spec = ExperimentSpec(fn=len, tasks=([object(), object()],))
        assert runner.run(spec) == [2]
        report = runner.run_report(spec)
        assert report.cache_hits == 0
        assert report.executed == 1


class TestRunTasks:
    def test_front_door(self):
        assert run_tasks(double, [1, 2, 3]) == [2, 4, 6]

    def test_front_door_with_cache_and_executor(self):
        cache = ResultCache()
        first = run_tasks(double, (4, 5), executor=SerialExecutor(), cache=cache)
        second = run_tasks(double, (4, 5), cache=cache)
        assert first == second == [8, 10]
        assert cache.stats.hits == 2


BATCHES = []


def recording_double_batch(tasks: tuple) -> list:
    BATCHES.append(tasks)
    return [2 * task for task in tasks]


class TestBatchWorker:
    def test_misses_run_as_one_batch(self):
        BATCHES.clear()
        cache = ResultCache()
        assert run_tasks(double, (1, 3), cache=cache,
                         batch_fn=recording_double_batch) == [2, 6]
        assert run_tasks(double, (1, 2, 3, 4), cache=cache,
                         batch_fn=recording_double_batch) == [2, 4, 6, 8]
        assert BATCHES == [(1, 3), (2, 4)]
        assert cache.stats.hits == 2

    def test_cache_is_shared_with_the_per_task_worker(self):
        cache = ResultCache()
        run_tasks(double, (5,), cache=cache)
        BATCHES.clear()
        assert run_tasks(double, (5, 6), cache=cache,
                         batch_fn=recording_double_batch) == [10, 12]
        assert BATCHES == [(6,)]
