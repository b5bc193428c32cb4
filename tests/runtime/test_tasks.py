"""Tests for the generic experiment-task runtime."""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.exceptions import ConfigurationError, TaskExecutionError
from repro.runtime.cache import MISS, TaskCache
from repro.runtime.tasks import (
    Task,
    TaskRunner,
    callable_code_version,
    default_worker_count,
    task_key,
)
from repro.service import JobService
from repro.service.retry import is_transient


def square(x: int) -> int:
    return x * x


def offset_square(x: int, offset: int = 0) -> int:
    return x * x + offset


class TestTask:
    def test_run_applies_params(self):
        assert Task(fn=square, params={"x": 7}).run() == 49

    def test_label_defaults_to_qualified_name(self):
        task = Task(fn=square, params={"x": 2})
        assert task.label.endswith("square")
        assert Task(fn=square, params={"x": 2}, name="sq2").label == "sq2"

    def test_rejects_non_callable(self):
        with pytest.raises(ConfigurationError):
            Task(fn=42, params={})

    def test_rejects_lambdas_and_nested_functions(self):
        with pytest.raises(ConfigurationError):
            Task(fn=lambda x: x, params={"x": 1})

        def nested(x):
            return x

        with pytest.raises(ConfigurationError):
            Task(fn=nested, params={"x": 1})

    def test_tasks_are_picklable(self):
        task = Task(fn=square, params={"x": 3}, name="sq3")
        clone = pickle.loads(pickle.dumps(task))
        assert clone.run() == 9
        assert clone.key() == task.key()


class TestTaskKey:
    def test_stable_across_calls(self):
        assert task_key(square, {"x": 5}) == task_key(square, {"x": 5})

    def test_sensitive_to_params(self):
        assert task_key(square, {"x": 5}) != task_key(square, {"x": 6})

    def test_sensitive_to_callable(self):
        assert task_key(square, {"x": 5}) != task_key(offset_square, {"x": 5})

    def test_sensitive_to_extra_modules(self):
        bare = task_key(square, {"x": 5})
        with_module = task_key(square, {"x": 5}, modules=("repro.pebble.game",))
        assert bare != with_module

    def test_code_version_covers_named_modules(self):
        bare = callable_code_version(square)
        extended = callable_code_version(square, ("repro.pebble.game",))
        assert bare != extended


class TestTaskCache:
    def test_store_and_load_round_trip(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("ab" * 32, {"answer": 42}, label="probe")
        assert cache.load("ab" * 32) == {"answer": 42}
        assert cache.stats.hits == 1 and cache.stats.stores == 1

    def test_missing_key_is_miss(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        assert cache.load("cd" * 32) is MISS
        assert cache.stats.misses == 1

    def test_cached_none_is_distinguishable_from_miss(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("ef" * 32, None)
        assert cache.load("ef" * 32) is None

    def test_corrupt_entry_is_dropped_and_missed(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        key = "12" * 32
        cache.store(key, [1, 2, 3])
        path = cache._path(key)
        path.write_bytes(b"not a pickle")
        assert cache.load(key) is MISS
        assert not path.exists()

    def test_len_and_clear(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        cache.store("aa" * 32, 1)
        cache.store("bb" * 32, 2)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0


class TestTaskRunner:
    def test_serial_matches_parallel_bitwise(self):
        tasks = [Task(fn=offset_square, params={"x": x, "offset": 1}) for x in range(6)]
        serial = TaskRunner().run(tasks)
        parallel = TaskRunner(parallel=True, max_workers=2).run(tasks)
        assert serial == parallel == [x * x + 1 for x in range(6)]

    def test_results_preserve_submission_order(self):
        tasks = [Task(fn=square, params={"x": x}) for x in (5, 1, 4, 2)]
        runner = TaskRunner(parallel=True, max_workers=2)
        assert runner.run(tasks) == [25, 1, 16, 4]
        runner.close()

    def test_warm_rerun_replays_from_cache(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        tasks = [Task(fn=square, params={"x": x}) for x in range(4)]
        cold = TaskRunner(cache=cache).run(tasks)
        assert cache.stats.misses == cache.stats.stores == 4
        warm = TaskRunner(cache=cache).run(tasks)
        assert cache.stats.hits == 4
        assert warm == cold

    def test_cache_distinguishes_params(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        runner = TaskRunner(cache=cache)
        runner.run([Task(fn=square, params={"x": 2})])
        runner.run([Task(fn=square, params={"x": 3})])
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2

    def test_run_one(self):
        assert TaskRunner().run_one(Task(fn=square, params={"x": 9})) == 81

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            TaskRunner(max_workers=0)

    def test_empty_batch(self):
        assert TaskRunner(parallel=True).run([]) == []


class TestExecuteTasks:
    def test_parallel_pool_produces_submission_order(self):
        tasks = [Task(fn=square, params={"x": x}) for x in range(8)]
        runner = TaskRunner(parallel=True, max_workers=3)
        assert runner.run(tasks) == [x * x for x in range(8)]
        runner.close()


def test_default_worker_count_positive():
    assert default_worker_count() >= 1


def boom(x: int) -> int:
    raise ValueError(f"cannot handle x={x}")


class TestFailureLabels:
    def test_serial_failure_names_the_task(self):
        tasks = [
            Task(fn=square, params={"x": 2}),
            Task(fn=boom, params={"x": 3}, name="doomed-task"),
        ]
        with pytest.raises(TaskExecutionError) as excinfo:
            TaskRunner().run(tasks)
        assert excinfo.value.label == "doomed-task"
        assert "doomed-task" in str(excinfo.value)
        assert "cannot handle x=3" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_parallel_failure_names_the_task(self):
        tasks = [Task(fn=square, params={"x": 1})] + [
            Task(fn=boom, params={"x": x}, name=f"doomed-{x}") for x in (7, 8)
        ]
        runner = TaskRunner(parallel=True, max_workers=2)
        with pytest.raises(TaskExecutionError) as excinfo:
            runner.run(tasks)
        runner.close()
        # The first failure in submission order wins, as in a serial run.
        assert excinfo.value.label == "doomed-7"

    def test_runner_surfaces_the_label_too(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            TaskRunner().run([Task(fn=boom, params={"x": 5}, name="doomed")])
        assert excinfo.value.label == "doomed"

    def test_default_label_is_the_qualified_name(self):
        with pytest.raises(TaskExecutionError) as excinfo:
            TaskRunner().run([Task(fn=boom, params={"x": 5})])
        assert excinfo.value.label.endswith("boom")


class TestInBatchDedup:
    def test_duplicate_tasks_execute_once(self):
        runner = TaskRunner()
        tasks = [Task(fn=square, params={"x": 3}) for _ in range(4)]
        assert runner.run(tasks) == [9, 9, 9, 9]
        assert runner.stats.executed == 1
        assert runner.stats.deduped == 3

    def test_dedup_preserves_order_across_mixed_batches(self):
        runner = TaskRunner()
        xs = [5, 1, 5, 4, 1, 5]
        tasks = [Task(fn=square, params={"x": x}) for x in xs]
        assert runner.run(tasks) == [x * x for x in xs]
        assert runner.stats.executed == 3
        assert runner.stats.deduped == 3

    def test_dedup_composes_with_the_cache(self, tmp_path):
        cache = TaskCache(tmp_path / "tasks")
        runner = TaskRunner(cache=cache)
        runner.run([Task(fn=square, params={"x": 2}) for _ in range(3)])
        assert runner.stats.executed == 1
        assert runner.stats.deduped == 2
        assert cache.stats.stores == 1
        # A warm rerun resolves everything from the cache.
        runner.run([Task(fn=square, params={"x": 2}) for _ in range(3)])
        assert runner.stats.cache_hits == 3
        assert runner.stats.executed == 1

    def test_stats_resolved_totals(self):
        runner = TaskRunner()
        runner.run([Task(fn=square, params={"x": x % 2}) for x in range(4)])
        stats = runner.stats
        assert stats.resolved == 4
        assert stats.as_dict() == {
            "executed": 2,
            "cache_hits": 0,
            "deduped": 2,
        }


def pid(x: int) -> int:
    return os.getpid()


def parent_pid(x: int) -> int:
    return os.getppid()


def die(x: int) -> int:
    os._exit(1)


def _wait_gone(pids, timeout: float = 10.0) -> set[int]:
    """The pids still alive after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    alive = set(pids)
    while alive and time.monotonic() < deadline:
        for p in list(alive):
            try:
                os.kill(p, 0)
            except ProcessLookupError:
                alive.discard(p)
        time.sleep(0.02)
    return alive


class TestLongLivedPool:
    def _pid_tasks(self, first: int = 0) -> list[Task]:
        return [Task(fn=pid, params={"x": x}) for x in range(first, first + 4)]

    def test_workers_are_reused_across_runs(self):
        runner = TaskRunner(parallel=True, max_workers=2)
        try:
            first = set(runner.run(self._pid_tasks()))
            second = set(runner.run(self._pid_tasks(first=4)))
        finally:
            runner.close()
        # A pool per batch would show two fresh workers the second time.
        assert len(first | second) <= 2
        assert os.getpid() not in first | second

    def test_dead_worker_is_transient_and_the_runner_recovers(self):
        runner = TaskRunner(parallel=True, max_workers=2)
        try:
            with pytest.raises(Exception) as excinfo:
                runner.run([Task(fn=die, params={"x": x}) for x in range(2)])
            assert is_transient(excinfo.value)
            assert runner.run([Task(fn=square, params={"x": x}) for x in range(3)]) == [
                0, 1, 4,
            ]
        finally:
            runner.close()

    def test_workers_are_not_forked_from_the_caller(self):
        runner = TaskRunner(parallel=True, max_workers=2)
        try:
            parents = runner.run([Task(fn=parent_pid, params={"x": x}) for x in range(4)])
        finally:
            runner.close()
        # fork() would make this process every worker's parent; forkserver
        # workers are children of the fork server.
        assert os.getpid() not in parents

    def test_no_worker_outlives_close_or_drain(self, tmp_path):
        runner = TaskRunner(parallel=True, max_workers=2)
        pids = set(runner.run(self._pid_tasks()))
        runner.close()
        assert _wait_gone(pids) == set()

        service = JobService(cache_dir=tmp_path / "cache", workers=1, max_workers=2)
        service.start()
        pids = set(service.executor.task_runner.run(self._pid_tasks()))
        assert service.drain(timeout=5.0) is True
        assert _wait_gone(pids) == set()
