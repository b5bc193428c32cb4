"""Tests for the content-addressed task cache and its keys."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro.kernels.grid import GridRelaxation
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.runtime.cache import (
    MISS,
    ResultCache,
    TaskCache,
    execution_key,
    kernel_code_version,
)


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def _one_execution(kernel=None, memory=27, scale=12):
    kernel = kernel or BlockedMatrixMultiply()
    problem = kernel.problem_for_memory(memory, scale)
    return kernel, problem, kernel.execute(memory, **problem)


class TestExecutionKey:
    def test_key_is_deterministic_across_instances(self):
        kernel_a = BlockedMatrixMultiply()
        kernel_b = BlockedMatrixMultiply()
        problem_a = kernel_a.problem_for_memory(27, 12)
        problem_b = kernel_b.problem_for_memory(27, 12)
        assert execution_key(kernel_a, 27, problem_a) == execution_key(
            kernel_b, 27, problem_b
        )

    def test_key_depends_on_memory_size(self):
        kernel = BlockedMatrixMultiply()
        problem = kernel.problem_for_memory(27, 12)
        assert execution_key(kernel, 27, problem) != execution_key(kernel, 48, problem)

    def test_key_depends_on_problem_contents(self):
        kernel = BlockedMatrixMultiply()
        problem_small = kernel.problem_for_memory(27, 12)
        problem_large = kernel.problem_for_memory(27, 16)
        assert execution_key(kernel, 27, problem_small) != execution_key(
            kernel, 27, problem_large
        )

    def test_key_depends_on_kernel_configuration(self):
        """Two GridRelaxation instances share source but not configuration."""
        grid2 = GridRelaxation(dimension=2)
        grid3 = GridRelaxation(dimension=3)
        problem = {"n": 64}
        assert execution_key(grid2, 512, problem) != execution_key(grid3, 512, problem)

    def test_code_version_differs_between_kernel_classes(self):
        assert kernel_code_version(BlockedMatrixMultiply()) != kernel_code_version(
            GridRelaxation(dimension=2)
        )


class TestResultCache:
    """``ResultCache`` is the task cache; sweep points are keyed by
    :func:`execution_key` and hold the slim execution record."""

    def test_miss_then_hit_roundtrip(self, cache):
        kernel, problem, execution = _one_execution()
        key = execution_key(kernel, 27, problem)
        assert cache.load(key) is MISS
        cache.store(key, execution)
        cached = cache.load(key)
        assert cached.cost.compute_ops == execution.cost.compute_ops
        assert cached.cost.io_words == execution.cost.io_words
        assert cached.intensity == execution.intensity
        assert cached.peak_memory_words == execution.peak_memory_words
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_len_and_clear_invalidate_everything(self, cache):
        kernel, problem, execution = _one_execution()
        for memory in (12, 27, 48):
            run = kernel.execute(memory, **problem)
            cache.store(execution_key(kernel, memory, problem), run)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0
        assert cache.load(execution_key(kernel, 12, problem)) is MISS

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        kernel, problem, execution = _one_execution()
        key = execution_key(kernel, 27, problem)
        cache.store(key, execution)
        path = cache._path(key)
        path.write_text("{not a pickle")
        assert cache.load(key) is MISS
        assert not path.exists()

    def test_wrong_schema_is_a_miss(self, cache):
        kernel, problem, execution = _one_execution()
        key = execution_key(kernel, 27, problem)
        cache.store(key, execution)
        path = cache._path(key)
        entry = pickle.loads(path.read_bytes())
        entry["schema"] = 999
        path.write_bytes(pickle.dumps(entry))
        assert cache.load(key) is MISS


class TestDiskUsage:
    def test_result_cache_reports_entry_bytes(self, cache):
        assert cache.disk_usage_bytes() == 0
        kernel, problem, execution = _one_execution()
        key = execution_key(kernel, 27, problem)
        cache.store(key, execution)
        usage = cache.disk_usage_bytes()
        assert usage == cache._path(key).stat().st_size > 0

    def test_task_cache_reports_entry_bytes(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        assert store.disk_usage_bytes() == 0
        store.store("ab" * 32, list(range(100)))
        assert store.disk_usage_bytes() > 0
        store.clear()
        assert store.disk_usage_bytes() == 0

    def test_task_cache_usage_ignores_foreign_files(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        store.store("ab" * 32, "value")
        (store.root / "ab" / "scratch.tmp").write_bytes(b"x" * 4096)
        assert store.disk_usage_bytes() == store._path("ab" * 32).stat().st_size


class TestConcurrentWriters:
    """Two writers storing the same key must both succeed via ``_atomic_write``
    with no torn reads: a concurrent ``load`` sees a complete entry or a miss,
    never a truncated one."""

    def test_racing_task_stores_and_loads_never_tear(self, tmp_path):
        store = TaskCache(tmp_path / "tasks")
        key = "cd" * 32
        # A value whose pickle is large enough that a torn write would be
        # visible, and whose content the readers can fully validate.
        value = {"grid": np.arange(20_000, dtype=np.float64), "label": "x" * 4096}
        errors: list[str] = []
        start = threading.Barrier(6)

        def write() -> None:
            start.wait()
            for _ in range(25):
                store.store(key, value)

        def read() -> None:
            start.wait()
            for _ in range(50):
                loaded = store.load(key)
                if loaded is MISS:
                    continue
                if loaded["label"] != value["label"] or not np.array_equal(
                    loaded["grid"], value["grid"]
                ):
                    errors.append("torn read")  # pragma: no cover - failure path

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads += [threading.Thread(target=read) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert store.stats.stores == 50
        final = store.load(key)
        assert np.array_equal(final["grid"], value["grid"])
        # Both writers published complete entries; exactly one file remains.
        assert len(store) == 1

    def test_racing_result_stores_agree(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        kernel, problem, execution = _one_execution()
        key = execution_key(kernel, 27, problem)
        start = threading.Barrier(4)
        misses_before = cache.stats.misses

        def write() -> None:
            start.wait()
            for _ in range(20):
                cache.store(key, execution)

        loaded: list[object] = []

        def read() -> None:
            start.wait()
            for _ in range(40):
                entry = cache.load(key)
                if entry is not MISS:
                    loaded.append(entry)

        threads = [threading.Thread(target=write) for _ in range(2)]
        threads += [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert cache.stats.stores == 40
        # Every successful load reconstructed the same measured numbers.
        for entry in loaded:
            assert entry.cost == execution.cost
            assert entry.peak_memory_words == execution.peak_memory_words
        assert misses_before <= cache.stats.misses <= misses_before + 80
        assert len(cache) == 1
