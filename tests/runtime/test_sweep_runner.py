"""Tests for the parallel, cached sweep engine."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import MemorySweep
from repro.exceptions import ConfigurationError
from repro.kernels.fft import BlockedFFT
from repro.kernels.matmul import BlockedMatrixMultiply
from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepPlan, SweepRunner

MEMORIES = (12, 27, 48)
SCALE = 12


class TestSweepPlan:
    def test_requires_exactly_one_of_problem_and_scale(self):
        kernel = BlockedMatrixMultiply()
        with pytest.raises(ConfigurationError):
            SweepPlan(kernel=kernel, memory_sizes=MEMORIES)
        with pytest.raises(ConfigurationError):
            SweepPlan(kernel=kernel, memory_sizes=MEMORIES, problem={"a": 1}, scale=2)

    def test_normalizes_memory_sizes(self):
        plan = SweepPlan(
            kernel=BlockedMatrixMultiply(), memory_sizes=(48, 12, 27), scale=SCALE
        )
        assert plan.memory_sizes == (12, 27, 48)

    def test_rejects_duplicate_sizes_naming_them(self):
        with pytest.raises(ConfigurationError, match="27"):
            SweepPlan(
                kernel=BlockedMatrixMultiply(),
                memory_sizes=(12, 27, 27),
                scale=SCALE,
            )


class TestSerialRuntime:
    def test_matches_memory_sweep_bitwise(self):
        legacy = MemorySweep(BlockedMatrixMultiply()).run_default(MEMORIES, SCALE)
        runtime = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert runtime.intensities == legacy.intensities
        assert runtime.io_words == legacy.io_words
        assert runtime.compute_ops == legacy.compute_ops
        assert runtime.memory_sizes == legacy.memory_sizes

    def test_fixed_problem_run_matches_memory_sweep(self, small_matrices):
        a, b = small_matrices
        legacy = MemorySweep(BlockedMatrixMultiply()).run(MEMORIES, a=a, b=b)
        runtime = SweepRunner().run(BlockedMatrixMultiply(), MEMORIES, a=a, b=b)
        assert runtime.intensities == legacy.intensities


class TestParallelRuntime:
    def test_parallel_is_bitwise_equal_to_serial(self):
        serial = SweepRunner().run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        parallel = SweepRunner(parallel=True, max_workers=2).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert parallel.intensities == serial.intensities
        assert parallel.io_words == serial.io_words
        assert parallel.compute_ops == serial.compute_ops

    def test_multi_plan_batch_keeps_plan_order(self):
        plans = [
            SweepPlan(kernel=BlockedMatrixMultiply(), memory_sizes=MEMORIES, scale=SCALE),
            SweepPlan(kernel=BlockedFFT(), memory_sizes=(4, 8, 64), scale=10),
        ]
        serial = SweepRunner().run_plans(plans)
        parallel = SweepRunner(parallel=True, max_workers=2).run_plans(plans)
        assert [r.kernel_name for r in parallel] == [r.kernel_name for r in serial]
        for s, p in zip(serial, parallel):
            assert p.intensities == s.intensities
            assert p.memory_sizes == s.memory_sizes

    def test_verify_propagates_from_workers(self):
        runner = SweepRunner(parallel=True, max_workers=2, verify=True)
        result = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert len(result.executions) == len(MEMORIES)

    def test_max_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(max_workers=0)


class TestCachedRuntime:
    def test_second_run_is_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = SweepRunner(cache=cache).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert cache.stats.misses == len(MEMORIES)
        assert cache.stats.stores == len(MEMORIES)
        warm = SweepRunner(cache=cache).run_default(
            BlockedMatrixMultiply(), MEMORIES, SCALE
        )
        assert cache.stats.hits == len(MEMORIES)
        assert warm.intensities == cold.intensities
        # Cold and warm runs both return the slim point record.
        assert warm.executions == cold.executions
        assert all(e.output is None for e in cold.executions)

    def test_different_scale_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, 16)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2 * len(MEMORIES)

    def test_clear_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        cache.clear()
        SweepRunner(cache=cache).run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert cache.stats.hits == 0

    def test_verify_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(cache=cache, verify=True)
        runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert cache.stats.lookups == 0
        assert cache.stats.stores == 0

    def test_parallel_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(parallel=True, max_workers=2, cache=cache)
        cold = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        warm = runner.run_default(BlockedMatrixMultiply(), MEMORIES, SCALE)
        assert warm.intensities == cold.intensities
        assert cache.stats.hits == len(MEMORIES)
