"""Tests for the operation/I-O counters and the memory budget."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError, MemoryCapacityError
from repro.kernels.counters import (
    IOCounter,
    MemoryBudget,
    OperationCounter,
    PhaseRecorder,
)


class TestOperationCounter:
    def test_accumulates(self):
        counter = OperationCounter()
        counter.add(10)
        counter.add(2.5)
        assert counter.total == pytest.approx(12.5)

    def test_reset(self):
        counter = OperationCounter()
        counter.add(5)
        counter.reset()
        assert counter.total == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            OperationCounter().add(-1)

    @pytest.mark.parametrize("count", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, count):
        counter = OperationCounter()
        with pytest.raises(ConfigurationError, match=repr(count)):
            counter.add(count)
        assert counter.total == 0


class TestIOCounter:
    def test_reads_and_writes_tracked_separately(self):
        counter = IOCounter()
        counter.read(10)
        counter.write(4)
        counter.read(6)
        assert counter.words_read == 16
        assert counter.words_written == 4
        assert counter.total == 20

    def test_reset(self):
        counter = IOCounter()
        counter.read(3)
        counter.reset()
        assert counter.total == 0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            IOCounter().read(-1)
        with pytest.raises(ConfigurationError):
            IOCounter().write(-1)

    @pytest.mark.parametrize("words", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, words):
        counter = IOCounter()
        with pytest.raises(ConfigurationError, match=repr(words)):
            counter.read(words)
        with pytest.raises(ConfigurationError, match=repr(words)):
            counter.write(words)
        assert counter.total == 0


class TestMemoryBudget:
    def test_allocate_and_free(self):
        budget = MemoryBudget(100)
        budget.allocate("a", 60)
        assert budget.resident_words == 60
        assert budget.free_words == 40
        budget.free("a")
        assert budget.resident_words == 0

    def test_peak_tracking(self):
        budget = MemoryBudget(100)
        budget.allocate("a", 60)
        budget.allocate("b", 30)
        budget.free("a")
        budget.allocate("c", 20)
        assert budget.peak_words == 90

    def test_overflow_raises_with_details(self):
        budget = MemoryBudget(50)
        budget.allocate("a", 40)
        with pytest.raises(MemoryCapacityError) as excinfo:
            budget.allocate("b", 20)
        assert excinfo.value.requested_words == 20
        assert excinfo.value.capacity_words == 50

    def test_duplicate_name_rejected(self):
        budget = MemoryBudget(50)
        budget.allocate("a", 10)
        with pytest.raises(ConfigurationError):
            budget.allocate("a", 10)

    def test_free_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(50).free("missing")

    def test_resize_grows_and_shrinks(self):
        budget = MemoryBudget(100)
        budget.allocate("heap", 10)
        budget.resize("heap", 80)
        assert budget.resident_words == 80
        budget.resize("heap", 5)
        assert budget.resident_words == 5
        assert budget.peak_words == 80

    def test_resize_beyond_capacity_rejected(self):
        budget = MemoryBudget(100)
        budget.allocate("heap", 10)
        with pytest.raises(MemoryCapacityError):
            budget.resize("heap", 200)

    def test_buffer_context_manager_frees_on_exit(self):
        budget = MemoryBudget(100)
        with budget.buffer("tmp", 70):
            assert budget.resident_words == 70
        assert budget.resident_words == 0

    def test_buffer_context_manager_frees_on_exception(self):
        budget = MemoryBudget(100)
        with pytest.raises(RuntimeError):
            with budget.buffer("tmp", 70):
                raise RuntimeError("boom")
        assert budget.resident_words == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            MemoryBudget(0)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_resident_never_exceeds_capacity(self, sizes):
        """Property: successful allocations never push residency over capacity."""
        budget = MemoryBudget(64)
        live = []
        for index, words in enumerate(sizes):
            name = f"buffer-{index}"
            try:
                budget.allocate(name, words)
                live.append(name)
            except MemoryCapacityError:
                pass
            assert 0 <= budget.resident_words <= budget.capacity_words
        for name in live:
            budget.free(name)
        assert budget.resident_words == 0


class TestPhaseRecorder:
    def test_records_phases_in_order(self):
        recorder = PhaseRecorder()
        recorder.record("load", 0, 100)
        recorder.record("compute", 500, 0)
        assert len(recorder) == 2
        assert [p.name for p in recorder] == ["load", "compute"]

    def test_total_sums_costs(self):
        recorder = PhaseRecorder()
        recorder.record("a", 10, 3)
        recorder.record("b", 20, 7)
        assert recorder.total == ComputationCost(30, 10)
