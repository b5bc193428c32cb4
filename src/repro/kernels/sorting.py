"""Two-phase external sorting (Section 3.5).

Phase 1 reads the ``N`` keys in runs of ``M``, sorts each run entirely inside
the local memory (``Theta(M log2 M)`` comparisons for ``Theta(M)`` I/O) and
writes the sorted runs back.  Phase 2 merges the runs with an ``M``-way merge
driven by a binary heap of at most ``M`` elements: each word of I/O to or
from the heap is accompanied by ``Theta(log2 M)`` comparisons.

Both phases therefore have intensity ``Theta(log2 M)`` -- exactly the FFT's
-- and the rebalancing law is the exponential ``M_new = M_old ** alpha``.
Song (1981) shows this is the best possible for comparison sorting.

The kernel counts *comparisons* as its operations (the paper's cost measure
for sorting) and words moved as I/O, and its output is verified against
``numpy.sort``.  Comparison counts depend on the data, so the algorithm runs
as written, but the counting is batched: the merge sort tallies its
comparisons in a local and charges them once per call, the heap once per
sift, and each merge group charges its word reads and writes once.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel
from repro.kernels.counters import OperationCounter

__all__ = ["ExternalMergeSort", "CountingHeap", "merge_sort_counting"]


def merge_sort_counting(values: list[float], ops: OperationCounter) -> list[float]:
    """Stable merge sort that charges all its key comparisons to ``ops`` at once."""
    comparisons = 0

    def sort(items: list[float]) -> list[float]:
        nonlocal comparisons
        n = len(items)
        if n <= 1:
            return items
        left, right = sort(items[: n // 2]), sort(items[n // 2 :])
        merged: list[float] = []
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                j += 1
        comparisons += i + j
        return merged + left[i:] + right[j:]

    result = sort(list(values))
    ops.add(comparisons)
    return result


class CountingHeap:
    """Binary min-heap over ``(key, payload)`` pairs that counts comparisons.

    Used for the M-way merge of phase 2: the heap holds the head element of
    each run currently being merged, so its size never exceeds the number of
    runs (which is at most ``M``).  Each sift charges its comparisons in one
    ``ops.add`` call, so the count is exact after every push and pop.
    """

    def __init__(self, ops: OperationCounter) -> None:
        self._items: list[tuple[float, Any]] = []
        self._ops = ops

    def __len__(self) -> int:
        return len(self._items)

    def push(self, key: float, payload: Any = None) -> None:
        items = self._items
        items.append((key, payload))
        index = len(items) - 1
        comparisons = 0
        while index > 0:
            parent = (index - 1) // 2
            comparisons += 1
            if not key < items[parent][0]:
                break
            items[index], items[parent] = items[parent], items[index]
            index = parent
        self._ops.add(comparisons)

    def pop(self) -> tuple[float, Any]:
        items = self._items
        if not items:
            raise ConfigurationError("cannot pop from an empty heap")
        top, last = items[0], items.pop()
        if not items:
            return top
        items[0] = last
        index, size, comparisons = 0, len(items), 0
        while True:
            left = 2 * index + 1
            right = left + 1
            smallest = index
            if left < size:
                comparisons += 1
                if items[left][0] < items[smallest][0]:
                    smallest = left
            if right < size:
                comparisons += 1
                if items[right][0] < items[smallest][0]:
                    smallest = right
            if smallest == index:
                break
            items[index], items[smallest] = items[smallest], items[index]
            index = smallest
        self._ops.add(comparisons)
        return top


class ExternalMergeSort(Kernel):
    """Sort ``N`` keys with an ``M``-word local memory: run formation + M-way merge."""

    registry_name = "sorting"
    minimum_memory_words = 4

    def default_problem(self, scale: int) -> dict[str, Any]:
        rng = np.random.default_rng(scale)
        n = max(8, int(scale))
        return {"keys": rng.standard_normal(n)}

    def reference(self, *, keys: Sequence[float]) -> np.ndarray:
        return np.sort(np.asarray(keys, dtype=float))

    def analytic_cost(self, memory_words: int, *, keys: Sequence[float]) -> ComputationCost:
        n = len(keys)
        m = max(2, memory_words)
        runs = max(1, math.ceil(n / m))
        phase1_ops = n * math.log2(min(m, n))
        phase1_io = 2.0 * n
        fan_in = max(2, m - 1)
        merge_passes = max(0.0, math.ceil(math.log(runs, fan_in))) if runs > 1 else 0.0
        phase2_ops = n * math.log2(fan_in) * merge_passes
        phase2_io = 2.0 * n * merge_passes
        return ComputationCost(phase1_ops + phase2_ops, phase1_io + phase2_io)

    def _run(self, ctx: ExecutionContext, *, keys: Sequence[float]) -> np.ndarray:
        keys = [float(k) for k in np.asarray(keys, dtype=float)]
        n = len(keys)
        if n == 0:
            return np.asarray([], dtype=float)
        m = ctx.memory.capacity_words

        # ---- Phase 1: run formation -------------------------------------
        runs: list[list[float]] = []
        phase_ops_before = ctx.ops.total
        phase_io = 0.0
        for start in range(0, n, m):
            chunk = keys[start : start + m]
            with ctx.memory.buffer("run", len(chunk)):
                ctx.io.read(len(chunk))
                sorted_chunk = merge_sort_counting(chunk, ctx.ops)
                ctx.io.write(len(chunk))
                phase_io += 2.0 * len(chunk)
            runs.append(sorted_chunk)
        ctx.phases.record("run-formation", ctx.ops.total - phase_ops_before, phase_io)

        # ---- Phase 2: repeated M-way merge -------------------------------
        # The heap plus one buffered element per participating run must fit
        # in local memory, so at most (m // 2) runs are merged at a time.
        fan_in = max(2, m // 2)
        merge_round = 0
        while len(runs) > 1:
            merge_round += 1
            phase_ops_before = ctx.ops.total
            phase_io = 0.0
            next_runs: list[list[float]] = []
            for group_start in range(0, len(runs), fan_in):
                group = runs[group_start : group_start + fan_in]
                if len(group) == 1:
                    next_runs.append(group[0])
                    continue
                heap_words = len(group)
                buffer_words = len(group)
                with ctx.memory.buffer("merge-heap", heap_words), \
                        ctx.memory.buffer("run-heads", buffer_words):
                    heap = CountingHeap(ctx.ops)
                    positions = [1] * len(group)
                    for run_index, run in enumerate(group):
                        heap.push(run[0], run_index)
                    merged: list[float] = []
                    for _ in range(sum(map(len, group))):
                        key, run_index = heap.pop()
                        merged.append(key)
                        run = group[run_index]
                        if positions[run_index] < len(run):
                            heap.push(run[positions[run_index]], run_index)
                            positions[run_index] += 1
                    # Every key of the group is read into the heap once and
                    # written out once.
                    ctx.io.read(len(merged))
                    ctx.io.write(len(merged))
                    phase_io += 2.0 * len(merged)
                    next_runs.append(merged)
            runs = next_runs
            ctx.phases.record(
                f"merge-pass[{merge_round}]", ctx.ops.total - phase_ops_before, phase_io
            )

        return np.asarray(runs[0], dtype=float)
