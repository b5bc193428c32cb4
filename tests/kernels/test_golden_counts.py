"""Golden counts for the counted FFT, external-sort, matmul and LU kernels.

``golden_counts.json`` holds, per ``(kernel, scale, M)`` case, the exact
operation count, words read and written, every phase record and the peak
residency that the per-butterfly / per-comparison / per-tile implementation
produced (plus a digest of the sorted output).  Matmul cases may instead
give non-square operand shapes or an explicit ``tile_shape``; cases
with ``resident_words`` run against a memory that already holds that many
words and record the capacity error the kernel raised.  The closed-form
counting in :mod:`repro.kernels.fft`, :mod:`repro.kernels.sorting`,
:mod:`repro.kernels.matmul` and :mod:`repro.kernels.triangularization`
must reproduce them bit for bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import exceptions
from repro.kernels.base import ExecutionContext, outputs_match
from repro.kernels.counters import OperationCounter
from repro.kernels.fft import BlockedFFT, block_points_for_memory, decomposition_plan
from repro.kernels.matmul import BlockedMatrixMultiply, tile_side_for_memory
from repro.kernels.sorting import CountingHeap, ExternalMergeSort, merge_sort_counting
from repro.kernels.triangularization import BlockedLUTriangularization, unblocked_lu

GOLDEN = json.loads((Path(__file__).with_name("golden_counts.json")).read_text())
KERNELS = {
    "fft": BlockedFFT,
    "sorting": ExternalMergeSort,
    "matmul": BlockedMatrixMultiply,
    "triangularization": BlockedLUTriangularization,
}


def _case_id(case: dict) -> str:
    size = "x".join(map(str, case["shape"])) if "shape" in case else f"s{case['scale']}"
    case_id = f"{case['kernel']}-{size}-M{case['memory_words']}"
    if "tile_shape" in case:
        case_id += "-tile{}x{}".format(*case["tile_shape"])
    if "resident_words" in case:
        case_id += f"-resident{case['resident_words']}"
    return case_id


def _kernel_and_problem(case: dict):
    if "tile_shape" in case:
        kernel = KERNELS[case["kernel"]](tile_shape=tuple(case["tile_shape"]))
    else:
        kernel = KERNELS[case["kernel"]]()
    if "shape" not in case:
        return kernel, kernel.default_problem(case["scale"])
    rows, inner, cols = case["shape"]
    rng = np.random.default_rng(0)
    a = rng.standard_normal((rows, inner))
    return kernel, {"a": a, "b": rng.standard_normal((inner, cols))}


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_counts_match_golden(case):
    kernel, problem = _kernel_and_problem(case)
    ctx = ExecutionContext.with_capacity(case["memory_words"])
    if "resident_words" in case:
        ctx.memory.allocate("resident", case["resident_words"])
    if "error" in case:
        with pytest.raises(getattr(exceptions, case["error"]["type"])) as caught:
            kernel._run(ctx, **problem)
        assert str(caught.value) == case["error"]["message"]
        assert ctx.memory.peak_words == case["peak_memory_words"]
        return
    output = kernel._run(ctx, **problem)

    phases = [[p.name, p.cost.compute_ops, p.cost.io_words] for p in ctx.phases]
    assert ctx.ops.total == case["compute_ops"]
    assert ctx.io.words_read == case["words_read"]
    assert ctx.io.words_written == case["words_written"]
    assert phases == case["phases"]
    assert all(type(ops) is float and type(io) is float for _, ops, io in phases)
    assert ctx.memory.peak_words == case["peak_memory_words"]

    if case["kernel"] == "sorting":
        digest = hashlib.sha256(np.ascontiguousarray(output, dtype=float).tobytes())
        assert digest.hexdigest() == case["output_sha256"]
    else:
        assert outputs_match(output, kernel.reference(**problem))


def _reference_plan(n_points: int, memory_words: int) -> list[tuple[int, int, tuple]]:
    """The decomposition built index by index, first-seen group order."""
    block = min(block_points_for_memory(memory_words), n_points)
    total, per_pass = n_points.bit_length() - 1, block.bit_length() - 1
    plan = []
    for stage in range(0, total, per_pass):
        last = min(stage + per_pass, total)
        mid_mask = ((1 << last) - 1) ^ ((1 << stage) - 1)
        groups: dict[int, tuple[int, ...]] = {}
        for index in range(n_points):
            key = index & ~mid_mask
            groups.setdefault(key, tuple(key | (j << stage) for j in range(1 << (last - stage))))
        plan.append((stage, last, tuple(groups.values())))
    return plan


@pytest.mark.parametrize("n_points, memory_words", [(16, 8), (64, 5), (256, 32), (1024, 64)])
def test_decomposition_plan_matches_index_by_index_build(n_points, memory_words):
    plan = decomposition_plan(n_points, memory_words)
    assert [(p.first_stage, p.last_stage, p.groups) for p in plan] == _reference_plan(
        n_points, memory_words
    )
    for fft_pass in plan:
        assert all(type(index) is int for group in fft_pass.groups for index in group)


def _butterfly_by_butterfly(x: np.ndarray, memory_words: int) -> np.ndarray:
    """The blocked FFT one scalar butterfly at a time, group by group."""
    n = len(x)
    bits = n.bit_length() - 1
    data = np.asarray(x, dtype=complex)[[int(f"{i:0{bits}b}"[::-1], 2) for i in range(n)]]
    for fft_pass in decomposition_plan(n, memory_words):
        for group in fft_pass.groups:
            for stage in range(fft_pass.first_stage, fft_pass.last_stage):
                half = 1 << (stage - fft_pass.first_stage)
                for j in range(len(group)):
                    if not j & half:
                        lo, hi = group[j], group[j | half]
                        w = np.exp(-2j * np.pi * (lo % (1 << stage)) / (1 << (stage + 1)))
                        t = w * data[hi]
                        data[lo], data[hi] = data[lo] + t, data[lo] - t
    return data


@pytest.mark.parametrize("scale, memory_words", [(6, 8), (9, 5), (10, 64), (11, 2048)])
def test_whole_pass_fft_matches_butterfly_by_butterfly(scale, memory_words):
    """Array butterflies round differently only in the last ulp."""
    x = BlockedFFT().default_problem(scale)["x"]
    output = BlockedFFT().execute(memory_words, x=x).output
    reference = _butterfly_by_butterfly(x, memory_words)
    tolerance = 4 * np.finfo(float).eps * np.max(np.abs(reference))
    assert np.max(np.abs(output - reference)) <= tolerance


def _tile_by_tile_matmul(a: np.ndarray, b: np.ndarray, side: int) -> np.ndarray:
    """The blocked product one output tile and one k-chunk at a time."""
    c = np.zeros((a.shape[0], b.shape[1]))
    for i0 in range(0, a.shape[0], side):
        for j0 in range(0, b.shape[1], side):
            for k0 in range(0, a.shape[1], side):
                c[i0:i0 + side, j0:j0 + side] += (
                    a[i0:i0 + side, k0:k0 + side] @ b[k0:k0 + side, j0:j0 + side]
                )
    return c


def _tile_by_tile_lu(a: np.ndarray, side: int) -> np.ndarray:
    """The blocked LU with every panel block and trailing tile done alone."""
    a = np.array(a, dtype=float)
    n = len(a)
    for k0 in range(0, n, side):
        k1 = min(k0 + side, n)
        a[k0:k1, k0:k1] = unblocked_lu(a[k0:k1, k0:k1])
        lower = np.tril(a[k0:k1, k0:k1], -1) + np.eye(k1 - k0)
        upper = np.triu(a[k0:k1, k0:k1])
        for i0 in range(k1, n, side):
            block = a[i0:i0 + side, k0:k1]
            for j in range(k1 - k0):
                block[:, j] = (block[:, j] - block[:, :j] @ upper[:j, j]) / upper[j, j]
            block = a[k0:k1, i0:i0 + side]
            for i in range(k1 - k0):
                block[i, :] -= lower[i, :i] @ block[:i, :]
        for i0 in range(k1, n, side):
            for j0 in range(k1, n, side):
                a[i0:i0 + side, j0:j0 + side] -= (
                    a[i0:i0 + side, k0:k1] @ a[k0:k1, j0:j0 + side]
                )
    return a


@pytest.mark.parametrize("n, memory_words", [(5, 12), (13, 27), (24, 300), (48, 12), (64, 48)])
def test_whole_matrix_kernels_match_tile_by_tile(n, memory_words):
    """Whole-matrix products round differently only in the last ulps."""
    side = tile_side_for_memory(memory_words)
    eps = np.finfo(float).eps
    a = BlockedMatrixMultiply().default_problem(n)
    output = BlockedMatrixMultiply().execute(memory_words, **a).output
    reference = _tile_by_tile_matmul(a["a"], a["b"], side)
    assert np.max(np.abs(output - reference)) <= n * eps * np.max(np.abs(reference))

    lu = BlockedLUTriangularization().default_problem(n)["a"]
    output = BlockedLUTriangularization().execute(memory_words, a=lu).output
    reference = _tile_by_tile_lu(lu, side)
    assert np.max(np.abs(output - reference)) <= n * eps * np.max(np.abs(reference))


class _CallCounter(OperationCounter):
    """An operation counter that also counts its ``add`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def add(self, count: float) -> None:
        self.calls += 1
        super().add(count)


class _ReferenceHeap:
    """Swap-based binary min-heap counting one comparison at a time."""

    def __init__(self) -> None:
        self.items: list[tuple[float, int]] = []
        self.comparisons = 0

    def push(self, item: tuple[float, int]) -> None:
        items = self.items
        items.append(item)
        index = len(items) - 1
        while index > 0:
            parent = (index - 1) // 2
            self.comparisons += 1
            if not items[index][0] < items[parent][0]:
                break
            items[index], items[parent] = items[parent], items[index]
            index = parent

    def pop(self) -> tuple[float, int]:
        items = self.items
        top, last = items[0], items.pop()
        if not items:
            return top
        items[0] = last
        index, size = 0, len(items)
        while True:
            smallest = index
            for child in (2 * index + 1, 2 * index + 2):
                if child < size:
                    self.comparisons += 1
                    if items[child][0] < items[smallest][0]:
                        smallest = child
            if smallest == index:
                return top
            items[index], items[smallest] = items[smallest], items[index]
            index = smallest


# Any float, NaN and infinities included: the counting must follow the
# reference comparison by comparison whatever the comparisons answer.
keys = st.floats()


@given(script=st.lists(st.one_of(keys, st.none()), max_size=80))
@settings(max_examples=60, deadline=None)
def test_heap_count_tracks_every_comparison(script):
    """After each push or pop the counter equals a per-comparison reference."""
    ops = _CallCounter()
    heap, reference = CountingHeap(ops), _ReferenceHeap()
    for step, key in enumerate(script):
        calls_before = ops.calls
        if key is None:
            if not reference.items:
                continue
            assert heap.pop() == reference.pop()
        else:
            heap.push(key, step)
            reference.push((key, step))
        assert ops.total == reference.comparisons
        assert ops.calls - calls_before <= 1


def _reference_merge_sort(values: list[float]) -> tuple[list[float], int]:
    if len(values) <= 1:
        return list(values), 0
    mid = len(values) // 2
    left, left_count = _reference_merge_sort(values[:mid])
    right, right_count = _reference_merge_sort(values[mid:])
    merged, i, j, count = [], 0, 0, left_count + right_count
    while i < len(left) and j < len(right):
        count += 1
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    return merged + left[i:] + right[j:], count


@given(values=st.lists(keys, max_size=200))
@settings(max_examples=60, deadline=None)
def test_merge_sort_charges_every_comparison_in_one_call(values):
    ops = _CallCounter()
    expected, comparisons = _reference_merge_sort(values)
    assert list(map(repr, merge_sort_counting(values, ops))) == list(map(repr, expected))
    assert ops.total == comparisons
    assert ops.calls == 1
