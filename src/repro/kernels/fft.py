"""Blocked out-of-core fast Fourier transform (Section 3.4, Figure 2).

The paper decomposes an ``N``-point FFT into subcomputation blocks that each
fit entirely inside the ``M``-word local memory (Figure 2 shows the
decomposition for ``N = 16`` and ``M = 4``): results of blocks are shuffled
before being used as the inputs of later blocks.  Each block performs
``Theta(M log2 M)`` arithmetic operations against ``Theta(M)`` word
transfers, so the intensity is ``Theta(log2 M)`` and rebalancing requires
``M_new = M_old ** alpha`` -- exponential memory growth.

:class:`BlockedFFT` implements the radix-2 decimation-in-time FFT with its
``log2 N`` butterfly stages grouped into passes of ``log2 B`` stages, where
``B`` is the largest block (in complex points) fitting in local memory.
Within a pass, the indices that interact form independent groups of ``B``
points; every group is gathered into local memory, its butterflies are
applied with the correct global twiddle factors, and it is scattered back.
The groups of a pass are independent, so they move as one ``(groups, B)``
array and each stage's butterflies run on all of them at once; the pass is
charged in closed form (``2B`` words in and out per group, ``B/2``
butterflies per group and stage, one ``2B``-word block resident at a time),
which is exactly what the per-group execution would count.  The result is
verified against ``numpy.fft.fft``.

:func:`decomposition_plan` exposes the pass/group structure itself so the
Figure 2 experiment can reconstruct the paper's picture for ``N=16, M=4``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel

__all__ = ["BlockedFFT", "decomposition_plan", "FFTPass", "block_points_for_memory"]

#: Real words per complex point (one word each for the real and imaginary parts).
WORDS_PER_COMPLEX = 2

#: Real arithmetic operations per radix-2 butterfly (complex multiply + two adds).
OPS_PER_BUTTERFLY = 10


def block_points_for_memory(memory_words: int) -> int:
    """Largest power-of-two block size (complex points) fitting in local memory."""
    max_points = memory_words // WORDS_PER_COMPLEX
    if max_points < 2:
        raise ConfigurationError(
            f"a local memory of {memory_words} words cannot hold a 2-point FFT block"
        )
    return 1 << int(math.floor(math.log2(max_points)))


@dataclass(frozen=True)
class FFTPass:
    """One pass of the blocked FFT: a contiguous range of butterfly stages."""

    first_stage: int
    last_stage: int
    group_size: int
    groups: tuple[tuple[int, ...], ...]

    @property
    def stage_count(self) -> int:
        return self.last_stage - self.first_stage


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = int(math.log2(n))
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=int)
    for bit in range(bits):
        reversed_indices |= ((indices >> bit) & 1) << (bits - 1 - bit)
    return reversed_indices


def _pass_bounds(n_points: int, memory_words: int) -> list[tuple[int, int]]:
    """``(first_stage, last_stage)`` of every pass: ``log2 B`` stages each."""
    if n_points < 2 or n_points & (n_points - 1):
        raise ConfigurationError(f"FFT size must be a power of two >= 2, got {n_points}")
    block = min(block_points_for_memory(memory_words), n_points)
    total_stages = int(math.log2(n_points))
    stages_per_pass = int(math.log2(block))
    return [
        (stage, min(stage + stages_per_pass, total_stages))
        for stage in range(0, total_stages, stages_per_pass)
    ]


def _group_indices(n_points: int, first_stage: int, last_stage: int) -> np.ndarray:
    """The ``(groups, B)`` global indices co-resident in one pass.

    Group keys are the indices whose stage bits ``[first_stage, last_stage)``
    are zero, in ascending order; member ``j`` of a group is
    ``key | (j << first_stage)``.
    """
    indices = np.arange(n_points)
    mid_mask = ((1 << last_stage) - 1) ^ ((1 << first_stage) - 1)
    keys = indices[(indices & mid_mask) == 0]
    offsets = np.arange(1 << (last_stage - first_stage)) << first_stage
    return keys[:, None] | offsets[None, :]


def decomposition_plan(n_points: int, memory_words: int) -> list[FFTPass]:
    """The Figure-2 decomposition: passes and per-pass index groups.

    Each returned :class:`FFTPass` covers ``log2 B`` butterfly stages (fewer
    for the final pass when ``log2 N`` is not a multiple of ``log2 B``) and
    lists the groups of global indices that are co-resident in local memory.
    """
    return [
        FFTPass(
            first_stage=first,
            last_stage=last,
            group_size=1 << (last - first),
            groups=tuple(map(tuple, _group_indices(n_points, first, last).tolist())),
        )
        for first, last in _pass_bounds(n_points, memory_words)
    ]


class BlockedFFT(Kernel):
    """Radix-2 DIT FFT whose butterfly stages are executed in memory-sized blocks."""

    registry_name = "fft"
    minimum_memory_words = 2 * WORDS_PER_COMPLEX

    def default_problem(self, scale: int) -> dict[str, Any]:
        n = 1 << max(2, int(scale))
        rng = np.random.default_rng(scale)
        return {"x": rng.standard_normal(n) + 1j * rng.standard_normal(n)}

    def reference(self, *, x: np.ndarray) -> np.ndarray:
        return np.fft.fft(np.asarray(x, dtype=complex))

    def analytic_cost(self, memory_words: int, *, x: np.ndarray) -> ComputationCost:
        n = len(x)
        block = min(block_points_for_memory(memory_words), n)
        total_stages = math.log2(n)
        stages_per_pass = math.log2(block)
        passes = math.ceil(total_stages / stages_per_pass)
        # Every pass touches all N points once: N/B blocks of B points.
        io_words = passes * 2.0 * n * WORDS_PER_COMPLEX
        ops = OPS_PER_BUTTERFLY * (n / 2.0) * total_stages
        return ComputationCost(ops, io_words)

    def _run(self, ctx: ExecutionContext, *, x: np.ndarray) -> np.ndarray:
        data = np.array(x, dtype=complex, copy=True)
        n = data.shape[0]
        passes = _pass_bounds(n, ctx.memory.capacity_words)

        # The decimation-in-time ordering starts from bit-reversed input.  As
        # in Figure 2, the shuffles between subcomputation blocks are
        # realised purely by how blocks gather and scatter their words in
        # external memory -- they move no data of their own -- so the
        # bit-reversal is an addressing convention, not an I/O pass: every
        # word is still charged exactly once per pass when its block reads
        # and writes it.
        data = data[_bit_reverse_indices(n)]

        for first, last in passes:
            index = _group_indices(n, first, last)
            groups, points = index.shape
            words = points * WORDS_PER_COMPLEX
            # One block of B points is resident at a time; every group of
            # the pass reads and writes its B points once and performs B/2
            # butterflies per stage.
            pass_ops = float(OPS_PER_BUTTERFLY * groups * (points // 2) * (last - first))
            pass_words = float(words * groups)
            with ctx.memory.buffer("fft_block", words):
                ctx.io.read(pass_words)
                block = data[index]
                for stage in range(first, last):
                    half = 1 << (stage - first)
                    pairs = block.reshape(groups, -1, 2, half)
                    lower = index.reshape(groups, -1, 2, half)[:, :, 0, :]
                    twiddle_exponent = lower % (1 << stage)
                    w = np.exp(-2j * np.pi * twiddle_exponent / (1 << (stage + 1)))
                    t = w * pairs[:, :, 1, :]
                    u = pairs[:, :, 0, :]
                    pairs[:, :, 0, :], pairs[:, :, 1, :] = u + t, u - t
                ctx.ops.add(pass_ops)
                data[index] = block
                ctx.io.write(pass_words)
            ctx.phases.record(f"stages[{first}:{last}]", pass_ops, 2.0 * pass_words)
        return data
