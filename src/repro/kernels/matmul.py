"""Blocked out-of-core matrix multiplication (Section 3.1).

The decomposition scheme is the one the paper analyses: the ``N x N`` product
matrix is computed one ``s x s`` output tile at a time, where the tile side
``s`` is chosen so that the output tile plus one ``s x s`` panel chunk of each
input matrix fit simultaneously in the ``M``-word local memory
(``3 s**2 <= M``, i.e. ``s = Theta(sqrt(M))``).

For every output tile the kernel streams the corresponding ``s x N`` row
panel of ``A`` and ``N x s`` column panel of ``B`` through the local memory
in ``s``-wide chunks, accumulating into the resident output tile.  Per tile
this costs ``Theta(N * M)`` arithmetic operations against ``Theta(N * sqrt(M))``
word transfers, so the measured intensity is ``Theta(sqrt(M))`` and the
rebalancing law is ``M_new = alpha**2 * M_old``.

The kernel computes the product one ``k``-chunk at a time on the whole
matrix and charges the tile decomposition's counts in closed form: for an
``n_rows x n_inner`` by ``n_inner x n_cols`` product in ``row_tiles x
col_tiles`` output tiles, ``2 * n_rows * n_cols * n_inner`` operations,
``col_tiles * n_rows * n_inner + row_tiles * n_inner * n_cols`` words read
and ``n_rows * n_cols`` written, with one phase record per tile.
``analytic_cost`` evaluates the same closed form.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel

__all__ = ["BlockedMatrixMultiply", "tile_side_for_memory"]


def tile_side_for_memory(memory_words: int, *, buffers: int = 3) -> int:
    """Largest square-tile side such that ``buffers`` tiles fit in ``memory_words``."""
    if memory_words < buffers:
        raise ConfigurationError(
            f"memory of {memory_words} words cannot hold {buffers} one-word tiles"
        )
    return max(1, int(math.floor(math.sqrt(memory_words / buffers))))


class BlockedMatrixMultiply(Kernel):
    """Compute ``C = A @ B`` with square output tiles staged through local memory.

    ``tile_shape`` overrides the default square ``s x s`` output tile with an
    explicit ``(rows, cols)`` shape.  The paper's decomposition uses square
    tiles, which maximise the intensity for a given memory; the tiling
    ablation (A3 in DESIGN.md) uses skinny tiles to show how much intensity a
    poorly shaped tile loses.
    """

    registry_name = "matmul"
    minimum_memory_words = 3

    def __init__(
        self, name: str | None = None, *, tile_shape: tuple[int, int] | None = None
    ) -> None:
        super().__init__(name=name)
        if tile_shape is not None:
            rows, cols = tile_shape
            if rows < 1 or cols < 1:
                raise ConfigurationError(
                    f"tile_shape must have positive dimensions, got {tile_shape!r}"
                )
        self.tile_shape = tile_shape

    def _tile_geometry(self, memory_words: int) -> tuple[int, int, int]:
        """Output-tile rows, columns and the k-chunk width for this memory size."""
        if self.tile_shape is None:
            side = tile_side_for_memory(memory_words)
            return side, side, side
        rows, cols = self.tile_shape
        working_set = rows * cols + rows + cols
        if working_set > memory_words:
            raise ConfigurationError(
                f"a {rows} x {cols} output tile needs a working set of at least "
                f"{working_set} words (the tile plus a one-wide chunk of each input "
                f"panel), more than the {memory_words} words of local memory"
            )
        return rows, cols, (memory_words - rows * cols) // (rows + cols)

    def default_problem(self, scale: int) -> dict[str, Any]:
        """Random square matrices of order ``scale`` (deterministic seed)."""
        rng = np.random.default_rng(scale)
        n = max(2, int(scale))
        return {
            "a": rng.standard_normal((n, n)),
            "b": rng.standard_normal((n, n)),
        }

    def reference(self, *, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.asarray(a) @ np.asarray(b)

    def analytic_cost(
        self, memory_words: int, *, a: np.ndarray, b: np.ndarray
    ) -> ComputationCost:
        """Closed-form cost of the tile decomposition at this memory size."""
        a, b = _operands(a, b)
        rows, cols, _ = self._tile_geometry(memory_words)
        ops, read, written = _tiled_counts(*a.shape, b.shape[1], rows, cols)
        return ComputationCost(ops, read + written)

    def _run(self, ctx: ExecutionContext, *, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _operands(a, b)
        n_rows, n_inner = a.shape
        n_cols = b.shape[1]
        rows, cols, chunk_width = self._tile_geometry(ctx.memory.capacity_words)

        # External memory holds the operands and the result.  Every tile
        # stages the same buffers and the first tile's are the largest, so
        # one allocation of them checks the whole run against the capacity.
        c = np.zeros((n_rows, n_cols), dtype=float)
        if c.size:
            tile_rows, tile_cols = min(rows, n_rows), min(cols, n_cols)
            width = min(chunk_width, n_inner)
            with ctx.memory.buffer("c_tile", tile_rows * tile_cols), \
                    ctx.memory.buffer("a_chunk", tile_rows * width), \
                    ctx.memory.buffer("b_chunk", width * tile_cols):
                for k0 in range(0, n_inner, chunk_width):
                    c += a[:, k0:k0 + chunk_width] @ b[k0:k0 + chunk_width, :]

        ops, read, written = _tiled_counts(n_rows, n_inner, n_cols, rows, cols)
        ctx.ops.add(ops)
        ctx.io.read(read)
        ctx.io.write(written)
        for i0 in range(0, n_rows, rows):
            i1 = min(i0 + rows, n_rows)
            for j0 in range(0, n_cols, cols):
                j1 = min(j0 + cols, n_cols)
                ops, read, written = _tiled_counts(i1 - i0, n_inner, j1 - j0, rows, cols)
                ctx.phases.record(f"tile[{i0}:{i1},{j0}:{j1}]", ops, read + written)
        return c


def _operands(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ConfigurationError("matrix multiplication requires 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"incompatible shapes for multiplication: {a.shape} and {b.shape}"
        )
    return a, b


def _tiled_counts(
    n_rows: int, n_inner: int, n_cols: int, rows: int, cols: int
) -> tuple[float, float, float]:
    """Operations, words read and words written with ``rows x cols`` output tiles.

    Each output tile reads its row panel of ``A`` and column panel of ``B``
    once and writes itself once.
    """
    row_tiles, col_tiles = -(-n_rows // rows), -(-n_cols // cols)
    return (
        2.0 * n_rows * n_cols * n_inner,
        float(col_tiles * n_rows * n_inner + row_tiles * n_inner * n_cols),
        float(n_rows * n_cols),
    )
