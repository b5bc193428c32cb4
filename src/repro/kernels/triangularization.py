"""Blocked out-of-core matrix triangularization (Section 3.2).

The paper's decomposition performs ``N / sqrt(M)`` steps, each annihilating
``sqrt(M)`` consecutive columns and updating the trailing matrix; one step
costs ``Theta(N**2 * sqrt(M))`` operations against ``Theta(N**2)`` word
transfers, so -- as for matrix multiplication -- the intensity is
``Theta(sqrt(M))`` and the rebalancing law is ``M_new = alpha**2 * M_old``.

:class:`BlockedLUTriangularization` implements this as a right-looking
blocked LU factorization (Gaussian elimination) without pivoting: the tile
side is ``Theta(sqrt(M))`` and every tile that participates in a panel
factorization or trailing-matrix update is staged through the bounded local
memory, with all operations and word transfers counted.  Each step factors
its ``w x w`` diagonal block column by column, solves both panels as whole
strips and updates the trailing matrix in one product; its counts are
charged in closed form.  With ``t`` trailing rows and ``nb = ceil(t / s)``
tiles per trailing side, a step reads ``w**2 + 2*t*w + t**2 + 2*nb*t*w``
words and writes ``w**2 + 2*t*w + t**2``; ``analytic_cost`` sums the same
per-step counts.

The test problems are diagonally dominant so that the absence of pivoting is
numerically harmless; a pivoted variant would change constant factors only,
not the intensity's dependence on ``M``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.base import ExecutionContext, Kernel
from repro.kernels.matmul import tile_side_for_memory

__all__ = ["BlockedLUTriangularization", "unblocked_lu", "make_diagonally_dominant"]


def make_diagonally_dominant(n: int, *, seed: int = 0) -> np.ndarray:
    """Random ``n x n`` matrix made strictly diagonally dominant.

    Used as the default test problem so that LU without pivoting is stable.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)
    return a


def unblocked_lu(a: np.ndarray) -> np.ndarray:
    """In-core Doolittle LU without pivoting, packed into one matrix.

    Returns a matrix whose strict lower triangle holds the multipliers of
    ``L`` (unit diagonal implied) and whose upper triangle holds ``U``.  This
    is the reference answer the blocked kernel is verified against.
    """
    a = np.array(a, dtype=float, copy=True)
    n = a.shape[0]
    for k in range(n - 1):
        pivot = a[k, k]
        if pivot == 0:
            raise ConfigurationError("zero pivot encountered; matrix needs pivoting")
        a[k + 1 :, k] /= pivot
        a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    return a


class BlockedLUTriangularization(Kernel):
    """Right-looking blocked Gaussian elimination through a bounded local memory."""

    registry_name = "triangularization"
    minimum_memory_words = 3

    def default_problem(self, scale: int) -> dict[str, Any]:
        n = max(2, int(scale))
        return {"a": make_diagonally_dominant(n, seed=scale)}

    def reference(self, *, a: np.ndarray) -> np.ndarray:
        return unblocked_lu(np.asarray(a, dtype=float))

    def analytic_cost(self, memory_words: int, *, a: np.ndarray) -> ComputationCost:
        n = int(np.asarray(a).shape[0])
        s = tile_side_for_memory(memory_words)
        compute_ops = io_words = 0.0
        for k0 in range(0, n, s):
            ops, read, written = _step_counts(min(s, n - k0), max(0, n - k0 - s), s)
            compute_ops += ops
            io_words += read + written
        return ComputationCost(compute_ops, io_words)

    def _run(self, ctx: ExecutionContext, *, a: np.ndarray) -> np.ndarray:
        a = np.array(a, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ConfigurationError("triangularization requires a square matrix")
        n = a.shape[0]
        s = tile_side_for_memory(ctx.memory.capacity_words)

        for k0 in range(0, n, s):
            k1 = min(k0 + s, n)
            w, t = k1 - k0, n - k1
            # Panel blocks and trailing tiles are staged ``s`` rows or columns
            # at a time; the first, largest one stands for them all.
            tile = min(s, t)

            # 1. Factor the diagonal block in local memory.
            with ctx.memory.buffer("diag", w * w):
                diag = a[k0:k1, k0:k1]
                for k in range(w - 1):
                    pivot = diag[k, k]
                    if pivot == 0:
                        raise ConfigurationError(
                            "zero pivot encountered; matrix needs pivoting"
                        )
                    diag[k + 1 :, k] /= pivot
                    diag[k + 1 :, k + 1 :] -= np.outer(diag[k + 1 :, k], diag[k, k + 1 :])
                lower = np.tril(diag, -1) + np.eye(w)
                upper = np.triu(diag)

                with ctx.memory.buffer("panel_block", tile * w):
                    # 2. Column panel: L21 = A21 @ inv(U11), column by column.
                    column = a[k1:, k0:k1]
                    for j in range(w):
                        column[:, j] -= column[:, :j] @ upper[:j, j]
                        column[:, j] /= upper[j, j]
                    # 3. Row panel: U12 = inv(L11) @ A12, row by row.
                    row = a[k0:k1, k1:]
                    for i in range(w):
                        row[i, :] -= lower[i, :i] @ row[:i, :]

            # 4. Trailing-matrix update with matmul-style tiling.
            with ctx.memory.buffer("c_tile", tile * tile), \
                    ctx.memory.buffer("l_tile", tile * w), \
                    ctx.memory.buffer("u_tile", w * tile):
                a[k1:, k1:] -= a[k1:, k0:k1] @ a[k0:k1, k1:]

            ops, read, written = _step_counts(w, t, s)
            ctx.ops.add(ops)
            ctx.io.read(read)
            ctx.io.write(written)
            ctx.phases.record(f"panel[{k0}:{k1}]", ops, read + written)
        return a


def _step_counts(w: int, t: int, s: int) -> tuple[float, float, float]:
    """Operations, words read and words written by one panel step.

    ``w`` is the panel width, ``t`` the order of the trailing matrix and
    ``s`` the tile side.  Operations: ``m + 2*m**2`` per elimination column
    of the diagonal block (``m = w-1 .. 1``), ``w**2`` per column-panel row,
    ``w*(w-1)`` per row-panel column and ``2*w`` per trailing element.
    Words: the diagonal block and each panel are read and written once;
    each of the ``nb**2`` trailing tiles, ``nb = ceil(t / s)``, reads
    itself and its slice of both panels and writes itself back.
    """
    nb = -(-t // s)
    moved = w * w + 2 * t * w + t * t
    return (
        float((w - 1) * w * (4 * w + 1) // 6 + t * w * (2 * w - 1) + 2 * t * t * w),
        float(moved + 2 * nb * t * w),
        float(moved),
    )
