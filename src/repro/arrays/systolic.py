"""Cycle-level systolic-array simulations (Section 4.2's feasibility claim).

The paper's Section 4.2 argues that a square mesh can stay balanced for
matrix computations *provided the computation can actually be decomposed for
parallel execution on the array*, and points at the classical systolic
designs (Kung & Leiserson 1978; Gentleman & Kung 1981) as the demonstration.
This module provides executable, cycle-accurate models of two such designs:

* :class:`OutputStationaryMatmulArray` -- the ``n x n`` output-stationary
  mesh for matrix multiplication: ``A`` streams in from the left, ``B`` from
  the top, each skewed by one cycle per row/column; every cell performs one
  multiply-accumulate per cycle and forwards its operands.
* :class:`LinearMatvecArray` -- a linear array for matrix-vector
  multiplication with the vector preloaded (one element per cell) and the
  partial sums marching through the array.

Both simulations verify their numerical results against numpy and report the
cell utilization achieved, including the pipelined steady state reached when
several problem instances are streamed back to back.

Each simulator runs on one of two engines (see
:mod:`repro.arrays.wavefront`): ``engine="reference"`` walks every cell with
the scalar Python loops below -- the validating specification -- while
``engine="fast"`` (the default) computes what the cells compute: ``n``
whole-array multiply-adds in the order each cell accumulates its terms, with
the cycle and active-cell counts in closed form.  Outputs and counts are
bitwise identical to the reference at a fraction of the interpreter cost.
The reference engines track register occupancy with explicit flags, so NaN
and infinite operands are ordinary data that propagate the way numpy's do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arrays.wavefront import (
    VerificationReport,
    batched_verification_report,
    matmul_wavefront,
    matvec_wavefront,
    validate_engine,
)
from repro.exceptions import ConfigurationError, SimulationError

__all__ = [
    "SystolicRunResult",
    "VerificationReport",
    "OutputStationaryMatmulArray",
    "LinearMatvecArray",
]


@dataclass(frozen=True)
class SystolicRunResult:
    """Outcome of a cycle-level systolic simulation."""

    outputs: list[np.ndarray]
    cycles: int
    cell_count: int
    active_cell_cycles: int

    @property
    def utilization(self) -> float:
        """Fraction of cell-cycles that performed useful arithmetic.

        A run of zero cycles has utilization 0.0: no time passed, so no
        useful work was done.  This is the repo-wide convention for idle
        schedules (see :class:`repro.machine.engine.Schedule`).
        """
        if self.cycles == 0:
            return 0.0
        return self.active_cell_cycles / (self.cycles * self.cell_count)


class OutputStationaryMatmulArray:
    """``n x n`` mesh computing ``C = A @ B`` with stationary accumulators.

    ``A[i, k]`` enters row ``i`` at cycle ``i + k`` (one-cycle skew per row);
    ``B[k, j]`` enters column ``j`` at cycle ``j + k``.  Both operands of the
    multiply for ``C[i, j]`` then meet in cell ``(i, j)`` at cycle
    ``i + j + k``.  Streaming several problem instances back to back keeps
    the array busy and pushes the utilization toward 1.
    """

    def __init__(self, order: int, *, engine: str = "fast") -> None:
        if order < 1:
            raise ConfigurationError(f"array order must be >= 1, got {order}")
        self.order = order
        self.engine = validate_engine(engine)

    def run(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> SystolicRunResult:
        """Stream the given ``(A, B)`` problem instances through the array."""
        n = self.order
        if not problems:
            raise ConfigurationError("at least one problem instance is required")
        a_list = []
        b_list = []
        for a, b in problems:
            a = np.asarray(a, dtype=float)
            b = np.asarray(b, dtype=float)
            if a.shape != (n, n) or b.shape != (n, n):
                raise ConfigurationError(
                    f"problem matrices must be {n} x {n}, got {a.shape} and {b.shape}"
                )
            a_list.append(a)
            b_list.append(b)

        if self.engine == "fast":
            stacked, total_cycles, active_cell_cycles = matmul_wavefront(
                np.stack(a_list), np.stack(b_list)
            )
            outputs = list(stacked)
        else:
            outputs, total_cycles, active_cell_cycles = self._run_reference(
                a_list, b_list
            )

        return SystolicRunResult(
            outputs=outputs,
            cycles=total_cycles,
            cell_count=n * n,
            active_cell_cycles=active_cell_cycles,
        )

    def _run_reference(
        self, a_list: list[np.ndarray], b_list: list[np.ndarray]
    ) -> tuple[list[np.ndarray], int, int]:
        """The validating scalar engine: every cell stepped in Python."""
        n = self.order
        batches = len(a_list)

        total_cycles = batches * n + 2 * (n - 1)
        accumulators = np.zeros((n, n))
        accumulated_terms = np.zeros((n, n), dtype=int)
        # Operand registers plus explicit occupancy flags: any float,
        # NaN included, is a legal operand, so "empty" can't be a value.
        a_regs = np.zeros((n, n))
        b_regs = np.zeros((n, n))
        a_full = np.zeros((n, n), dtype=bool)
        b_full = np.zeros((n, n), dtype=bool)
        outputs = [np.zeros((n, n)) for _ in range(batches)]
        active_cell_cycles = 0

        def a_source(row: int, cycle: int) -> tuple[float, bool]:
            index = cycle - row
            if 0 <= index < batches * n:
                return a_list[index // n][row, index % n], True
            return 0.0, False

        def b_source(col: int, cycle: int) -> tuple[float, bool]:
            index = cycle - col
            if 0 <= index < batches * n:
                return b_list[index // n][index % n, col], True
            return 0.0, False

        for cycle in range(total_cycles):
            new_a = np.zeros((n, n))
            new_b = np.zeros((n, n))
            new_a_full = np.zeros((n, n), dtype=bool)
            new_b_full = np.zeros((n, n), dtype=bool)
            for i in range(n):
                for j in range(n):
                    if j == 0:
                        a_in, a_ok = a_source(i, cycle)
                    else:
                        a_in, a_ok = a_regs[i, j - 1], a_full[i, j - 1]
                    if i == 0:
                        b_in, b_ok = b_source(j, cycle)
                    else:
                        b_in, b_ok = b_regs[i - 1, j], b_full[i - 1, j]
                    if a_ok and b_ok:
                        accumulators[i, j] += a_in * b_in
                        accumulated_terms[i, j] += 1
                        active_cell_cycles += 1
                        if accumulated_terms[i, j] == n:
                            batch = (cycle - i - j) // n
                            if not 0 <= batch < batches:
                                raise SimulationError(
                                    "systolic dataflow produced a result outside "
                                    "any problem instance"
                                )
                            outputs[batch][i, j] = accumulators[i, j]
                            accumulators[i, j] = 0.0
                            accumulated_terms[i, j] = 0
                    new_a[i, j], new_a_full[i, j] = a_in, a_ok
                    new_b[i, j], new_b_full[i, j] = b_in, b_ok
            a_regs, b_regs = new_a, new_b
            a_full, b_full = new_a_full, new_b_full

        return outputs, total_cycles, active_cell_cycles

    def verify(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> VerificationReport:
        """Run the array and check every product against numpy.

        Returns a :class:`VerificationReport` carrying the run result (so
        the simulation is not discarded), the maximum absolute error across
        all batches, and the indices of any mismatching batches.
        """
        result = self.run(problems)
        return batched_verification_report(
            result,
            result.outputs,
            [np.asarray(a) @ np.asarray(b) for a, b in problems],
        )


class LinearMatvecArray:
    """Linear array of ``n`` cells computing ``y = A @ x`` with ``x`` preloaded.

    Cell ``j`` holds ``x[j]``.  The partial sum for ``y[i]`` enters cell 0 at
    cycle ``i`` and moves one cell per cycle; cell ``j`` adds
    ``A[i, j] * x[j]`` at cycle ``i + j``, so column ``j`` of ``A`` is fed to
    cell ``j`` skewed by ``j`` cycles.  The completed ``y[i]`` emerges from
    the last cell at cycle ``i + n``.
    """

    def __init__(self, length: int, *, engine: str = "fast") -> None:
        if length < 1:
            raise ConfigurationError(f"array length must be >= 1, got {length}")
        self.length = length
        self.engine = validate_engine(engine)

    def run(self, problems: Sequence[tuple[np.ndarray, np.ndarray]]) -> SystolicRunResult:
        """Stream the given ``(A, x)`` instances through the array back to back."""
        n = self.length
        if not problems:
            raise ConfigurationError("at least one problem instance is required")
        a_list = []
        x_list = []
        for a, x in problems:
            a = np.asarray(a, dtype=float)
            x = np.asarray(x, dtype=float)
            if a.shape != (n, n) or x.shape != (n,):
                raise ConfigurationError(
                    f"problem must be an {n} x {n} matrix and length-{n} vector"
                )
            a_list.append(a)
            x_list.append(x)

        if self.engine == "fast":
            stacked, total_cycles, active_cell_cycles = matvec_wavefront(
                np.stack(a_list), np.stack(x_list)
            )
            outputs = list(stacked)
        else:
            outputs, total_cycles, active_cell_cycles = self._run_reference(
                a_list, x_list
            )

        return SystolicRunResult(
            outputs=outputs,
            cycles=total_cycles,
            cell_count=n,
            active_cell_cycles=active_cell_cycles,
        )

    def _run_reference(
        self, a_list: list[np.ndarray], x_list: list[np.ndarray]
    ) -> tuple[list[np.ndarray], int, int]:
        """The validating scalar engine: every cell stepped in Python."""
        n = self.length
        batches = len(a_list)

        total_cycles = batches * n + n
        outputs = [np.zeros(n) for _ in range(batches)]
        # Value leaving cell j at the previous cycle, and whether one left:
        # a NaN partial sum is data, not an empty register.
        partial_regs = np.zeros(n)
        partial_full = np.zeros(n, dtype=bool)
        active_cell_cycles = 0

        def row_index(cycle: int, cell: int) -> int:
            return cycle - cell

        for cycle in range(total_cycles):
            new_partial = np.zeros(n)
            new_full = np.zeros(n, dtype=bool)
            for j in range(n):
                global_row = row_index(cycle, j)
                if not 0 <= global_row < batches * n:
                    continue
                batch, i = divmod(global_row, n)
                if j > 0 and not partial_full[j - 1]:
                    raise SimulationError(
                        "partial sum missing where the dataflow expects one"
                    )
                incoming = 0.0 if j == 0 else partial_regs[j - 1]
                x_value = x_list[batch][j]
                updated = incoming + a_list[batch][i, j] * x_value
                active_cell_cycles += 1
                if j == n - 1:
                    outputs[batch][i] = updated
                new_partial[j] = updated
                new_full[j] = True
            partial_regs, partial_full = new_partial, new_full

        return outputs, total_cycles, active_cell_cycles

    def verify(
        self, problems: Sequence[tuple[np.ndarray, np.ndarray]]
    ) -> VerificationReport:
        """Run the array and check every product against numpy.

        Returns a :class:`VerificationReport`; see
        :meth:`OutputStationaryMatmulArray.verify`.
        """
        result = self.run(problems)
        return batched_verification_report(
            result,
            result.outputs,
            [np.asarray(a) @ np.asarray(x) for a, x in problems],
        )
