"""Fast engines for the cycle-level systolic simulators.

The reference simulators in :mod:`repro.arrays.systolic` and
:mod:`repro.arrays.triangular_qr` walk every cell with Python loops --
O(cycles x cells) interpreter operations -- which is the right shape for a
*validating* model but caps the simulated array orders at toy sizes.  This
module provides the trusted fast engines behind the shared
``engine="reference" | "fast"`` selector, mirroring the pebble game's
trusted-fast design (``repro.pebble.game``): the scalar engines remain the
specification, and the fast engines compute the arithmetic each cell
performs, in the order the cell performs it --

* the output-stationary mesh and the linear matvec array in closed form:
  every cell runs the same k-ordered (j-ordered) multiply-add chain, so the
  whole array is ``n`` vector multiply-adds over the stacked instances, and
  the cycle and active-cell counts follow from the skew schedule;
* the triangular QR array as a banded anti-diagonal wavefront, because its
  boundary cells generate data-dependent rotations that the next step needs.

Outputs are *bitwise* identical to the reference engines -- not merely
close -- and cycle counts and active-cell counts match exactly.  The
equivalence suite (``tests/arrays/test_wavefront_equivalence.py``) asserts
this over random orders, batch counts, the degenerate one-cell arrays and
NaN/inf operands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.obs import spans as obs_spans

__all__ = [
    "ENGINES",
    "validate_engine",
    "VerificationReport",
    "batched_verification_report",
    "max_abs_deviation",
    "matmul_wavefront",
    "matvec_wavefront",
    "qr_wavefront",
]

#: The recognised simulation engines, in trust order: ``reference`` is the
#: scalar per-cell specification, ``fast`` the vectorized closed form.
ENGINES = ("reference", "fast")


def validate_engine(engine: str) -> str:
    """Return ``engine`` if it names a known simulation engine."""
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; known engines: {known}"
        )
    return engine


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a systolic simulation against the numpy reference.

    ``verify()`` used to return a bare bool and discard the simulation it had
    just paid for; the report keeps the run result (so utilization and cycle
    counts are reusable) plus the mismatch details needed to debug a failure.
    Truthiness delegates to ``ok``, so ``assert array.verify(...)`` still
    reads naturally.
    """

    ok: bool
    result: Any
    max_abs_error: float
    mismatched_batches: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def max_abs_deviation(produced: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute elementwise deviation, with NaN surfacing as inf.

    ``max(0.0, nan)`` is 0.0 in Python, so a NaN in a corrupted output would
    otherwise masquerade as a perfect match -- exactly the failure mode an
    error report must not hide.  Exactly equal entries deviate by 0.0, so an
    infinity that matches the expected infinity is a match, not the NaN of
    ``inf - inf``.
    """
    if not expected.size:
        return 0.0
    with np.errstate(invalid="ignore"):
        difference = np.abs(produced - expected)
    deviation = float(np.max(np.where(produced == expected, 0.0, difference)))
    return math.inf if math.isnan(deviation) else deviation


def batched_verification_report(
    result: Any,
    produced: Sequence[np.ndarray],
    expected: Sequence[np.ndarray],
) -> VerificationReport:
    """Compare per-batch outputs against their expectations into a report.

    A length mismatch between ``produced`` and ``expected`` is itself a
    verification failure: ``zip`` would silently truncate to the shorter
    sequence, so an engine that dropped trailing batches could still report
    ``ok=True``.  Instead every missing (or surplus) batch index is marked
    mismatched and the error saturates to ``inf`` -- absent output is
    infinitely wrong, not absent evidence.
    """
    max_abs_error = 0.0
    mismatched = []
    for batch, (got, want) in enumerate(zip(produced, expected)):
        max_abs_error = max(max_abs_error, max_abs_deviation(got, want))
        if not np.allclose(got, want):
            mismatched.append(batch)
    compared = min(len(produced), len(expected))
    missing = max(len(produced), len(expected))
    if compared != missing:
        max_abs_error = math.inf
        mismatched.extend(range(compared, missing))
    return VerificationReport(
        ok=not mismatched,
        result=result,
        max_abs_error=max_abs_error,
        mismatched_batches=tuple(mismatched),
    )


# ---------------------------------------------------------------------------
# Output-stationary matmul mesh.
# ---------------------------------------------------------------------------


def matmul_wavefront(
    a_stack: np.ndarray, b_stack: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Closed-form output-stationary mesh: one vector multiply-add per ``k``.

    ``a_stack`` and ``b_stack`` are the problem instances stacked to shape
    ``(batches, n, n)``.  Returns ``(outputs, cycles, active_cell_cycles)``
    with ``outputs`` of shape ``(batches, n, n)``.

    Cell ``(i, j)`` starts each instance at ``0.0`` and performs
    ``acc + A[i, k] * B[k, j]`` for ``k = 0 .. n-1`` in that order (the
    operands meet there at cycle ``batch * n + i + j + k``), so the whole
    mesh's work over every instance is ``n`` whole-stack multiply-adds in
    the same ``k`` order.  The last instance's last operand pair reaches the
    far corner ``(n-1, n-1)`` at cycle ``batches * n + 2(n - 1) - 1``, and
    every cell is busy exactly ``n`` cycles per instance.
    """
    batches, n, _ = a_stack.shape
    outputs = np.zeros((batches, n, n))
    with obs_spans.phase("matmul_wavefront.accumulate"):
        for k in range(n):
            outputs += a_stack[:, :, k, None] * b_stack[:, None, k, :]
    return outputs, batches * n + 2 * (n - 1), batches * n**3


# ---------------------------------------------------------------------------
# Linear matvec array.
# ---------------------------------------------------------------------------


def matvec_wavefront(
    a_stack: np.ndarray, x_stack: np.ndarray
) -> tuple[np.ndarray, int, int]:
    """Closed-form linear matvec array: one vector multiply-add per cell.

    ``a_stack`` has shape ``(batches, n, n)``, ``x_stack`` ``(batches, n)``.
    Returns ``(outputs, cycles, active_cell_cycles)`` with ``outputs`` of
    shape ``(batches, n)``.  The partial sum for ``y[i]`` enters cell 0 as
    ``0.0`` and cell ``j`` adds ``A[i, j] * x[j]``, so the array's work is
    ``n`` whole-stack multiply-adds in cell order ``j``.  The last row leaves
    the last cell at cycle ``batches * n + n - 1``; every cell is busy once
    per row.
    """
    batches, n, _ = a_stack.shape
    outputs = np.zeros((batches, n))
    with obs_spans.phase("matvec_wavefront.accumulate"):
        for j in range(n):
            outputs += a_stack[:, :, j] * x_stack[:, j, None]
    return outputs, batches * n + n, batches * n**2


# ---------------------------------------------------------------------------
# Gentleman-Kung triangular QR array.
# ---------------------------------------------------------------------------


def qr_wavefront(a: np.ndarray, order: int) -> tuple[np.ndarray, int, int]:
    """Banded anti-diagonal replay of the triangular array's dataflow.

    Returns ``(r_factor, active_cell_steps, rotations_generated)``.

    In the Gentleman-Kung schedule, input row ``k`` interacts with array row
    ``i`` at wavefront step ``k + i``, and the interactions of one step --
    the pairs on the active anti-diagonal ``k + i = step`` -- touch disjoint
    state (distinct array rows ``i``, distinct in-flight input rows ``k``),
    so they are mutually independent.  Each step therefore runs as whole-band
    array updates:

    * the active boundary values ``r[i, i]`` are a slice of the diagonal
      view, the incoming values ``vec[k, i]`` an anti-diagonal gather of the
      in-flight row block;
    * every Givens rotation of the step is generated by **one** array-input
      :func:`~repro.arrays.triangular_qr.givens_rotation` call;
    * the internal-cell sweeps apply in place as two banded row expressions
      over ``r[lo:hi, lo+1:]`` and the matching (reversed) block of
      in-flight rows, with no mask: band row ``i > lo`` also rotates its
      columns ``lo+1 .. i``, which the reference never touches.

    Every elementwise operation evaluates the exact expression the reference
    engine evaluates for that cell, and the dependency order (``(k, i)``
    after ``(k-1, i)`` and ``(k, i-1)``) is preserved by the step ordering,
    so for finite inputs the result is bitwise identical.  The extra lanes
    the unmasked band writes are never read back into a real one: the
    columns of a Givens update are independent, and array row ``i'`` only
    reads columns ``>= i'`` of ``r`` and of the in-flight rows, which row
    ``i < i'`` had written as real lanes.  The extra column ``i`` of row
    ``i`` is the boundary expression itself and is overwritten with it, and
    one final ``np.triu`` restores the strictly-lower zeros of ``r``.  The
    rotations are orthogonal, so the extra lanes stay bounded by the input's
    column norms and cannot overflow on finite input.  A NaN/inf input row
    smears the same NaN/inf wake across both engines, but only up to NaN
    sign/payload: IEEE 754 leaves NaN propagation through two-NaN operands
    unspecified, and CPython's scalar ``+`` keeps the second operand's NaN
    where numpy's vector loop keeps the first -- ``verify()`` surfaces
    either wake as ``max_abs_error=inf``.
    """
    # Imported lazily: this module is the shared engine layer both simulator
    # modules import at load time, so a module-scope import would be a cycle.
    from repro.arrays.triangular_qr import givens_rotation

    n = order
    m = a.shape[0]
    r = np.zeros((n, n))
    if m == 0:
        return r, 0, 0

    work = np.array(a, dtype=float)  # the in-flight (partially rotated) rows
    work_flat = work.reshape(-1)
    diagonal = r.reshape(-1)[:: n + 1]  # writable view of r's diagonal

    # Per-step phases aggregate (total seconds + call count per name), so an
    # order-128 QR's ~380 steps cost ~380 clock-read pairs and flush as two
    # phase spans, not 380.  The phases partition each step disjointly --
    # gather | rotation generation (timed inside ``_givens_rotation_batch``)
    # | band apply -- so exclusive-time rollups never double-count.
    for step in range(m + n - 1):
        lo = max(0, step - m + 1)  # first active array row i on the diagonal
        hi = min(n - 1, step) + 1  # one past the last active array row
        with obs_spans.phase("qr_wavefront.gather"):
            # Input row k = step - i meets boundary cell (i, i) at this step;
            # vec[k, i] sits at flat index k*n + i = step*n - i*(n - 1).
            boundary = diagonal[lo:hi]
            incoming = work_flat[step * n - (n - 1) * np.arange(lo, hi)]
        c, s = givens_rotation(boundary, incoming)
        with obs_spans.phase("qr_wavefront.apply"):
            new_boundary = c * boundary + s * incoming
            # Band rows ordered by i ascending; the matching in-flight rows
            # k = step - i come out of a reversed slice of the block.
            r_band = r[lo:hi, lo + 1 :]
            v_band = work[step - hi + 1 : step - lo + 1, lo + 1 :][::-1]
            new_r = c[:, None] * r_band + s[:, None] * v_band
            v_band[...] = -s[:, None] * r_band + c[:, None] * v_band
            r_band[...] = new_r
            diagonal[lo:hi] = new_boundary

    # One boundary + (n - i - 1) internal interactions per (k, i) pair --
    # every pair occurs exactly once, so the totals close over the schedule.
    active_cell_steps = m * n * (n + 1) // 2
    rotations = m * n
    return np.triu(r), active_cell_steps, rotations
