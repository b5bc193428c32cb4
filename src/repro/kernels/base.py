"""Kernel framework: instrumented out-of-core computations.

A :class:`Kernel` is a computation from the paper implemented the way the
paper's decomposition scheme prescribes: data lives in an (unbounded)
external memory, blocks are staged through a bounded local memory of ``M``
words, and every arithmetic operation and word transfer is counted.

Running a kernel yields a :class:`KernelExecution` containing the numerical
output (so tests can verify correctness against a reference), the exact
measured :class:`~repro.core.model.ComputationCost`, the per-phase breakdown
and the peak local-memory residency.

The separation from :mod:`repro.machine` is deliberate: kernels know about
*counts*; the machine layer converts counts into *times* given a PE's
bandwidths, with or without compute/I-O overlap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError
from repro.kernels.counters import (
    IOCounter,
    MemoryBudget,
    OperationCounter,
    PhaseRecorder,
)

__all__ = ["KernelExecution", "Kernel", "ExecutionContext"]


@dataclass
class ExecutionContext:
    """Bundle of counters a kernel charges its work to during execution."""

    memory: MemoryBudget
    ops: OperationCounter = field(default_factory=OperationCounter)
    io: IOCounter = field(default_factory=IOCounter)
    phases: PhaseRecorder = field(default_factory=PhaseRecorder)

    @classmethod
    def with_capacity(cls, memory_words: int) -> "ExecutionContext":
        """Create a context with a fresh memory budget of ``memory_words``."""
        return cls(memory=MemoryBudget(memory_words))

    def cost(self) -> ComputationCost:
        """The total measured cost so far."""
        return ComputationCost(self.ops.total, self.io.total)


@dataclass(frozen=True)
class KernelExecution:
    """The result of running a kernel against a bounded local memory."""

    kernel_name: str
    memory_words: int
    problem: Mapping[str, Any]
    output: Any
    cost: ComputationCost
    peak_memory_words: int
    phases: PhaseRecorder

    @property
    def intensity(self) -> float:
        """Measured operational intensity ``C_comp / C_io``."""
        return self.cost.intensity

    def describe(self) -> str:
        return (
            f"{self.kernel_name}({dict(self.problem)!r}) with M={self.memory_words}: "
            f"{self.cost.compute_ops:g} ops, {self.cost.io_words:g} words, "
            f"intensity {self.intensity:.3g}, peak residency {self.peak_memory_words}"
        )


class Kernel(ABC):
    """An instrumented out-of-core computation.

    Subclasses implement :meth:`_run` (the blocked algorithm, charging all
    work to the supplied :class:`ExecutionContext`), :meth:`reference`
    (a straightforward in-core computation of the correct answer, used by the
    test suite), and :meth:`analytic_cost` (the closed-form cost model for
    the same decomposition, used to cross-check the measured counts).
    """

    #: Name of the corresponding entry in :mod:`repro.core.registry`, if any.
    registry_name: str | None = None

    #: Smallest local memory (words) for which the kernel's decomposition works.
    minimum_memory_words: int = 4

    def __init__(self, name: str | None = None) -> None:
        self._name = name or type(self).__name__

    @property
    def name(self) -> str:
        return self._name

    # -- interface -----------------------------------------------------------

    @abstractmethod
    def _run(self, ctx: ExecutionContext, **problem: Any) -> Any:
        """Execute the blocked algorithm, charging work to ``ctx``."""

    @abstractmethod
    def reference(self, **problem: Any) -> Any:
        """Compute the exact expected output with a direct in-core method."""

    @abstractmethod
    def analytic_cost(self, memory_words: int, **problem: Any) -> ComputationCost:
        """Closed-form cost model for the decomposition at this memory size."""

    @abstractmethod
    def default_problem(self, scale: int) -> dict[str, Any]:
        """A representative problem instance at roughly the given scale."""

    def problem_for_memory(self, memory_words: int, scale: int) -> dict[str, Any]:
        """Problem instance to use when sweeping over local-memory sizes.

        Most kernels measure their intensity on a *fixed* problem while the
        memory varies, so the default ignores ``memory_words``.  Kernels
        whose decomposition ties the problem partition to the memory size
        (the grid relaxation, where the PE owns a block of ``M`` points)
        override this to scale the owned partition with the memory.
        """
        del memory_words
        return self.default_problem(scale)

    # -- running -------------------------------------------------------------

    def validate_memory(self, memory_words: int) -> None:
        """Reject memory sizes too small for the decomposition."""
        if memory_words < self.minimum_memory_words:
            raise ConfigurationError(
                f"{self.name} requires at least {self.minimum_memory_words} words "
                f"of local memory, got {memory_words}"
            )

    def execute(self, memory_words: int, **problem: Any) -> KernelExecution:
        """Run the kernel with a local memory of ``memory_words`` words."""
        self.validate_memory(memory_words)
        ctx = ExecutionContext.with_capacity(memory_words)
        output = self._run(ctx, **problem)
        return KernelExecution(
            kernel_name=self.name,
            memory_words=int(memory_words),
            problem=dict(problem),
            output=output,
            cost=ctx.cost(),
            peak_memory_words=ctx.memory.peak_words,
            phases=ctx.phases,
        )

    def measured_intensity(self, memory_words: int, **problem: Any) -> float:
        """Convenience: run the kernel and return the measured intensity."""
        return self.execute(memory_words, **problem).intensity

    def verify(self, execution: KernelExecution, *, rtol: float = 1e-8) -> bool:
        """Check a kernel execution's output against the reference answer."""
        expected = self.reference(**execution.problem)
        return outputs_match(execution.output, expected, rtol=rtol)


def outputs_match(actual: Any, expected: Any, *, rtol: float = 1e-8) -> bool:
    """Structural comparison used by :meth:`Kernel.verify`.

    Handles numpy arrays (allclose), sequences of comparable items and plain
    scalars.
    """
    if isinstance(expected, np.ndarray) or isinstance(actual, np.ndarray):
        return bool(
            np.allclose(np.asarray(actual), np.asarray(expected), rtol=rtol, atol=1e-10)
        )
    if isinstance(expected, (list, tuple)):
        if len(actual) != len(expected):
            return False
        return all(outputs_match(a, e, rtol=rtol) for a, e in zip(actual, expected))
    if isinstance(expected, float):
        return bool(np.isclose(actual, expected, rtol=rtol))
    return bool(actual == expected)
