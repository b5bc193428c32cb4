"""Counters and budgets used by the instrumented out-of-core kernels.

Every kernel in :mod:`repro.kernels` executes its computation the way the
paper's decomposition schemes prescribe -- bringing blocks of data into a
bounded local memory, operating on them, and writing results back -- while
counting two quantities exactly:

* arithmetic/comparison operations (``C_comp``), via :class:`OperationCounter`,
* words moved between the PE and the outside world (``C_io``), via
  :class:`IOCounter`.

A :class:`MemoryBudget` enforces the local-memory capacity: kernels must
"allocate" every buffer they keep resident, and exceeding the capacity raises
:class:`~repro.exceptions.MemoryCapacityError`.  This keeps the measured
intensities honest -- a kernel cannot quietly hold more state than ``M``
words.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.core.model import ComputationCost
from repro.exceptions import ConfigurationError, MemoryCapacityError

__all__ = [
    "OperationCounter",
    "IOCounter",
    "MemoryBudget",
    "Phase",
    "PhaseRecorder",
]


class OperationCounter:
    """Counts arithmetic (or comparison) operations performed by a kernel."""

    def __init__(self) -> None:
        self._total = 0.0

    def add(self, count: float) -> None:
        """Record ``count`` operations."""
        # One chained comparison is False for negatives, NaN and +inf alike.
        if not 0 <= count < math.inf:
            raise ConfigurationError(f"operation count must be finite and >= 0, got {count!r}")
        self._total += float(count)

    @property
    def total(self) -> float:
        """Total operations recorded so far."""
        return self._total

    def reset(self) -> None:
        """Discard all recorded operations."""
        self._total = 0.0


class IOCounter:
    """Counts words transferred between the PE and the outside world."""

    def __init__(self) -> None:
        self._read = 0.0
        self._written = 0.0

    def read(self, words: float) -> None:
        """Record ``words`` words read from external memory into the PE."""
        if not 0 <= words < math.inf:
            raise ConfigurationError(f"word count must be finite and >= 0, got {words!r}")
        self._read += float(words)

    def write(self, words: float) -> None:
        """Record ``words`` words written from the PE to external memory."""
        if not 0 <= words < math.inf:
            raise ConfigurationError(f"word count must be finite and >= 0, got {words!r}")
        self._written += float(words)

    @property
    def words_read(self) -> float:
        return self._read

    @property
    def words_written(self) -> float:
        return self._written

    @property
    def total(self) -> float:
        """Total words moved in either direction."""
        return self._read + self._written

    def reset(self) -> None:
        self._read = 0.0
        self._written = 0.0


class MemoryBudget:
    """Tracks resident words against a local-memory capacity.

    Kernels allocate named buffers before holding data in the PE and release
    them when the data is evicted.  The budget records the peak residency, so
    tests can assert that a kernel genuinely fits its working set into ``M``
    words.
    """

    def __init__(self, capacity_words: int) -> None:
        if capacity_words < 1:
            raise ConfigurationError(
                f"capacity_words must be at least 1, got {capacity_words!r}"
            )
        self._capacity = int(capacity_words)
        self._resident = 0
        self._peak = 0
        self._allocations: dict[str, int] = {}

    @property
    def capacity_words(self) -> int:
        return self._capacity

    @property
    def resident_words(self) -> int:
        """Words currently held in the local memory."""
        return self._resident

    @property
    def peak_words(self) -> int:
        """Largest residency observed over the kernel's execution."""
        return self._peak

    @property
    def free_words(self) -> int:
        return self._capacity - self._resident

    def allocate(self, name: str, words: int) -> None:
        """Reserve ``words`` words for buffer ``name``.

        Raises
        ------
        MemoryCapacityError
            If the allocation would exceed the capacity.
        ConfigurationError
            If ``name`` is already allocated.
        """
        if words < 0:
            raise ConfigurationError(f"allocation size must be non-negative, got {words!r}")
        if name in self._allocations:
            raise ConfigurationError(f"buffer {name!r} is already allocated")
        if self._resident + words > self._capacity:
            raise MemoryCapacityError(
                f"allocating {words} words for {name!r} exceeds the local-memory "
                f"capacity of {self._capacity} words ({self._resident} already resident)",
                requested_words=words,
                capacity_words=self._capacity,
            )
        self._allocations[name] = int(words)
        self._resident += int(words)
        self._peak = max(self._peak, self._resident)

    def free(self, name: str) -> None:
        """Release the buffer ``name``."""
        try:
            words = self._allocations.pop(name)
        except KeyError as exc:
            raise ConfigurationError(f"buffer {name!r} is not allocated") from exc
        self._resident -= words

    def resize(self, name: str, words: int) -> None:
        """Change the size of an existing allocation (e.g. a shrinking heap)."""
        if name not in self._allocations:
            raise ConfigurationError(f"buffer {name!r} is not allocated")
        current = self._allocations[name]
        delta = int(words) - current
        if delta > 0 and self._resident + delta > self._capacity:
            raise MemoryCapacityError(
                f"growing {name!r} by {delta} words exceeds the local-memory "
                f"capacity of {self._capacity} words",
                requested_words=delta,
                capacity_words=self._capacity,
            )
        self._allocations[name] = int(words)
        self._resident += delta
        self._peak = max(self._peak, self._resident)

    @contextmanager
    def buffer(self, name: str, words: int) -> Iterator[None]:
        """Context manager form of allocate/free."""
        self.allocate(name, words)
        try:
            yield
        finally:
            self.free(name)


@dataclass(frozen=True)
class Phase:
    """One phase of a kernel execution, with its own cost breakdown.

    Phases feed the overlapped-execution model in :mod:`repro.machine.engine`:
    with double buffering, the I/O of phase ``i+1`` can proceed while phase
    ``i`` computes.
    """

    name: str
    cost: ComputationCost


@dataclass
class PhaseRecorder:
    """Accumulates the per-phase cost breakdown of a kernel execution."""

    phases: list[Phase] = field(default_factory=list)

    def record(self, name: str, compute_ops: float, io_words: float) -> None:
        """Append a phase with the given costs."""
        self.phases.append(Phase(name, ComputationCost(compute_ops, io_words)))

    @property
    def total(self) -> ComputationCost:
        """Sum of all phase costs."""
        total = ComputationCost(0.0, 0.0)
        for phase in self.phases:
            total = total + phase.cost
        return total

    def __len__(self) -> int:
        return len(self.phases)

    def __iter__(self):
        return iter(self.phases)
