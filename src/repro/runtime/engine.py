"""Parallel, cached execution of memory sweeps.

The serial :class:`~repro.analysis.sweep.MemorySweep` runs one kernel at one
memory size at a time.  This module generalises it: a :class:`SweepRunner`
flattens any number of sweeps (one kernel x one problem x a memory grid)
into independent *points*, lowers each point onto a
:class:`~repro.runtime.tasks.Task` keyed by
:func:`~repro.runtime.cache.execution_key`, resolves them on its
:class:`~repro.runtime.tasks.TaskRunner` -- the runtime's one cache and one
process pool -- and regroups the results per sweep.  Serial and parallel
execution run exactly the same kernel code on exactly the same problem
instances, so their measured numbers are bitwise identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

import repro.runtime.cache as runtime_cache
from repro.analysis.sweep import MemorySweepResult, normalize_memory_sizes
from repro.exceptions import ConfigurationError
from repro.kernels.base import Kernel, KernelExecution
from repro.kernels.counters import PhaseRecorder
from repro.runtime.tasks import Task, TaskRunner

__all__ = ["SweepPlan", "SweepRunner"]


@dataclass(frozen=True)
class SweepPlan:
    """One kernel swept over a memory grid, on a fixed or scaled problem.

    Exactly one of ``problem`` (a fixed problem instance, as for
    :meth:`MemorySweep.run`) and ``scale`` (the kernel's default problem at
    that scale, as for :meth:`MemorySweep.run_default`) must be provided.
    """

    kernel: Kernel
    memory_sizes: tuple[int, ...]
    problem: Mapping[str, Any] | None = None
    scale: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if (self.problem is None) == (self.scale is None):
            raise ConfigurationError(
                "a SweepPlan needs exactly one of `problem` and `scale`, got "
                f"problem={self.problem!r}, scale={self.scale!r}"
            )
        object.__setattr__(
            self, "memory_sizes", normalize_memory_sizes(self.memory_sizes)
        )

    @property
    def label(self) -> str:
        return self.name or self.kernel.name

    def problem_at(self, memory_words: int) -> dict[str, Any]:
        """The problem instance for one memory size of this sweep."""
        if self.problem is not None:
            return dict(self.problem)
        return self.kernel.problem_for_memory(memory_words, self.scale)


def _problem_summary(problem: Mapping[str, Any]) -> dict[str, Any]:
    """A human-readable sketch of the problem, kept in place of its arrays."""
    summary: dict[str, Any] = {}
    for key, value in problem.items():
        if isinstance(value, np.ndarray):
            summary[key] = f"ndarray{tuple(value.shape)}:{value.dtype}"
        elif isinstance(value, (bool, int, float, str)) or value is None:
            summary[key] = value
        else:
            summary[key] = repr(value)
    return summary


def _execute_point(
    kernel: Kernel, memory_words: int, problem: dict[str, Any], verify: bool
) -> KernelExecution:
    """Worker entry: run one sweep point and return its slim record.

    Every sweep consumer reads only the cost, intensity, peak residency and
    names, so the record drops the numerical output, the phase breakdown and
    the problem's arrays -- what the cache stores and the pool ships back.
    """
    execution = kernel.execute(memory_words, **problem)
    if verify and not kernel.verify(execution):
        raise ConfigurationError(
            f"{kernel.name} produced an incorrect result at M={memory_words}"
        )
    return dataclasses.replace(
        execution,
        problem=_problem_summary(problem),
        output=None,
        phases=PhaseRecorder(),
    )


class _PointTask(Task):
    """A sweep point, content-addressed by its kernel execution."""

    def key(self) -> str:
        # Looked up on the module at call time, so a wrapper installed on
        # ``repro.runtime.cache.execution_key`` (per-layer tracing) sees
        # the point keys too.
        params = self.params
        return runtime_cache.execution_key(
            params["kernel"], params["memory_words"], params["problem"]
        )


class SweepRunner:
    """Lowers sweep plans onto point tasks and regroups the results.

    Parameters
    ----------
    parallel:
        Fan kernel executions out across the process pool.  Results are
        collected back in submission order, so the output is deterministic
        and identical to a serial run.
    max_workers:
        Pool size; defaults to the machine's core count.
    cache:
        Optional :class:`~repro.runtime.cache.TaskCache`, shared with the
        suite's experiment tasks (:func:`repro.runtime.task_runner_for`).
        Points whose key is present are replayed without executing anything;
        fresh executions are stored back.  Ignored when ``verify`` is set, so
        every point then runs and is checked.
    verify:
        Check every execution's output against the kernel's reference
        implementation, as in :class:`MemorySweep`.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: runtime_cache.TaskCache | None = None,
        verify: bool = False,
    ) -> None:
        self.verify = verify
        self.task_runner = TaskRunner(
            parallel=parallel,
            max_workers=max_workers,
            cache=None if verify else cache,
        )

    @property
    def parallel(self) -> bool:
        return self.task_runner.parallel

    @property
    def max_workers(self) -> int:
        return self.task_runner.max_workers

    @property
    def cache(self) -> runtime_cache.TaskCache | None:
        return self.task_runner.cache

    # -- public API ----------------------------------------------------------

    def run(
        self, kernel: Kernel, memory_sizes: Sequence[int], **problem: Any
    ) -> MemorySweepResult:
        """Sweep one kernel over ``memory_sizes`` on a fixed problem."""
        plan = SweepPlan(
            kernel=kernel, memory_sizes=tuple(memory_sizes), problem=problem
        )
        return self.run_plans([plan])[0]

    def run_default(
        self, kernel: Kernel, memory_sizes: Sequence[int], scale: int
    ) -> MemorySweepResult:
        """Sweep one kernel on its default problem at the given scale."""
        plan = SweepPlan(
            kernel=kernel, memory_sizes=tuple(memory_sizes), scale=scale
        )
        return self.run_plans([plan])[0]

    def run_plans(self, plans: Sequence[SweepPlan]) -> list[MemorySweepResult]:
        """Execute any number of sweeps as one flat batch of points.

        All points from all plans share the worker pool, so a multi-kernel
        suite saturates the machine even when individual sweeps are short.
        The returned list is ordered like ``plans``.
        """
        tasks = self.lower(plans)
        return self.regroup(plans, tasks, self.task_runner.run(tasks))

    def lower(self, plans: Sequence[SweepPlan]) -> list[Task]:
        """One point task per (plan, memory size), in plan then grid order."""
        tasks: list[Task] = []
        for plan in plans:
            for size in plan.memory_sizes:
                plan.kernel.validate_memory(size)
                tasks.append(
                    _PointTask(
                        fn=_execute_point,
                        params={
                            "kernel": plan.kernel,
                            "memory_words": size,
                            "problem": plan.problem_at(size),
                            "verify": self.verify,
                        },
                        name=f"{plan.kernel.name}@M={size}",
                    )
                )
        return tasks

    @staticmethod
    def regroup(
        plans: Sequence[SweepPlan],
        tasks: Sequence[Task],
        executions: Sequence[KernelExecution],
    ) -> list[MemorySweepResult]:
        """Reassemble :meth:`lower`'s point results into one sweep per plan."""
        sweeps = []
        end = 0
        for plan in plans:
            start, end = end, end + len(plan.memory_sizes)
            sweeps.append(
                MemorySweepResult(
                    kernel_name=plan.kernel.name,
                    # run_default semantics: the sweep reports the problem of
                    # the largest memory size, matching MemorySweep.run_default.
                    problem=dict(tasks[end - 1].params["problem"]),
                    memory_sizes=plan.memory_sizes,
                    executions=tuple(executions[start:end]),
                )
            )
        return sweeps
