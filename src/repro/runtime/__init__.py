"""Experiment-task runtime: vectorized, parallel and cached execution.

This package replaces per-point serial experiment loops with four layers:

* :mod:`repro.runtime.vectorized` -- batch-evaluate the registry's closed-form
  cost models, intensity functions and rebalancing laws over numpy grids of
  ``(N, M, alpha)`` in single array passes;
* :mod:`repro.runtime.tasks` -- the generic task abstraction: any top-level
  callable plus parameters, content-addressed by module source, resolved by
  the one :class:`TaskRunner` (cache, in-batch dedup, a long-lived process
  pool) with deterministic ordering;
* :mod:`repro.runtime.engine` -- the memory-sweep client of the task layer,
  lowering instrumented-kernel executions onto point tasks;
* :mod:`repro.runtime.cache` -- the content-addressed on-disk
  :class:`TaskCache` (``ResultCache`` is its former name);
* :mod:`repro.runtime.suites` -- declarative, named scenario suites (kernel
  sweeps plus experiment tasks) that lower onto the engines and emit
  JSON/CSV for the benchmark harness and CI.
"""

from repro.runtime.cache import (
    MISS,
    CacheStats,
    ResultCache,
    TaskCache,
    execution_key,
    kernel_code_version,
)
from repro.runtime.engine import SweepPlan, SweepRunner
from repro.runtime.suites import (
    ExperimentScenario,
    ExperimentScenarioResult,
    PEConfig,
    Scenario,
    ScenarioResult,
    ScenarioSuite,
    SuiteResult,
    build_kernel,
    experiment_kinds,
    get_suite,
    kernel_factories,
    run_suite,
    store_for,
    suite_names,
    task_runner_for,
)
from repro.runtime.tasks import (
    Task,
    TaskRunner,
    TaskRunStats,
    callable_code_version,
    default_worker_count,
    task_key,
)
from repro.runtime.vectorized import (
    analytic_summary_rows,
    cost_grid,
    intensity_grid,
    rebalance_curves,
    rebalance_grid,
)

__all__ = [
    "MISS",
    "CacheStats",
    "ExperimentScenario",
    "ExperimentScenarioResult",
    "PEConfig",
    "ResultCache",
    "Scenario",
    "ScenarioResult",
    "ScenarioSuite",
    "SuiteResult",
    "SweepPlan",
    "SweepRunner",
    "Task",
    "TaskCache",
    "TaskRunner",
    "TaskRunStats",
    "analytic_summary_rows",
    "build_kernel",
    "callable_code_version",
    "cost_grid",
    "default_worker_count",
    "execution_key",
    "experiment_kinds",
    "get_suite",
    "intensity_grid",
    "kernel_code_version",
    "kernel_factories",
    "rebalance_curves",
    "rebalance_grid",
    "run_suite",
    "store_for",
    "suite_names",
    "task_key",
    "task_runner_for",
]
