"""Output checks: the science fields of each result, in canonical form.

Two results agree when their canonical JSON is identical: sweep rows
(counted compute ops and I/O words per memory size), experiment summaries
(systolic correctness, utilization from simulated cycles and active
cell-cycles, and max errors; pebble measured loads plus stores; Figure 2
passes and output error).  Timing and cache-bookkeeping fields are left out.
"""

from __future__ import annotations

import json
from typing import Any

from repro.runtime import (
    ExperimentScenario,
    SuiteResult,
    SweepRunner,
    TaskRunner,
    build_kernel,
)
from repro.service.scheduler import analytic_sweep_payload


def canonical(value: Any) -> str:
    """Canonical JSON text; tuples become lists and NaN compares equal."""
    return json.dumps(json.loads(json.dumps(value, default=float)), sort_keys=True)


def suite_science(result: SuiteResult) -> str:
    return canonical({
        "sweeps": [[r.scenario.name, r.rows()] for r in result.results],
        "experiments": [[e.scenario.name, e.summary()] for e in result.experiments],
    })


def verification_failures(result: SuiteResult) -> list[str]:
    """Names of experiments whose own verification did not pass."""
    failed = []
    for experiment in result.experiments:
        summary = experiment.summary()
        kind = experiment.scenario.experiment
        if kind == "systolic":
            ok = all(summary[k] for k in ("matmul_correct", "matvec_correct", "qr_correct"))
        elif kind == "figure2":
            ok = bool(summary["correct"])
        elif kind == "pebble":
            ok = bool(summary["all_above_lower_bound"])
        else:
            ok = True
        if not ok:
            failed.append(experiment.scenario.name)
    return failed


def job_science(kind: str, payload: dict[str, Any]) -> str:
    """The science fields of one service job result payload."""
    if kind == "experiment":
        return canonical(payload["summary"])
    return canonical(payload["rows"])


def library_science(kind: str, params: dict[str, Any]) -> str:
    """The same fields computed in-process by the library, for comparison."""
    if kind == "experiment":
        scenario = ExperimentScenario("check", params["experiment"], params["params"])
        results = TaskRunner(parallel=False).run(scenario.tasks())
        return canonical(scenario.summarize(results))
    if params.get("analytic"):
        payload = analytic_sweep_payload(
            params["kernel"], params["memory_sizes"], params["problem_size"]
        )
        return canonical(payload["rows"])
    sweep = SweepRunner(parallel=False).run_default(
        build_kernel(params["kernel"]), params["memory_sizes"], params["scale"]
    )
    return canonical(sweep.rows())
