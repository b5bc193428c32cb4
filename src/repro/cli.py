"""Command-line interface: regenerate the paper's artifacts from a shell.

The CLI is a thin wrapper over :mod:`repro.experiments`; each subcommand runs
one experiment and prints its tables.

Examples
--------
::

    python -m repro list                     # what can be regenerated
    python -m repro summary --quick          # E1, small problem sizes
    python -m repro matmul                   # E2 intensity + rebalancing curve
    python -m repro figure2                  # the Figure 2 decomposition
    python -m repro arrays                   # E10/E11 sizing tables
    python -m repro systolic                 # E12 cycle-level simulations
    python -m repro pebble                   # E9 pebble game vs lower bounds
    python -m repro warp                     # E13 Warp case study
    python -m repro sweep fft --jobs 4       # one kernel through the runtime
    python -m repro suite quick --json out.json   # a whole scenario suite
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.report import Table
from repro.analysis.sweep import normalize_memory_sizes
from repro.core.intensity import PowerLawIntensity
from repro.experiments.arrays_section4 import (
    linear_array_task,
    mesh_array_task,
    systolic_task,
)
from repro.experiments.fft_figure2 import figure2_task, render_decomposition
from repro.experiments.intensity import run_intensity_experiment
from repro.experiments.pebble_bounds import run_pebble_experiment
from repro.experiments.summary import (
    analytic_summary_table,
    run_summary_experiment,
    summary_table,
)
from repro.experiments.warp_study import warp_task
from repro.kernels import (
    BlockedFFT,
    BlockedLUTriangularization,
    BlockedMatrixMultiply,
    ExternalMergeSort,
    GridRelaxation,
    StreamingMatrixVectorProduct,
    StreamingTriangularSolve,
)
from repro.runtime import (
    ExperimentScenario,
    SweepRunner,
    TaskCache,
    TaskRunner,
    build_kernel,
    cost_grid,
    get_suite,
    kernel_factories,
    rebalance_grid,
    run_suite,
    store_for,
    suite_names,
)
from repro.store import (
    ResultStore,
    ingest_file,
    ingest_payload,
    query,
    records_table,
    report_document,
)
from repro.store.query import group_counts
from repro.core.registry import get as get_registry_spec
from repro.exceptions import ReproError

__all__ = ["main", "build_parser"]


_KERNEL_COMMANDS = {
    "matmul": (BlockedMatrixMultiply, 48, (12, 27, 48, 108, 192, 300, 432), None),
    "triangularization": (BlockedLUTriangularization, 48, (12, 27, 48, 108, 192, 300), None),
    "grid2d": (lambda: GridRelaxation(dimension=2), 7, (100, 256, 576, 1296, 2704), None),
    "grid3d": (lambda: GridRelaxation(dimension=3), 7, (512, 1728, 4096, 13824), None),
    "fft": (BlockedFFT, 12, (4, 8, 16, 32, 128, 8192), 32),
    "sorting": (ExternalMergeSort, 16384, (8, 32, 128, 512), 32),
    "matvec": (StreamingMatrixVectorProduct, 64, (8, 32, 128, 512, 2048), None),
    "triangular_solve": (StreamingTriangularSolve, 64, (8, 32, 128, 512, 2048), None),
}

#: Default memory grid and scale for `repro sweep KERNEL`, per kernel.
_DEFAULT_SWEEPS: dict[str, tuple[tuple[int, ...], int]] = {
    "matmul": ((12, 27, 48, 108, 192, 300, 432), 48),
    "triangularization": ((12, 27, 48, 108, 192, 300), 48),
    "grid1d": ((16, 64, 256, 1024), 64),
    "grid2d": ((100, 256, 576, 1296, 2704), 7),
    "grid3d": ((512, 1728, 4096, 13824), 7),
    "grid4d": ((256, 1296, 4096, 20736), 5),
    "fft": ((4, 8, 16, 32, 128, 8192), 12),
    "sorting": ((8, 32, 128, 512), 16384),
    "matvec": ((8, 32, 128, 512, 2048), 64),
    "triangular_solve": ((8, 32, 128, 512, 2048), 64),
    "sparse_matvec": ((8, 32, 128, 512, 2048), 64),
}

_EXPERIMENT_DESCRIPTIONS = {
    "list": "list every experiment and subcommand",
    "summary": "E1: the Section 3 summary table (analytic and measured)",
    "sweep": "run one kernel sweep through the scenario runtime (JSON/CSV output)",
    "suite": "run a named scenario suite through the parallel runtime",
    "serve": "run the long-lived job service (HTTP JSON API over the runtime)",
    "submit": "submit a job to a running service and wait for its result",
    "trace": "show or export a job's span tree from a running service",
    "cache": "inspect or clear the on-disk result caches and the result store",
    "report": "query recorded results: filter, transform and render run history",
    "ingest": "load result JSON artifacts (suite/sweep/bench) into the result store",
    "doctor": "diagnose cache integrity, journal health, worker liveness and environment",
    "figure2": "E6: the Figure 2 FFT decomposition (N=16, M=4)",
    "arrays": "E10/E11: per-cell memory sizing for linear arrays and meshes",
    "systolic": "E12: cycle-level systolic matmul / matvec simulations",
    "pebble": "E9: red-blue pebble game vs Hong-Kung lower bounds",
    "warp": "E13: the CMU Warp machine case study",
    **{
        name: f"E2-E8: measured intensity and rebalancing curve for {name}"
        for name in _KERNEL_COMMANDS
    },
}


def _print(text: str) -> None:
    print(text)
    print()


def _store_from_args(args: argparse.Namespace) -> ResultStore | None:
    """The result store under the command's cache root (None when uncached)."""
    if getattr(args, "no_cache", False):
        return None
    root = Path(getattr(args, "cache_dir", None) or _default_cache_dir())
    return ResultStore(root / "store")


def _record_payload(args: argparse.Namespace, payload: dict) -> None:
    """Best-effort ingest of one result document into the store.

    History recording must never fail the experiment that produced the
    result; a broken store directory degrades to a warning.
    """
    store = _store_from_args(args)
    if store is None:
        return
    try:
        receipt = ingest_payload(store, payload)
    except Exception as exc:  # noqa: BLE001 - history is best-effort
        print(f"repro: warning: could not record result: {exc}", file=sys.stderr)
        return
    note = "" if receipt.added else " (deduplicated)"
    print(f"recorded run {receipt.run_id}{note} [{store.root}]")


def _record_experiment(
    args: argparse.Namespace,
    name: str,
    kind: str,
    results: Sequence[object],
    task_keys: Sequence[str] = (),
) -> None:
    scenario = ExperimentScenario(name, kind)
    _record_payload(args, scenario.as_payload(results, task_keys=task_keys))


def _cmd_list(_: argparse.Namespace) -> int:
    for name, description in _EXPERIMENT_DESCRIPTIONS.items():
        print(f"  {name:<18s} {description}")
    return 0


def _cmd_summary(args: argparse.Namespace) -> int:
    _print(analytic_summary_table().render_ascii())
    runner = SweepRunner(parallel=args.jobs > 1, max_workers=args.jobs)
    experiment = run_summary_experiment(quick=args.quick, runner=runner)
    records = experiment.records()
    store = _store_from_args(args)
    if store is not None:
        # Record, then render from the queried-back store rows: the table the
        # user sees *is* the recorded history.
        receipt = ingest_payload(store, experiment.as_payload())
        records = query(store, experiment="summary", run_id=receipt.run_id)
    _print(summary_table(records).render_ascii())
    if not experiment.all_agree:
        print("WARNING: at least one measured classification disagrees with the paper")
        return 1
    return 0


def _cmd_kernel(name: str, args: argparse.Namespace) -> int:
    factory, scale, memories, base_memory = _KERNEL_COMMANDS[name]
    kernel = factory()
    experiment = run_intensity_experiment(
        kernel, memories, scale, base_memory=base_memory
    )
    _print(experiment.table().render_ascii())
    _print(experiment.rebalance_table().render_ascii())
    print(f"fitted intensity exponent : {experiment.intensity_exponent:.3f}")
    print(f"predicted law             : {experiment.predicted_law_label}")
    if experiment.rebalancable:
        print(f"measured growth exponent  : {experiment.memory_growth_exponent:.3f}")
    else:
        print("measured growth exponent  : infeasible (I/O bounded)")
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    runner = _task_runner_from_args(args)
    task = figure2_task(n_points=args.points, block_points=args.block)
    result = runner.run_one(task)
    _print(render_decomposition(result))
    _print(result.table().render_ascii())
    print(f"correct against the direct DFT: {result.correct}")
    _print_task_cache(runner)
    _record_experiment(args, "cli-figure2", "figure2", [result], [task.key()])
    return 0 if result.correct else 1


def _cmd_arrays(args: argparse.Namespace) -> int:
    runner = _task_runner_from_args(args)
    linear_kwargs = {} if args.lengths is None else {"lengths": args.lengths}
    mesh_kwargs = {} if args.sides is None else {"sides": args.sides}
    tasks = [
        linear_array_task(**linear_kwargs),
        mesh_array_task(**mesh_kwargs),
        mesh_array_task(
            **mesh_kwargs,
            intensity=PowerLawIntensity(exponent=0.25),
            computation_label="4-d grid relaxation (law alpha^4)",
        ),
    ]
    experiments = runner.run(tasks)
    for experiment in experiments:
        _print(experiment.table().render_ascii())
    _print_task_cache(runner)
    names = ("cli-linear-array", "cli-mesh-array", "cli-mesh-array-grid4d")
    kinds = ("linear-array", "mesh-array", "mesh-array")
    for name, kind, task, experiment in zip(names, kinds, tasks, experiments):
        _record_experiment(args, name, kind, [experiment], [task.key()])
    return 0


def _cmd_systolic(args: argparse.Namespace) -> int:
    runner = _task_runner_from_args(args)
    task = systolic_task(
        order=args.order,
        batches=args.batches,
        engine=args.engine,
        matvec_length=args.matvec_length,
        qr_order=args.qr_order,
        qr_rows=args.qr_rows,
    )
    experiment = runner.run_one(task)
    _print(experiment.table().render_ascii())
    _print_task_cache(runner)
    _record_experiment(args, "cli-systolic", "systolic", [experiment], [task.key()])
    correct = (
        experiment.matmul_correct
        and experiment.matvec_correct
        and experiment.qr_correct
    )
    return 0 if correct else 1


def _cmd_pebble(args: argparse.Namespace) -> int:
    runner = _task_runner_from_args(args)
    experiment = run_pebble_experiment(
        matmul_order=args.matmul_order, fft_points=args.fft_points, runner=runner
    )
    _print(experiment.table().render_ascii())
    _print_task_cache(runner)
    _record_experiment(args, "cli-pebble", "pebble", experiment.points)
    return 0 if experiment.all_above_lower_bound else 1


def _cmd_warp(args: argparse.Namespace) -> int:
    runner = _task_runner_from_args(args)
    task = warp_task()
    experiment = runner.run_one(task)
    _print(experiment.cell_table().render_ascii())
    _print(experiment.array_table().render_ascii())
    _print(experiment.alpha_table().render_ascii())
    _print_task_cache(runner)
    _record_experiment(args, "cli-warp", "warp", [experiment], [task.key()])
    return 0


# ---------------------------------------------------------------------------
# The scenario-runtime subcommands (`repro sweep`, `repro suite`).
# ---------------------------------------------------------------------------


def _default_cache_dir() -> Path:
    return Path(
        os.environ.get("REPRO_CACHE_DIR", Path.home() / ".cache" / "repro")
    )


def _runner_from_args(
    args: argparse.Namespace, *, parallel_default: bool = True
) -> SweepRunner:
    cache = None
    if not args.no_cache:
        cache = TaskCache(args.cache_dir or _default_cache_dir())
    parallel = parallel_default
    if args.serial:
        parallel = False
    elif args.jobs is not None:
        parallel = args.jobs > 1
    return SweepRunner(
        parallel=parallel,
        max_workers=args.jobs,
        cache=cache,
        verify=getattr(args, "verify", False),
    )


def _task_runner_from_args(args: argparse.Namespace) -> TaskRunner:
    """The :class:`TaskRunner` for the experiment subcommands."""
    return _runner_from_args(args).task_runner


def _print_task_cache(runner: TaskRunner) -> None:
    if runner.cache is not None:
        stats = runner.cache.stats
        print(f"cache: {stats.hits} hits, {stats.misses} misses ({runner.cache.root})")


def _add_task_runtime_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: one per core)"
    )
    parser.add_argument(
        "--serial", action="store_true", help="run every task in-process, one at a time"
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the on-disk result cache"
    )


def _add_runtime_options(parser: argparse.ArgumentParser) -> None:
    _add_task_runtime_options(parser)
    parser.add_argument("--json", type=Path, default=None, help="write results as JSON")
    parser.add_argument("--csv", type=Path, default=None, help="write results as CSV")


def _parse_memory_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated list of integers, got {text!r}"
        ) from exc


def _parse_nonempty_int_list(text: str) -> tuple[int, ...]:
    """Like :func:`_parse_memory_list`, but an empty list is a usage error.

    ``sweep --memory ,`` deliberately passes the empty grid through so the
    runtime rejects it; the array-size flags have no such downstream check
    and would otherwise crash building the task name.
    """
    values = _parse_memory_list(text)
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected at least one integer, got {text!r}"
        )
    return values


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _cmd_sweep(args: argparse.Namespace) -> int:
    defaults = _DEFAULT_SWEEPS.get(args.kernel)
    # `--memory ,` (explicit but empty) must not silently fall back to the
    # default grid; let the runtime reject the empty grid instead.
    memory_sizes = (
        args.memory
        if args.memory is not None
        else (defaults[0] if defaults else None)
    )
    scale = args.scale if args.scale is not None else (defaults[1] if defaults else None)
    if memory_sizes is None or scale is None:
        print(f"kernel {args.kernel!r} has no default grid; pass --memory and --scale")
        return 2
    memory_sizes = normalize_memory_sizes(memory_sizes)

    if args.analytic:
        return _cmd_sweep_analytic(args, memory_sizes)

    runner = _runner_from_args(args, parallel_default=False)
    kernel = build_kernel(args.kernel)
    sweep = runner.run_default(kernel, memory_sizes, scale)
    rows = sweep.rows()

    table = Table(
        columns=("memory_words", "compute_ops", "io_words", "intensity"),
        title=f"{kernel.name}: measured intensity F(M) [runtime sweep]",
    )
    for row in rows:
        table.add_row(
            row["memory_words"], row["compute_ops"], row["io_words"], row["intensity"]
        )
    _print(table.render_ascii())
    try:
        fit = {
            "power_law_exponent": sweep.power_law_fit().exponent,
            "best_model": sweep.best_model(),
            "computation_class": sweep.classification().computation_class.value,
        }
    except ReproError as exc:
        # Law fitting needs three or more points; the measurements themselves
        # are still worth printing and exporting.
        fit = None
        print(f"fit                       : unavailable ({exc})")
    if fit is not None:
        print(f"fitted intensity exponent : {fit['power_law_exponent']:.3f}")
        print(f"best model                : {fit['best_model']}")
    if runner.cache is not None:
        stats = runner.cache.stats
        print(f"cache                     : {stats.hits} hits, {stats.misses} misses")

    payload = {
        "schema": "repro-sweep-result/v1",
        "kernel": args.kernel,
        "scale": scale,
        "memory_sizes": list(sweep.memory_sizes),
        "rows": rows,
        "fit": fit,
    }
    _record_payload(args, payload)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote JSON to {args.json}")
    if args.csv:
        _write_rows_csv(args.csv, rows)
        print(f"wrote CSV to {args.csv}")
    return 0


def _cmd_sweep_analytic(
    args: argparse.Namespace, memory_sizes: tuple[int, ...]
) -> int:
    # The registry may know a kernel under a different name than the CLI
    # factory (e.g. sparse_matvec -> spmv); resolve through the kernel class.
    registry_name = build_kernel(args.kernel).registry_name or args.kernel
    spec = get_registry_spec(registry_name)
    costs = cost_grid(spec, [args.problem_size], memory_sizes)
    intensities = spec.batch_intensity(memory_sizes)

    table = Table(
        columns=("memory_words", "model F(M)", "cost intensity", "compute_ops", "io_words"),
        title=f"{spec.title}: analytic cost model at N={args.problem_size} (one array pass)",
    )
    for j, memory in enumerate(memory_sizes):
        table.add_row(
            memory,
            float(intensities[j]),
            float(costs.intensity[0, j]),
            float(costs.compute_ops[0, j]),
            float(costs.io_words[0, j]),
        )
    _print(table.render_ascii())

    alphas = (1.5, 2.0, 3.0, 4.0)
    grown = rebalance_grid(spec.law, float(memory_sizes[0]), alphas)
    law_table = Table(
        columns=("alpha", "memory_new"),
        title=f"{spec.title}: {spec.law_label} from M_old={memory_sizes[0]}",
    )
    for alpha, memory_new in zip(alphas, grown):
        law_table.add_row(alpha, float(memory_new))
    _print(law_table.render_ascii())

    rows = [
        {
            "memory_words": float(memory),
            "model_intensity": float(intensities[j]),
            "cost_intensity": float(costs.intensity[0, j]),
            "compute_ops": float(costs.compute_ops[0, j]),
            "io_words": float(costs.io_words[0, j]),
        }
        for j, memory in enumerate(memory_sizes)
    ]
    payload = {
        "schema": "repro-sweep-analytic/v1",
        "kernel": args.kernel,
        "problem_size": args.problem_size,
        "rows": rows,
        "rebalance": [
            {"alpha": alpha, "memory_new": float(memory_new)}
            for alpha, memory_new in zip(alphas, grown)
        ],
    }
    _record_payload(args, payload)
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote JSON to {args.json}")
    if args.csv:
        _write_rows_csv(args.csv, rows)
        print(f"wrote CSV to {args.csv}")
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    if args.list:
        for name in suite_names():
            suite = get_suite(name)
            print(f"  {name:<8s} {len(suite.scenarios):2d} scenarios  {suite.description}")
        return 0
    name = "quick" if args.quick else (args.name or "quick")
    suite = get_suite(name)
    runner = _runner_from_args(args)
    result = run_suite(suite, runner)

    table = Table(
        columns=("scenario", "kernel", "points", "exponent", "best model", "class"),
        title=f"suite {suite.name!r}: {suite.description}",
    )
    for scenario_result in result.results:
        fit = scenario_result.fit()
        table.add_row(
            scenario_result.scenario.name,
            scenario_result.scenario.kernel,
            len(scenario_result.sweep.memory_sizes),
            f"{fit['power_law_exponent']:.3f}",
            fit["best_model"],
            fit["computation_class"],
        )
    _print(table.render_ascii())

    if result.experiments:
        experiments_table = Table(
            columns=("experiment", "kind", "tasks", "headline"),
            title=f"suite {suite.name!r}: experiment tasks",
        )
        for experiment_result in result.experiments:
            experiments_table.add_row(
                experiment_result.scenario.name,
                experiment_result.scenario.experiment,
                len(experiment_result.results),
                experiment_result.headline(),
            )
        _print(experiments_table.render_ascii())

    mode = "parallel" if runner.parallel else "serial"
    print(
        f"{result.runtime['points']} points + "
        f"{result.runtime['experiment_tasks']} experiment tasks "
        f"in {result.elapsed_seconds:.2f}s ({mode}, {runner.max_workers} workers)"
    )
    if runner.cache is not None:
        points, tasks = result.runtime["cache"], result.runtime["task_cache"]
        print(
            f"cache: {points['hits']} point hits, {points['misses']} misses; "
            f"{tasks['hits']} task hits, {tasks['misses']} misses "
            f"({runner.cache.root})"
        )
        store = store_for(runner)
        if store is not None:
            print(f"recorded run {result.run_id} [{store.root}]")
    if args.json:
        print(f"wrote JSON to {result.write_json(args.json)}")
    if args.csv:
        print(f"wrote CSV to {result.write_csv(args.csv)}")
    return 0


# ---------------------------------------------------------------------------
# The service subcommands (`repro serve`, `repro submit`, `repro cache`).
# ---------------------------------------------------------------------------


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(value)} B"  # pragma: no cover - loop always returns


def _cmd_serve(args: argparse.Namespace) -> int:
    import contextlib
    import signal
    import threading

    from repro.faults.injector import FaultInjector, install, install_from_env
    from repro.service import JobService, serve

    # The CLI flag wins over the environment; both off leaves the injector
    # uninstalled (the common case -- fault checks are then a None test).
    if args.faults:
        install(FaultInjector.from_spec(args.faults, seed=args.faults_seed))
    else:
        install_from_env()

    if args.log_json:
        from repro.obs.spans import configure_json_logging

        configure_json_logging()

    cache_dir = None if args.no_cache else (args.cache_dir or _default_cache_dir())
    parallel = not args.serial and (args.jobs is None or args.jobs > 1)
    service = JobService(
        cache_dir=cache_dir,
        state_path=args.state_file,
        parallel=parallel,
        max_workers=args.jobs,
        workers=args.workers,
        max_queue_depth=args.max_queue,
        spans=not args.no_spans,
    )
    server = serve(args.host, args.port, service)
    service.start()

    def _graceful(signum: int, frame: object) -> None:
        # SIGTERM = graceful drain: stop admitting (503), give in-flight
        # work args.drain_timeout seconds to finish and journal, then shut
        # the listener down.  Runs on a helper thread because shutdown()
        # would deadlock if called from inside serve_forever's loop; the
        # signal handler itself returns immediately.  SIGINT (Ctrl-C)
        # stays an immediate stop -- interactive users want out *now* and
        # the journal recovers anything interrupted.
        threading.Thread(
            target=lambda: (service.drain(args.drain_timeout), server.shutdown()),
            name="repro-drain",
            daemon=True,
        ).start()

    with contextlib.suppress(ValueError):  # not the main thread (embedded)
        signal.signal(signal.SIGTERM, _graceful)

    cache_note = f"cache {cache_dir}" if cache_dir else "cache disabled"
    queue_note = (
        f", queue limit {args.max_queue}" if args.max_queue is not None else ""
    )
    print(
        f"repro service listening on http://{args.host}:{server.port} "
        f"({args.workers} workers, {cache_note}{queue_note})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.stop()
    return 0


def _submit_params(args: argparse.Namespace) -> dict:
    extra = {}
    if args.params:
        try:
            extra = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise ReproError(f"--params must be a JSON object: {exc}") from exc
        if not isinstance(extra, dict):
            raise ReproError(f"--params must be a JSON object, got {extra!r}")
    if args.kind == "suite":
        return {"suite": args.spec, **extra}
    if args.kind == "experiment":
        return {"experiment": args.spec, "params": extra}
    params = {"kernel": args.spec, **extra}
    defaults = _DEFAULT_SWEEPS.get(args.spec)
    if defaults is not None and "memory_sizes" not in params:
        params["memory_sizes"] = list(defaults[0])
    if defaults is not None and not params.get("analytic") and "scale" not in params:
        params["scale"] = defaults[1]
    return params


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port, timeout=min(args.timeout, 30.0))
    job = client.submit(args.kind, _submit_params(args), trace_id=args.trace)
    note = f" (deduplicated into {job['deduped_into']})" if job["deduped_into"] else ""
    print(
        f"job {job['id']} submitted: {args.kind} {args.spec}{note} "
        f"[trace {job['trace_id']}]"
    )
    if args.no_wait:
        return 0
    document = client.wait(job["id"], timeout=args.timeout)
    print(f"job {job['id']} done in {document['elapsed_seconds']:.2f}s")
    if args.json:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(document["result"], indent=2) + "\n")
        print(f"wrote JSON to {args.json}")
    else:
        print(json.dumps(document["result"], indent=2))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.spans import chrome_trace, render_tree, spans_payload
    from repro.service import ServiceClient

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    document = client.trace(args.trace_id)
    if args.action == "show":
        print(
            f"trace {document['trace_id']}: {document['span_count']} spans, "
            f"{document['roots']} roots, depth {document['depth']}"
        )
        print()
        print(render_tree(document["tree"]))
        return 0
    # export: Chrome/Perfetto trace-event JSON (load in chrome://tracing or
    # ui.perfetto.dev), or the raw repro-spans/v1 document for `repro ingest`.
    if args.format == "chrome":
        payload = chrome_trace(document["spans"])
    else:
        payload = spans_payload(document["trace_id"], document["spans"])
    text = json.dumps(payload, indent=2) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text)
        print(
            f"wrote {args.format} trace ({document['span_count']} spans) "
            f"to {args.out}"
        )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    root = Path(args.cache_dir or _default_cache_dir())
    cache = TaskCache(root)
    store = ResultStore(root / "store")
    if args.action == "clear":
        removed = cache.clear()
        if args.keep_store:
            print(f"removed {removed} cache entries from {root} (store kept)")
        else:
            runs = store.clear()
            print(f"removed {removed} cache entries and {runs} store runs from {root}")
        return 0
    entries, cache_bytes = len(cache), cache.disk_usage_bytes()
    store_runs, store_records = store.run_count(), len(store)
    store_bytes = store.disk_usage_bytes()
    print(f"cache root    : {root}")
    print(f"task results  : {entries} entries, {_format_bytes(cache_bytes)}")
    print(
        f"result store  : {store_runs} runs, {store_records} records, "
        f"{_format_bytes(store_bytes)}"
    )
    print(
        f"total         : {entries} entries + {store_runs} runs, "
        f"{_format_bytes(cache_bytes + store_bytes)}"
    )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    store = ResultStore(Path(args.cache_dir or _default_cache_dir()) / "store")
    for path in args.paths:
        receipt = ingest_file(store, path, reader=args.reader)
        status = "added" if receipt.added else "deduplicated"
        print(
            f"{path}: {status} run {receipt.run_id} "
            f"({receipt.record_count} records)"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.transforms import apply_transform, describe_transforms
    from repro.store.readers import describe_readers

    if args.list_transforms:
        table = records_table(
            describe_transforms(), columns=("transform", "description"),
            title="registered transforms",
        )
        _print(table.render_ascii())
        table = records_table(
            describe_readers(), columns=("reader", "schemas", "description"),
            title="registered readers",
        )
        _print(table.render_ascii())
        return 0

    store = ResultStore(Path(args.cache_dir or _default_cache_dir()) / "store")
    records = query(
        store,
        experiment=args.experiment,
        scenario=args.scenario,
        kernel=args.kernel,
        suite=args.suite,
        run_id=args.run,
    )
    transform = "regressions" if args.regressions else args.transform
    if transform:
        records = apply_transform(transform, records)
    if args.group:
        records = group_counts(records, args.group)
    if args.limit is not None:
        records = records[len(records) - min(args.limit, len(records)) :]

    regressed = transform == "regressions" and any(
        record.get("regression") for record in records
    )
    if args.format == "json":
        document = report_document(
            records,
            transform=transform,
            filters={
                "experiment": args.experiment,
                "scenario": args.scenario,
                "kernel": args.kernel,
                "suite": args.suite,
                "run_id": args.run,
                "group": args.group,
                "limit": args.limit,
            },
        )
        print(json.dumps(document, indent=2))
    else:
        columns = args.columns.split(",") if args.columns else None
        title = f"result store: {len(records)} records [{store.root}]"
        table = records_table(records, columns=columns, title=title)
        if args.format == "markdown":
            print(table.render_markdown())
        elif args.format == "csv":
            print(table.render_csv(), end="")
        else:
            _print(table.render_ascii())
    if regressed:
        print("WARNING: at least one bench case regressed past the threshold")
        return 1
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.obs.doctor import run_doctor

    cache_dir = None if args.no_cache else (args.cache_dir or _default_cache_dir())
    report = run_doctor(
        cache_dir=cache_dir,
        state_path=args.state_file,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        max_job_age=args.max_job_age,
    )
    if args.json == "-":
        print(json.dumps(report.as_dict(), indent=2))
    else:
        if args.json:
            path = Path(args.json)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        _print(report.table().render_ascii())
        if args.json:
            print(f"wrote JSON to {args.json}")
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the results of Kung's balanced-architecture analysis.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help=_EXPERIMENT_DESCRIPTIONS["list"])

    summary = subparsers.add_parser("summary", help=_EXPERIMENT_DESCRIPTIONS["summary"])
    summary.add_argument(
        "--quick", action="store_true", help="smaller problems (seconds instead of tens of seconds)"
    )
    summary.add_argument(
        "--jobs", type=int, default=1, help="fan kernel executions across N worker processes"
    )
    summary.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache root whose result store records the run "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    summary.add_argument(
        "--no-cache", action="store_true", help="do not record the run in the result store"
    )

    sweep = subparsers.add_parser("sweep", help=_EXPERIMENT_DESCRIPTIONS["sweep"])
    sweep.add_argument("kernel", choices=sorted(kernel_factories()))
    sweep.add_argument(
        "--memory", type=_parse_memory_list, default=None,
        help="comma-separated memory sizes (default: the kernel's standard grid)",
    )
    sweep.add_argument("--scale", type=int, default=None, help="problem scale")
    sweep.add_argument(
        "--analytic", action="store_true",
        help="evaluate the registry cost model over the grid instead of running the kernel",
    )
    sweep.add_argument(
        "--problem-size", type=int, default=4096,
        help="problem size N for --analytic cost tables",
    )
    sweep.add_argument(
        "--verify", action="store_true",
        help="check every execution against the reference implementation (disables the cache)",
    )
    _add_runtime_options(sweep)

    suite = subparsers.add_parser("suite", help=_EXPERIMENT_DESCRIPTIONS["suite"])
    suite.add_argument(
        "name", nargs="?", default=None,
        help="suite to run (see --list); defaults to 'quick'",
    )
    suite.add_argument("--quick", action="store_true", help="shorthand for the 'quick' suite")
    suite.add_argument("--list", action="store_true", help="list the named suites and exit")
    _add_runtime_options(suite)

    serve = subparsers.add_parser("serve", help=_EXPERIMENT_DESCRIPTIONS["serve"])
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8035, help="bind port (0 picks one)")
    serve.add_argument(
        "--workers", type=int, default=2,
        help="job worker threads draining the queue (default: 2)",
    )
    serve.add_argument(
        "--state-file", type=Path, default=None,
        help="JSON-lines job journal for restart recovery (default: none)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=None,
        help="bound the scheduler queue; saturated submissions get 429 + "
        "Retry-After (default: unbounded)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds SIGTERM gives in-flight jobs to finish before the "
        "listener stops (default: 30)",
    )
    serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="chaos testing: inject faults per SPEC, e.g. "
        "'task-crash:count=2;slow-task:rate=0.2,delay=0.05' "
        "(overrides $REPRO_FAULTS; see repro.faults)",
    )
    serve.add_argument(
        "--faults-seed", type=int, default=0,
        help="seed for the fault injector's deterministic RNGs (default: 0)",
    )
    serve.add_argument(
        "--log-json", action="store_true",
        help="structured JSON-lines logging on stderr, each line stamped "
        "with the trace/span IDs bound on the emitting thread",
    )
    serve.add_argument(
        "--no-spans", action="store_true",
        help="disable span collection (GET /trace/{id} then returns 404)",
    )
    _add_task_runtime_options(serve)

    submit = subparsers.add_parser("submit", help=_EXPERIMENT_DESCRIPTIONS["submit"])
    submit.add_argument("kind", choices=("sweep", "experiment", "suite"))
    submit.add_argument(
        "spec",
        help="suite name, experiment kind, or kernel name (per the job kind)",
    )
    submit.add_argument(
        "--params", default=None,
        help="extra job parameters as a JSON object (e.g. "
        '\'{"memory_sizes": [8, 32], "scale": 16}\')',
    )
    submit.add_argument("--host", default="127.0.0.1", help="service address")
    submit.add_argument("--port", type=int, default=8035, help="service port")
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return without polling for the result",
    )
    submit.add_argument(
        "--timeout", type=float, default=600.0,
        help="seconds to wait for the result (default: 600)",
    )
    submit.add_argument(
        "--json", type=Path, default=None,
        help="write the result payload to this file instead of stdout",
    )
    submit.add_argument(
        "--trace", default=None,
        help="trace ID to stamp on the job (4..64 chars of [A-Za-z0-9._-]; "
        "minted by the service when omitted)",
    )

    trace = subparsers.add_parser("trace", help=_EXPERIMENT_DESCRIPTIONS["trace"])
    trace.add_argument("action", choices=("show", "export"))
    trace.add_argument(
        "trace_id",
        help="trace ID (the one submitted via --trace, or the service-minted "
        "one echoed by `repro submit`)",
    )
    trace.add_argument("--host", default="127.0.0.1", help="service address")
    trace.add_argument("--port", type=int, default=8035, help="service port")
    trace.add_argument(
        "--timeout", type=float, default=30.0,
        help="HTTP timeout in seconds (default: 30)",
    )
    trace.add_argument(
        "--format", choices=("chrome", "spans"), default="chrome",
        help="export format: Chrome/Perfetto trace-event JSON (default) or "
        "the raw repro-spans/v1 document",
    )
    trace.add_argument(
        "--out", type=Path, default=None,
        help="write the export to this file instead of stdout",
    )

    cache = subparsers.add_parser("cache", help=_EXPERIMENT_DESCRIPTIONS["cache"])
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache.add_argument(
        "--keep-store", action="store_true",
        help="on clear, keep the recorded result history (only drop the caches)",
    )

    report = subparsers.add_parser("report", help=_EXPERIMENT_DESCRIPTIONS["report"])
    report.add_argument(
        "--experiment", default=None, help="record kind (sweep, fit, systolic, ...)"
    )
    report.add_argument("--scenario", default=None, help="scenario name, exact or prefix")
    report.add_argument("--kernel", default=None, help="kernel name")
    report.add_argument("--suite", default=None, help="suite name the run recorded under")
    report.add_argument("--run", default=None, help="run ID (see the run_id column)")
    report.add_argument(
        "--transform", default=None,
        help="apply a named derived-metric pass (see --list-transforms)",
    )
    report.add_argument(
        "--regressions", action="store_true",
        help="shorthand for --transform regressions; exits 1 if any case regressed",
    )
    report.add_argument(
        "--group", default=None, metavar="COLUMN",
        help="collapse to record counts per value of COLUMN",
    )
    report.add_argument(
        "--columns", default=None,
        help="comma-separated columns for the table output (default: auto)",
    )
    report.add_argument(
        "--limit", type=int, default=None, help="keep only the last N rows"
    )
    report.add_argument(
        "--format", choices=("table", "json", "csv", "markdown"), default="table",
    )
    report.add_argument(
        "--list-transforms", action="store_true",
        help="list the registered transforms and readers, then exit",
    )
    report.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache root holding the result store (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    ingest = subparsers.add_parser("ingest", help=_EXPERIMENT_DESCRIPTIONS["ingest"])
    ingest.add_argument(
        "paths", nargs="+", type=Path, metavar="PATH",
        help="result JSON documents (suite results, sweep exports, BENCH_*.json)",
    )
    ingest.add_argument(
        "--reader", default=None,
        help="force a reader instead of auto-detecting from the payload schema",
    )
    ingest.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache root holding the result store (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )

    doctor = subparsers.add_parser("doctor", help=_EXPERIMENT_DESCRIPTIONS["doctor"])
    doctor.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache directory to check (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    doctor.add_argument(
        "--no-cache", action="store_true", help="skip the cache-integrity checks"
    )
    doctor.add_argument(
        "--state-file", type=Path, default=None,
        help="job journal to check for replayability (default: none)",
    )
    doctor.add_argument("--host", default="127.0.0.1", help="service address")
    doctor.add_argument(
        "--port", type=int, default=None,
        help="probe a running service's worker liveness at this port",
    )
    doctor.add_argument(
        "--jobs", type=int, default=None,
        help="intended worker-pool size, checked against the CPU affinity mask",
    )
    doctor.add_argument(
        "--max-job-age", type=float, default=300.0,
        help="warn on open jobs without a state transition for this many "
        "seconds (default: 300)",
    )
    doctor.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the repro-doctor/v1 JSON report (to stdout, or to PATH)",
    )

    for name in _KERNEL_COMMANDS:
        subparsers.add_parser(name, help=_EXPERIMENT_DESCRIPTIONS[name])

    figure2 = subparsers.add_parser("figure2", help=_EXPERIMENT_DESCRIPTIONS["figure2"])
    figure2.add_argument("--points", type=int, default=16, help="FFT size N (power of two)")
    figure2.add_argument("--block", type=int, default=4, help="block size in complex points")
    _add_task_runtime_options(figure2)

    arrays = subparsers.add_parser("arrays", help=_EXPERIMENT_DESCRIPTIONS["arrays"])
    arrays.add_argument(
        "--lengths", type=_parse_nonempty_int_list, default=None,
        help="comma-separated linear-array lengths for E10 (default: 2..64)",
    )
    arrays.add_argument(
        "--sides", type=_parse_nonempty_int_list, default=None,
        help="comma-separated mesh sides for E11 (default: 2..32)",
    )
    _add_task_runtime_options(arrays)

    systolic = subparsers.add_parser("systolic", help=_EXPERIMENT_DESCRIPTIONS["systolic"])
    systolic.add_argument("--order", type=int, default=8, help="matmul mesh order")
    systolic.add_argument("--batches", type=int, default=24)
    systolic.add_argument(
        "--engine", choices=("reference", "fast"), default="fast",
        help="cycle-level engine: validating scalar loops or the vectorized "
        "wavefront engine (bitwise identical, default)",
    )
    systolic.add_argument(
        "--matvec-length", type=int, default=None,
        help="linear matvec array length (default: --order)",
    )
    systolic.add_argument(
        "--qr-order", type=int, default=None,
        help="triangular QR array columns (default: --order)",
    )
    systolic.add_argument(
        "--qr-rows", type=int, default=None,
        help="rows streamed through the QR array (default: batches * qr order)",
    )
    _add_task_runtime_options(systolic)

    pebble = subparsers.add_parser("pebble", help=_EXPERIMENT_DESCRIPTIONS["pebble"])
    pebble.add_argument(
        "--matmul-order", type=int, default=6, help="matrix order of the matmul DAG"
    )
    pebble.add_argument(
        "--fft-points", type=int, default=64, help="points of the FFT DAG (power of two)"
    )
    _add_task_runtime_options(pebble)

    warp = subparsers.add_parser("warp", help=_EXPERIMENT_DESCRIPTIONS["warp"])
    _add_task_runtime_options(warp)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro``; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    handlers: dict[str, Callable[[argparse.Namespace], int]] = {
        "list": _cmd_list,
        "summary": _cmd_summary,
        "sweep": _cmd_sweep,
        "suite": _cmd_suite,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "trace": _cmd_trace,
        "cache": _cmd_cache,
        "report": _cmd_report,
        "ingest": _cmd_ingest,
        "doctor": _cmd_doctor,
        "figure2": _cmd_figure2,
        "arrays": _cmd_arrays,
        "systolic": _cmd_systolic,
        "pebble": _cmd_pebble,
        "warp": _cmd_warp,
    }
    try:
        if args.command in _KERNEL_COMMANDS:
            return _cmd_kernel(args.command, args)
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
