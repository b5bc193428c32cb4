"""The repository benchmark: seeded workloads, checked outputs, named metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 25 --trace 0

Workloads (see ``BENCHMARK.json``): ``reproduce`` (cold suites through
``run_suite``), ``replay`` (warm suites replayed from a filled cache) and
``service-mix`` (a ``repro serve`` child under two closed-loop clients).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
number of ops both untraced and traced and reports the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every run works in a fresh
temp dir under ``.bench_tmp/`` and removes it on exit.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and (through the environment) in children.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(names)}")
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import numpy

    import local
    import servicemix
    from measure import PROBE_REF_S
    from repro.store.core import git_revision

    workloads = {"reproduce": local.reproduce, "replay": local.replay,
                 "service-mix": servicemix.service_mix}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"git {git_revision(ROOT) or 'unknown'} nproc {os.cpu_count()} "
          f"python {platform.python_version()} numpy {numpy.__version__} "
          f"probe_ref {PROBE_REF_S * 1000.0:g} ms "
          + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items()), flush=True)

    if args.workload != "service-mix":
        # One thread of work: keep it, its probes and its set-up children
        # on one CPU, whose speed the probes then track.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    # Children get the program source, the pinned BLAS threads and a cache
    # root inside the run's temp dir, as this process does.
    os.environ.update(PYTHONPATH=str(SOURCE), REPRO_CACHE_DIR=str(work / "default-cache"))
    try:
        outcome = workloads[args.workload](args.seed, args.seconds, bool(args.trace),
                                           work, dict(os.environ))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for line in outcome.report:
        print(line)
    for metric in wanted:
        value, unit, note = outcome.metrics.get(
            metric["name"], (0.0, metric["unit"], "not measured on this workload"))
        if unit != metric["unit"]:
            raise RuntimeError(f"{metric['name']}: unit {unit} != {metric['unit']}")
        print(f"{metric['name']} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
        metrics[metric["name"]] = {"value": value, "unit": unit}
    for reason in outcome.reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
