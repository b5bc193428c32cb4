"""The in-process workloads: ``reproduce`` (cold) and ``replay`` (warm).

Both drive ``run_suite`` on a serial ``SweepRunner`` (so the process pool
is bypassed) and time each op between host-speed probes.  ``reproduce``
gives every op a fresh cache; ``replay`` fills one cache in set-up and
then replays seeded picks from it with recording on.
"""

from __future__ import annotations

import itertools
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import checks
import inputs
from layers import LAYERS, LayerTracer
from measure import PROBE_REF_S, OpClock, median, peak_rss_mb
from outcome import Outcome
from repro.runtime import ResultCache, ScenarioSuite, SweepRunner, run_suite

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_STARTS = 5
#: Suites filled into the ``replay`` cache during set-up: one whole deck.
REPLAY_CATALOG = len(inputs.DECK)
#: Ops in each phase of a traced run (fixed, so its counts repeat exactly).
TRACED_OPS = {"reproduce": 15, "replay": 300}

_READY = Path(__file__).with_name("ready.py")


def setup_times(work: Path, env: dict[str, str]) -> list[float]:
    """Normalized seconds from spawn to ready, over fresh interpreters.

    Each start is normalized by a probe the child runs right after it is
    ready: on this host the CPU a child lands on can run at another speed
    than the parent's.
    """
    times = []
    for i in range(SETUP_STARTS):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(_READY), str(work / f"setup{i}")],
            stdout=subprocess.PIPE, env=env, cwd=work, text=True,
        ) as child:
            line = child.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            probe_s = float(child.stdout.readline() or "nan")
            child.wait(timeout=60)
        if line != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child failed (exit {child.returncode})")
        times.append(elapsed * PROBE_REF_S / probe_s)
    return times


def _runner(cache: Path) -> SweepRunner:
    return SweepRunner(parallel=False, cache=ResultCache(cache))


def _check(result: Any, expected: str) -> str | None:
    """Why ``result`` is wrong, or ``None`` when it passes every check."""
    failed = checks.verification_failures(result)
    if failed:
        return "verification failed in " + ", ".join(failed)
    if checks.suite_science(result) != expected:
        return "science fields differ from the reference result"
    return None


@dataclass
class _Pass:
    """One stream of ops: how each is run and checked, and what it measured."""

    outcome: Outcome
    op: Callable[[ScenarioSuite], Any]
    expect: Callable[[ScenarioSuite, Any], str]
    tracer: LayerTracer | None = None
    clock: OpClock = field(default_factory=OpClock)

    def step(self, index: int, suite: ScenarioSuite) -> None:
        """Time one op between probes and check its output."""
        self.outcome.attempted += 1
        timed = False
        try:
            if self.tracer is None:
                result = self.clock.time(lambda: self.op(suite))
            else:
                with self.tracer:
                    call = self.tracer.wrap("suite", self.op)
                    result = self.clock.time(lambda: call(suite))
            timed = True
            problem = _check(result, self.expect(suite, result))
        except Exception as exc:  # noqa: BLE001 - count it, never abort the run
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.outcome.fail(f"op{index}", problem)
            if timed:
                self.clock.drop_last()  # a wrong op's time is not a latency sample


def _run(passes: list[_Pass], ops: Any, seconds: float | None = None) -> None:
    """Step every pass through ``ops`` until it ends or ``seconds`` pass.

    The time box is counted in host-normalized seconds (each iteration's
    wall time, probes and checks included, times the latest speed factor),
    so a run does the same amount of work however fast the host is running.
    """
    spent = 0.0
    for index, suite in enumerate(ops):
        if seconds is not None and spent >= seconds:
            break
        began = time.perf_counter()
        for each in passes:
            each.step(index, suite)
        spent += (time.perf_counter() - began) * passes[-1].clock.factor


def _end_to_end(timed: _Pass, setup: list[float]) -> Outcome:
    norm_s = timed.clock.norm_s
    timed.outcome.put_end_to_end(setup, "host-normalized", norm_s, sum(norm_s),
                                 peak_rss_mb(), "host-normalized")
    return timed.outcome


# -- reproduce ----------------------------------------------------------------


def _cold(work: Path) -> tuple[Callable[[ScenarioSuite], Any], Callable[..., str]]:
    """The cold op (fresh cache each time) and its replay-path reference."""
    caches = (work / f"op{i}" for i in itertools.count())
    current: list[Path] = []

    def op(suite: ScenarioSuite) -> Any:
        current[:] = [next(caches)]
        return run_suite(suite, _runner(current[0]))

    def expect(suite: ScenarioSuite, result: Any) -> str:
        return checks.suite_science(run_suite(suite, _runner(current[0])))

    return op, expect


def reproduce(seed: int, seconds: float, trace: bool, work: Path,
              env: dict[str, str]) -> Outcome:
    outcome = Outcome()
    if not trace:
        setup = setup_times(work, env)
        timed = _Pass(outcome, *_cold(work / "timed"))
        _run([timed], inputs.suite_stream(random.Random(seed)), seconds)
        return _end_to_end(timed, setup)
    suites = list(itertools.islice(inputs.suite_stream(random.Random(seed)),
                                   TRACED_OPS["reproduce"]))
    return _traced(outcome, suites, work, lambda phase: _cold(work / phase))


# -- replay -------------------------------------------------------------------


def _fill(seed: int, cache: Path) -> tuple[list[ScenarioSuite], dict[str, str]]:
    """Set-up: run the seeded catalog cold into ``cache``; keep the answers."""
    catalog = list(itertools.islice(inputs.suite_stream(random.Random(seed)),
                                    REPLAY_CATALOG))
    expected = {}
    for suite in catalog:
        result = run_suite(suite, _runner(cache))
        failed = checks.verification_failures(result)
        if failed:
            raise RuntimeError("replay set-up: verification failed in " + ", ".join(failed))
        expected[suite.name] = checks.suite_science(result)
    return catalog, expected


def _picks(seed: int, catalog: list[ScenarioSuite]) -> Any:
    rng = random.Random(seed ^ 0x5EED)
    while True:
        yield rng.choice(catalog)


def _warm(cache: Path, expected: dict[str, str]) -> tuple[Callable[..., Any], Callable[..., str]]:
    runner = _runner(cache)
    return (lambda suite: run_suite(suite, runner),
            lambda suite, result: expected[suite.name])


def replay(seed: int, seconds: float, trace: bool, work: Path,
           env: dict[str, str]) -> Outcome:
    outcome = Outcome()
    filled = work / "filled"
    catalog, expected = _fill(seed, filled)
    if not trace:
        setup = setup_times(work, env)
        timed = _Pass(outcome, *_warm(filled, expected))
        _run([timed], _picks(seed, catalog), seconds)
        return _end_to_end(timed, setup)
    picks = list(itertools.islice(_picks(seed, catalog), TRACED_OPS["replay"]))

    def phase(name: str) -> tuple[Callable[..., Any], Callable[..., str]]:
        # Each phase starts from an identical copy of the filled cache.
        cache = work / name
        shutil.copytree(filled, cache)
        return _warm(cache, expected)

    return _traced(outcome, picks, work, phase)


# -- the traced run -----------------------------------------------------------


def _disk_bytes(root: Path) -> tuple[int, int]:
    """``(cache bytes, store bytes)`` under ``root``."""
    cache = store = 0
    for path in root.rglob("*"):
        if path.is_file():
            if "store" in path.relative_to(root).parts:
                store += path.stat().st_size
            else:
                cache += path.stat().st_size
    return cache, store


def _traced(outcome: Outcome, suites: list[ScenarioSuite], work: Path,
            phase: Callable[[str], tuple[Callable[..., Any], Callable[..., str]]]) -> Outcome:
    """Untraced and traced passes over the same fixed ops, op by op.

    Alternating keeps both passes on the same host state, so their ratio
    is the tracing overhead.  Each pass works under ``work / <pass name>``;
    only the traced pass feeds the outcome.
    """
    tracer = LayerTracer()
    plain = _Pass(Outcome(), *phase("untraced"))
    traced = _Pass(outcome, *phase("traced"), tracer=tracer)
    _run([plain, traced], suites)
    clock, stats = traced.clock, tracer.stats
    cache_bytes, store_bytes = _disk_bytes(work / "traced")

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator * scale / denominator if denominator else 0.0

    kernels, arrays, pebble = stats["kernels"], stats["arrays"], stats["pebble"]
    keys, store = stats["runtime.keys"], stats["store"]
    gets, puts = stats["runtime.cache.get"], stats["runtime.cache.put"]
    put = outcome.put
    put("kernels.calls", kernels.calls, "count")
    put("kernels.busy_s", kernels.busy_s, "s")
    put("kernels.compute_ops", kernels.work, "ops")
    put("kernels.io_words", kernels.words, "words")
    put("arrays.calls", arrays.calls, "count")
    put("arrays.busy_s", arrays.busy_s, "s")
    put("arrays.cell_cycles", arrays.work, "count")
    put("arrays.ns_per_cell_cycle", per(arrays.busy_s, arrays.work, 1e9), "ns")
    put("pebble.calls", pebble.calls, "count")
    put("pebble.busy_s", pebble.busy_s, "s")
    put("pebble.moves", pebble.work, "count")
    put("pebble.ns_per_move", per(pebble.busy_s, pebble.work, 1e9), "ns")
    put("runtime.keys.calls", keys.calls, "count")
    put("runtime.keys.busy_s", keys.busy_s, "s")
    put("runtime.cache.gets", gets.calls, "count")
    put("runtime.cache.hit_ratio", per(gets.work, gets.calls), "ratio")
    put("runtime.cache.get_s", gets.busy_s, "s")
    put("runtime.cache.puts", puts.calls, "count")
    put("runtime.cache.put_s", puts.busy_s, "s")
    put("runtime.cache.bytes", cache_bytes, "bytes")
    put("store.ingests", store.calls, "count")
    put("store.ingest_s", store.busy_s, "s")
    put("store.bytes", store_bytes, "bytes")
    put("suite.self_s", stats["suite"].self_s, "s")
    put("trace.overhead", per(sum(clock.norm_s), sum(plain.clock.norm_s)), "ratio",
        "traced / untraced op seconds, host-normalized")
    put("host.probe_ms", median(clock.probes_s + plain.clock.probes_s) * 1000.0, "ms")

    op_s = sum(clock.raw_s)
    outcome.report.append(f"traced ops: {len(clock.raw_s)}, {op_s:.3f} s of op time (raw)")
    outcome.report.append(f"{'layer':<20}{'calls':>9}{'busy_s':>11}{'self_s':>11}")
    for layer in LAYERS:
        row = stats[layer]
        outcome.report.append(
            f"{layer:<20}{row.calls:>9}{row.busy_s:>11.4f}{row.self_s:>11.4f}")
    outcome.report.append(
        f"{'unattributed':<20}{'':>9}{'':>11}{op_s - tracer.attributed_s():>11.4f}")
    return outcome
