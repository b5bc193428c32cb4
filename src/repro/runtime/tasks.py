"""Generic tasks: pooled, cached execution of any computation.

A :class:`Task` is any top-level callable plus its keyword parameters,
content-addressed by a SHA-256 digest of

* the callable's fully qualified name,
* the *source code* of its module (plus any explicitly named supporting
  modules, so editing the algorithm invalidates previously cached results),
* and a structural fingerprint of the parameters.

A :class:`TaskRunner` is the one resolve path of the runtime: it resolves
a batch of tasks against its :class:`~repro.runtime.cache.TaskCache`, fans
the misses out across its long-lived process pool, and reassembles results
in submission order -- so serial and parallel execution of the same batch
are bitwise identical, and warm reruns replay entirely from the cache.  The
sweep engine lowers its points onto tasks (keyed by
:func:`~repro.runtime.cache.execution_key`); the experiment drivers (Figure
2, Section 4 arrays, the pebble game, the Warp study) are the other clients.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

from repro.exceptions import ConfigurationError, TaskExecutionError
from repro.obs import spans as obs_spans
from repro.obs.metrics import REGISTRY
from repro.runtime.cache import MISS, TaskCache, _fingerprint

__all__ = [
    "Task",
    "TaskRunner",
    "TaskRunStats",
    "task_key",
    "callable_code_version",
    "default_worker_count",
]

TASK_KEY_SCHEMA = 1

# Process-wide task-runtime instrumentation for ``GET /metrics``.  Wall time
# is measured around ``task.run()`` itself -- inside the worker process when
# pooled -- so the histogram reports task cost, not pool-queueing delay.
_METRIC_EXECUTED = REGISTRY.counter(
    "repro_tasks_executed_total", "Tasks actually executed (cache misses)."
)
_METRIC_CACHE_HITS = REGISTRY.counter(
    "repro_tasks_cache_hits_total", "Tasks replayed from the task cache."
)
_METRIC_DEDUPED = REGISTRY.counter(
    "repro_tasks_deduped_total",
    "Tasks resolved by an identical task earlier in the same batch.",
)
_METRIC_TASK_SECONDS = REGISTRY.histogram(
    "repro_task_seconds", "Wall time of one executed task."
)


def worker_count_source() -> tuple[int, str]:
    """Default worker count plus the name of the source that provided it.

    Returns ``(count, "sched_getaffinity")`` when the scheduling affinity
    mask was consulted, ``(count, "os.cpu_count")`` on platforms without
    ``os.sched_getaffinity`` (macOS, Windows) or when querying the mask
    fails.  Diagnostics (``repro doctor``) report the source: a count that
    came from ``os.cpu_count`` says nothing about container or cgroup CPU
    limits, so presenting it as an affinity mask would be misleading.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1, "sched_getaffinity"
        except OSError:  # pragma: no cover - platform-specific failure
            pass
    return os.cpu_count() or 1, "os.cpu_count"


def default_worker_count() -> int:
    """Worker processes to use when the caller does not say.

    Prefers the scheduling affinity mask over the raw core count: in
    affinity-restricted containers (CI runners, cgroup-limited jobs)
    ``os.cpu_count()`` reports the host's cores and oversubscribes the pool.
    """
    return worker_count_source()[0]


@lru_cache(maxsize=None)
def _module_source_digest(module_name: str) -> str:
    """Digest of one module's source (the name itself when unavailable)."""
    module = sys.modules.get(module_name)
    if module is None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):  # source unavailable (REPL, frozen, missing)
        source = module_name
    return hashlib.sha256(source.encode()).hexdigest()


def callable_code_version(
    fn: Callable[..., Any], modules: Sequence[str] = ()
) -> str:
    """A digest of a callable's implementation, for cache invalidation.

    Hashes the source of the module defining ``fn`` plus any explicitly named
    supporting modules.  Hashing whole modules rather than function bodies
    means edits to helpers the callable uses also invalidate cached results;
    the cost is occasional over-invalidation, which is the safe direction.
    """
    names = sorted({fn.__module__, *modules})
    hasher = hashlib.sha256()
    for name in names:
        hasher.update(name.encode())
        hasher.update(_module_source_digest(name).encode())
    return hasher.hexdigest()[:16]


def task_key(
    fn: Callable[..., Any],
    params: Mapping[str, Any],
    modules: Sequence[str] = (),
) -> str:
    """Content address of one ``fn(**params)`` call."""
    payload = {
        "schema": TASK_KEY_SCHEMA,
        "callable": f"{fn.__module__}.{fn.__qualname__}",
        "code_version": callable_code_version(fn, modules),
        "params": _fingerprint(dict(params)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class Task:
    """One deterministic computation: a picklable callable plus parameters.

    ``fn`` must be an importable top-level function (process pools pickle it
    by reference) and must be deterministic in its parameters -- the cache
    replays previous results under the assumption that equal keys mean equal
    values.  ``modules`` names additional modules whose source participates
    in the cache key, for callables whose real algorithm lives elsewhere
    (e.g. an experiment driver delegating to ``repro.pebble.game``).
    """

    fn: Callable[..., Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    name: str | None = None
    modules: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not callable(self.fn):
            raise ConfigurationError(f"task fn must be callable, got {self.fn!r}")
        qualname = getattr(self.fn, "__qualname__", "")
        if "<locals>" in qualname or "<lambda>" in qualname:
            raise ConfigurationError(
                f"task fn must be a top-level function (picklable by "
                f"reference), got {qualname!r}"
            )
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "modules", tuple(self.modules))

    @property
    def label(self) -> str:
        return self.name or f"{self.fn.__module__}.{self.fn.__qualname__}"

    def key(self) -> str:
        """The task's content address (stable across processes and runs)."""
        return task_key(self.fn, self.params, self.modules)

    def run(self) -> Any:
        """Execute the task in the current process."""
        return self.fn(**self.params)


def _run_task(task: Task) -> tuple[float, Any]:
    """Worker entry point (top-level, picklable): ``(seconds, value)``.

    The duration is measured here, in the executing process, so the parent's
    ``repro_task_seconds`` histogram reports true task wall time even when
    the task ran in a pool child.
    """
    start = time.perf_counter()
    value = task.run()
    return time.perf_counter() - start, value


def _run_task_traced(
    task: Task, ctx: tuple[str | None, str | None]
) -> tuple[float, Any, list[dict[str, Any]]]:
    """Traced worker entry point: ``(seconds, value, finished_spans)``.

    Submitted instead of :func:`_run_task` only when span collection is on
    in the parent, so the disabled path ships exactly the pre-span tuple.
    ``ctx`` carries the parent's trace/span IDs across the pool boundary;
    the task runs under a local ``kind="task"`` span (engine phases
    aggregate beneath it) and every span finished in the child returns
    with the result for the parent to absorb.
    """
    start = time.perf_counter()
    with obs_spans.capture_spans(
        ctx, f"task:{task.label}", kind="task", attributes={"key": task.key()}
    ) as captured:
        value = task.run()
    return time.perf_counter() - start, value, captured.spans


def _wrap_failure(task: Task, exc: BaseException) -> TaskExecutionError:
    return TaskExecutionError(
        f"task {task.label!r} failed: {type(exc).__name__}: {exc}",
        label=task.label,
    )


@dataclass
class TaskRunStats:
    """Counters accumulated over the lifetime of a :class:`TaskRunner`.

    ``deduped`` counts tasks that were *not* executed because an identical
    task (same content-addressed key) appeared earlier in the same batch;
    the job-service scheduler reads these counters to prove that N identical
    submissions ran the underlying work once.
    """

    executed: int = 0
    cache_hits: int = 0
    deduped: int = 0

    @property
    def resolved(self) -> int:
        return self.executed + self.cache_hits + self.deduped

    def as_dict(self) -> dict[str, int]:
        return {
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "deduped": self.deduped,
        }


class TaskRunner:
    """Resolves task batches via the cache, serially or on a process pool.

    Tasks sharing a content-addressed key within one batch execute once and
    every duplicate observes the representative's result -- safe because
    equal keys mean equal code and equal parameters, and tasks must be
    deterministic (the same assumption the cache replays results under).

    A parallel runner owns one :class:`ProcessPoolExecutor`, created on the
    first batch that needs it and reused by every later batch (and by every
    thread sharing the runner) until :meth:`close`.  Workers start from a
    ``forkserver``, never by ``fork()`` of the calling process, which may
    be a multi-threaded server.  A worker that dies mid-batch breaks the
    pool: the batch raises :class:`BrokenProcessPool` (a transient error to
    the job service's retry policy) and the next batch builds a fresh pool.

    Parameters
    ----------
    parallel:
        Fan cache-missing tasks out across the process pool.  Results come
        back in submission order either way.
    max_workers:
        Pool size; defaults to the scheduling-affinity core count.
    cache:
        Optional :class:`~repro.runtime.cache.TaskCache`.  Tasks whose key is
        present are replayed without executing anything; fresh results are
        stored back.
    """

    def __init__(
        self,
        *,
        parallel: bool = False,
        max_workers: int | None = None,
        cache: TaskCache | None = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1, got {max_workers!r}"
            )
        self.parallel = parallel
        self.max_workers = max_workers or default_worker_count()
        self.cache = cache
        self.stats = TaskRunStats()
        # One runner may be shared by several threads (the job service's
        # worker pool): the lock guards the counters and the pool handle.
        self._lock = threading.Lock()
        self._pool: ProcessPoolExecutor | None = None

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        """Resolve every task, via the cache where possible, in order."""
        return self.resolve(tasks)[0]

    def run_one(self, task: Task) -> Any:
        """Convenience: resolve a single task."""
        return self.run([task])[0]

    def resolve(self, tasks: Sequence[Task]) -> tuple[list[Any], list[bool]]:
        """:meth:`run`, plus whether the cache served each task.

        The flags describe this batch alone, so callers can report exact
        per-batch hit counts while other threads share the runner.
        """
        if not obs_spans.enabled():
            return self._resolve(tasks)
        with obs_spans.span(
            "tasks.run", kind="runtime", attributes={"tasks": len(tasks)}
        ) as batch_span:
            resolved = self._resolve(tasks)
            # Runner-lifetime counters, not batch counters: enough to tell
            # "replayed from cache" from "recomputed" for a slow batch.
            batch_span.set(
                executed_total=self.stats.executed,
                cache_hits_total=self.stats.cache_hits,
                deduped_total=self.stats.deduped,
            )
            return resolved

    def _resolve(self, tasks: Sequence[Task]) -> tuple[list[Any], list[bool]]:
        results: list[Any] = [None] * len(tasks)
        hits = [False] * len(tasks)
        # The first task with a given key executes; later ones become
        # followers and observe the representative's result.
        unique: list[tuple[int, Task, str]] = []
        followers: dict[str, list[int]] = {}
        for i, task in enumerate(tasks):
            key = task.key()
            if self.cache is not None:
                hit = self.cache.load(key)
                if hit is not MISS:
                    results[i] = hit
                    hits[i] = True
                    continue
            if key in followers:
                followers[key].append(i)
            else:
                followers[key] = []
                unique.append((i, task, key))

        fresh = self._execute([task for _, task, _ in unique])
        cache_hits = sum(hits)
        deduped = len(tasks) - cache_hits - len(unique)
        with self._lock:
            self.stats.cache_hits += cache_hits
            self.stats.deduped += deduped
            self.stats.executed += len(unique)
        _METRIC_CACHE_HITS.inc(cache_hits)
        _METRIC_DEDUPED.inc(deduped)
        _METRIC_EXECUTED.inc(len(unique))
        for (i, task, key), value in zip(unique, fresh):
            results[i] = value
            if self.cache is not None:
                self.cache.store(key, value, label=task.label)
            for j in followers[key]:
                results[j] = value
        return results, hits

    def _execute(self, tasks: Sequence[Task]) -> list[Any]:
        """Execute tasks (no cache), preserving submission order.

        A task that raises surfaces as
        :class:`~repro.exceptions.TaskExecutionError` naming the failing
        task's label (the original exception chained as ``__cause__``); in
        a parallel batch the first failure *in submission order* wins,
        matching the serial path.
        """
        # None when span collection is off: the untraced entry point is then
        # submitted unchanged, so tracing-off is byte-identical to pre-span code.
        ctx = obs_spans.task_context()
        if not self.parallel or self.max_workers == 1 or len(tasks) <= 1:
            return [self._execute_here(task, ctx) for task in tasks]
        pool = self._executor()
        futures = []
        try:
            for task in tasks:
                if ctx is None:
                    futures.append(pool.submit(_run_task, task))
                else:
                    futures.append(pool.submit(_run_task_traced, task, ctx))
            results = []
            for task, future in zip(tasks, futures):
                try:
                    if ctx is None:
                        seconds, value = future.result()
                    else:
                        seconds, value, finished = future.result()
                        obs_spans.absorb(finished)
                except BrokenProcessPool:
                    raise
                except Exception as exc:
                    raise _wrap_failure(task, exc) from exc
                _METRIC_TASK_SECONDS.observe(seconds)
                results.append(value)
            return results
        except BrokenProcessPool as exc:
            self._discard(pool)
            raise BrokenProcessPool(
                f"a pool worker died during a batch of {len(tasks)} tasks; "
                "the next batch starts a fresh pool"
            ) from exc
        finally:
            for future in futures:
                future.cancel()  # no-op once done; drops work after a failure

    def _execute_here(
        self, task: Task, ctx: tuple[str | None, str | None] | None
    ) -> Any:
        try:
            if ctx is None:
                seconds, value = _run_task(task)
            else:
                # In-process: the contextvar already parents the span;
                # capture_spans is reserved for pool children, where
                # swapping the process-global collector is race-free.
                with obs_spans.span(
                    f"task:{task.label}",
                    kind="task",
                    attributes={"key": task.key()},
                ):
                    seconds, value = _run_task(task)
        except Exception as exc:
            raise _wrap_failure(task, exc) from exc
        _METRIC_TASK_SECONDS.observe(seconds)
        return value

    def _executor(self) -> ProcessPoolExecutor:
        """The runner's pool, created on first use."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context("forkserver"),
                )
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop a broken pool so the next batch builds a fresh one."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down, waiting for its workers to exit.

        The runner stays usable: a later parallel batch starts a new pool.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
