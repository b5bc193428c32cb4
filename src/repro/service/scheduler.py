"""Content-addressed job scheduling: a FIFO queue with dedup.

Every job gets a key derived from the runtime's content-addressed task keys
(callable identity + module source + parameter fingerprint -- see
:func:`repro.runtime.tasks.task_key` and
:func:`repro.runtime.cache.execution_key`).  While a job with a given key is
queued or running, identical submissions attach to it as *followers*: the
underlying work executes once and every submission observes the same
result.  Because code versions participate in the keys, editing a kernel or
experiment driver naturally stops dedup against stale in-flight work.

Analytic sweep jobs are closed-form evaluations over an ``(N, M)`` grid,
one :func:`repro.runtime.vectorized.cost_grid` array pass each
(:func:`analytic_sweep_payload`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.analysis.sweep import normalize_memory_sizes
from repro.core.registry import get as registry_get
from repro.exceptions import ConfigurationError, QueueSaturatedError
from repro.obs import spans as obs_spans
from repro.obs.metrics import REGISTRY
from repro.obs.trace import new_trace_id, normalize_trace_id
from repro.runtime.cache import execution_key
from repro.runtime.suites import (
    ExperimentScenario,
    build_kernel,
    get_suite,
)
from repro.runtime.tasks import task_key
from repro.runtime.vectorized import cost_grid
from repro.service.jobs import JOB_KINDS, Job, JobStore
from repro.service.retry import RetryPolicy, policy_for

__all__ = [
    "JobScheduler",
    "SchedulerStats",
    "job_key",
    "normalize_job_params",
    "experiment_scenario",
    "analytic_sweep_payload",
]

ANALYTIC_SWEEP_SCHEMA = "repro-service-analytic-sweep/v1"

# Scheduler instrumentation for ``GET /metrics``.  The gauge reports the
# last-written queue depth of whichever scheduler updated it most recently;
# with the service's one-scheduler-per-process layout that is *the* queue.
_METRIC_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_scheduler_queue_depth", "Jobs waiting in the scheduler queue."
)
_METRIC_SUBMITTED = REGISTRY.counter(
    "repro_jobs_submitted_total", "Jobs accepted for execution.",
    labelnames=("kind",),
)
_METRIC_DEDUP_ATTACHES = REGISTRY.counter(
    "repro_scheduler_dedup_attaches_total",
    "Submissions attached to an identical in-flight job instead of running.",
)
_METRIC_JOBS_COMPLETED = REGISTRY.counter(
    "repro_jobs_completed_total", "Jobs finished successfully, by kind.",
    labelnames=("kind",),
)
_METRIC_JOBS_FAILED = REGISTRY.counter(
    "repro_jobs_failed_total", "Jobs finished with an error, by kind.",
    labelnames=("kind",),
)
_METRIC_JOB_RETRIES = REGISTRY.counter(
    "repro_job_retries_total",
    "Jobs requeued for another attempt, by kind and reason.",
    labelnames=("kind", "reason"),
)
_METRIC_JOBS_REJECTED = REGISTRY.counter(
    "repro_jobs_rejected_total",
    "Submissions refused by admission control, by reason.",
    labelnames=("reason",),
)

#: Modules whose source participates in a suite job's content address: the
#: suite definitions themselves hash via ``get_suite``'s module, these cover
#: the engines and drivers the suite lowers onto.
_SUITE_KEY_MODULES = (
    "repro.runtime.engine",
    "repro.runtime.tasks",
    "repro.experiments.arrays_section4",
    "repro.experiments.fft_figure2",
    "repro.experiments.pebble_bounds",
    "repro.experiments.warp_study",
)

_ANALYTIC_KEY_MODULES = ("repro.core.registry", "repro.runtime.vectorized")


# ---------------------------------------------------------------------------
# Job parameter validation and content addressing.
# ---------------------------------------------------------------------------


def normalize_job_params(kind: str, params: Mapping[str, Any]) -> dict[str, Any]:
    """Validate a submission and reduce it to canonical JSON-native params.

    Raises :class:`~repro.exceptions.ConfigurationError` on anything the
    executor could not run, so the API layer can reject bad submissions with
    a 400 instead of queueing a job doomed to fail.
    """
    if kind not in JOB_KINDS:
        known = ", ".join(JOB_KINDS)
        raise ConfigurationError(f"unknown job kind {kind!r}; known kinds: {known}")
    params = dict(params)
    if kind == "suite":
        name = params.get("suite")
        if not isinstance(name, str):
            raise ConfigurationError("suite jobs need a 'suite' name")
        get_suite(name)  # raises on unknown suites
        return {"suite": name}
    if kind == "experiment":
        experiment = params.get("experiment")
        if not isinstance(experiment, str):
            raise ConfigurationError("experiment jobs need an 'experiment' kind")
        extra = params.get("params") or {}
        if not isinstance(extra, Mapping):
            raise ConfigurationError(
                f"experiment 'params' must be a mapping, got {extra!r}"
            )
        # Constructing the scenario validates the kind; building its tasks
        # (below, in job_key) validates the driver parameters.
        experiment_scenario(experiment, extra)
        return {"experiment": experiment, "params": dict(extra)}
    kernel = params.get("kernel")
    if not isinstance(kernel, str):
        raise ConfigurationError("sweep jobs need a 'kernel' name")
    build_kernel(kernel)  # raises on unknown kernels
    memory_sizes = params.get("memory_sizes")
    if memory_sizes is None:
        raise ConfigurationError("sweep jobs need 'memory_sizes'")
    if isinstance(memory_sizes, (str, bytes)) or not isinstance(
        memory_sizes, Sequence
    ):
        # A bare string would be iterated character by character and silently
        # accepted as a grid the caller never asked for.
        raise ConfigurationError(
            f"'memory_sizes' must be a list of integers, got {memory_sizes!r}"
        )
    try:
        sizes = [int(size) for size in normalize_memory_sizes(memory_sizes)]
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"'memory_sizes' must be a list of integers, got {memory_sizes!r}"
        ) from exc
    if params.get("analytic"):
        problem_size = _int_param(params.get("problem_size", 4096), "problem_size")
        if problem_size < 1:
            raise ConfigurationError(
                f"problem_size must be >= 1, got {problem_size!r}"
            )
        return {
            "kernel": kernel,
            "memory_sizes": sizes,
            "problem_size": problem_size,
            "analytic": True,
        }
    scale = params.get("scale")
    if scale is None:
        raise ConfigurationError("measured sweep jobs need a 'scale'")
    return {
        "kernel": kernel,
        "memory_sizes": sizes,
        "scale": _int_param(scale, "scale"),
        "analytic": False,
    }


def _int_param(value: Any, label: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"sweep {label!r} must be an integer, got {value!r}"
        ) from exc


def experiment_scenario(experiment: str, params: Mapping[str, Any]) -> ExperimentScenario:
    return ExperimentScenario(
        name=f"job-{experiment}", experiment=experiment, params=dict(params)
    )


def _digest(parts: Sequence[str]) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def job_key(kind: str, params: Mapping[str, Any]) -> str:
    """Content address of one job, built from the runtime's task keys.

    ``params`` must already be canonical (:func:`normalize_job_params`).
    """
    if kind == "suite":
        return task_key(
            get_suite, {"name": params["suite"]}, modules=_SUITE_KEY_MODULES
        )
    if kind == "experiment":
        scenario = experiment_scenario(params["experiment"], params["params"])
        keys = sorted(task.key() for task in scenario.tasks())
        return _digest(["experiment", *keys])
    if params.get("analytic"):
        return task_key(
            analytic_sweep_payload,
            {
                "kernel": params["kernel"],
                "memory_sizes": params["memory_sizes"],
                "problem_size": params["problem_size"],
            },
            modules=_ANALYTIC_KEY_MODULES,
        )
    kernel = build_kernel(params["kernel"])
    keys = []
    for size in params["memory_sizes"]:
        kernel.validate_memory(size)
        problem = kernel.problem_for_memory(size, params["scale"])
        keys.append(execution_key(kernel, size, problem))
    return _digest(["sweep", json.dumps(params, sort_keys=True), *keys])


# ---------------------------------------------------------------------------
# The analytic-sweep path.
# ---------------------------------------------------------------------------


def analytic_sweep_payload(
    kernel: str, memory_sizes: Sequence[int], problem_size: int
) -> dict[str, Any]:
    """Evaluate one analytic sweep job (also the dedup key's callable)."""
    # The registry may know a kernel under a different name than the CLI
    # factory (e.g. sparse_matvec -> spmv); resolve through the kernel class.
    spec = registry_get(build_kernel(kernel).registry_name or kernel)
    sizes = [int(size) for size in memory_sizes]
    costs = cost_grid(spec, [int(problem_size)], sizes)
    intensities = spec.batch_intensity(np.asarray(sizes, dtype=float))
    return {
        "schema": ANALYTIC_SWEEP_SCHEMA,
        "kernel": kernel,
        "computation": spec.name,
        "problem_size": int(problem_size),
        "memory_sizes": sizes,
        "rows": [
            {
                "memory_words": float(size),
                "model_intensity": float(intensities[j]),
                "cost_intensity": float(costs.intensity[0, j]),
                "compute_ops": float(costs.compute_ops[0, j]),
                "io_words": float(costs.io_words[0, j]),
            }
            for j, size in enumerate(sizes)
        ],
    }


# ---------------------------------------------------------------------------
# The scheduler proper.
# ---------------------------------------------------------------------------


@dataclass
class SchedulerStats:
    """Counters accumulated over the lifetime of a :class:`JobScheduler`."""

    submitted: int = 0
    deduped: int = 0
    completed: int = 0
    failed: int = 0
    retried: int = 0
    rejected: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "submitted": self.submitted,
            "deduped": self.deduped,
            "completed": self.completed,
            "failed": self.failed,
            "retried": self.retried,
            "rejected": self.rejected,
        }


class JobScheduler:
    """FIFO job queue with dedup, retry backoff and admission control.

    All state transitions happen under one condition variable, so a follower
    can never attach to a primary after its result has been fanned out.

    ``max_queue_depth`` bounds the number of *waiting* jobs: a submission
    that would exceed it is shed with :class:`QueueSaturatedError` (HTTP
    429) and a ``retry_after`` estimate -- unless it deduplicates against
    in-flight work, which is always admitted (a follower consumes no queue
    slot or compute, so shedding it would only waste the work already
    underway).  Retried jobs re-enter the queue with a per-job ``not
    before`` stamp from their :class:`~repro.service.retry.RetryPolicy`
    backoff; :meth:`claim` skips held-back jobs until their delay elapses.
    """

    def __init__(
        self,
        store: JobStore,
        *,
        max_queue_depth: int | None = None,
        workers_hint: int = 2,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {max_queue_depth!r}"
            )
        self.store = store
        self.max_queue_depth = max_queue_depth
        self.workers_hint = max(1, workers_hint)
        self._cond = threading.Condition()
        self._queue: deque[str] = deque()
        self._not_before: dict[str, float] = {}  # job id -> monotonic stamp
        self._inflight: dict[str, str] = {}  # job key -> primary job id
        self._followers: dict[str, list[str]] = {}  # primary id -> follower ids
        self._closed = False
        self._avg_run_seconds: float | None = None
        self.stats = SchedulerStats()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def retry_after_estimate(self) -> float:
        """Seconds a shed client should wait before resubmitting."""
        with self._cond:
            return self._retry_after_locked()

    def _retry_after_locked(self) -> float:
        # Queue depth divided by worker parallelism, scaled by the EWMA of
        # recent job run times; clamped to something a client can act on.
        average = self._avg_run_seconds or 1.0
        estimate = (len(self._queue) + 1) * average / self.workers_hint
        return round(min(60.0, max(1.0, estimate)), 1)

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        kind: str,
        params: Mapping[str, Any],
        *,
        trace_id: str | None = None,
    ) -> Job:
        """Create a job; attach it to an identical in-flight one if present.

        Every submission carries a trace ID from here on: the caller's
        (validated) if one was supplied, a freshly minted one otherwise.
        Followers keep their own trace -- dedup shares the *work*, not the
        identity of the request that asked for it.
        """
        trace_id = normalize_trace_id(trace_id) if trace_id else new_trace_id()
        submit_wall = time.time()
        submit_mono = time.monotonic()
        params = normalize_job_params(kind, params)
        key = job_key(kind, params)  # may be slow; computed outside the lock
        policy = policy_for(kind)
        with self._cond:
            primary_id = self._inflight.get(key)
            if primary_id is not None:
                # Load shedding prefers attaching duplicates over admitting
                # new keys: a follower is free, so it bypasses the depth
                # check even when the queue is saturated.
                self.stats.submitted += 1
                _METRIC_SUBMITTED.labels(kind=kind).inc()
                job = self.store.create(
                    kind, params, key=key, deduped_into=primary_id,
                    trace_id=trace_id,
                )
                self._followers.setdefault(primary_id, []).append(job.id)
                self.stats.deduped += 1
                _METRIC_DEDUP_ATTACHES.inc()
                self._open_root_span(
                    job,
                    submit_wall,
                    submit_mono,
                    event="scheduler.dedup-attach",
                    primary_id=primary_id,
                )
                return job
            if (
                self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth
            ):
                self.stats.rejected += 1
                _METRIC_JOBS_REJECTED.labels(reason="saturated").inc()
                raise QueueSaturatedError(
                    f"queue is saturated ({len(self._queue)} jobs waiting, "
                    f"limit {self.max_queue_depth}); retry later",
                    retry_after=self._retry_after_locked(),
                )
            self.stats.submitted += 1
            _METRIC_SUBMITTED.labels(kind=kind).inc()
            job = self.store.create(
                kind, params, key=key, trace_id=trace_id,
                retry=policy.as_dict(),
            )
            self._inflight[key] = job.id
            self._queue.append(job.id)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()
            self._open_root_span(
                job, submit_wall, submit_mono, event="scheduler.enqueue"
            )
            return job

    def _open_root_span(
        self,
        job: Job,
        submit_wall: float,
        submit_mono: float,
        *,
        event: str,
        primary_id: str | None = None,
    ) -> None:
        """Start the job's root span (covers submit -> terminal state).

        Every submission gets its own root on its own trace -- followers
        included, since dedup shares the *work* but not the request
        identity.  The root is stashed as a transient attribute on the job
        (never journaled) and finished by :meth:`_complete`; the validate/
        key/enqueue work done so far is recorded as an already-measured
        child so the tree shows admission cost next to queue wait.
        """
        root = obs_spans.start_span(
            "service.submit",
            kind="api",
            trace_id=job.trace_id,
            attributes={"job_id": job.id, "job_kind": job.kind},
        )
        if root is None:
            return
        job.root_span = root
        obs_spans.record_span(
            event,
            "scheduler",
            trace_id=job.trace_id,
            parent_id=root.span_id,
            start_wall=submit_wall,
            duration=max(0.0, time.monotonic() - submit_mono),
            attributes={"primary_id": primary_id} if primary_id else None,
        )

    def requeue(self, job: Job) -> None:
        """Re-enqueue a recovered job under its existing id (restart path).

        Recovered duplicates are not re-deduplicated against each other: each
        runs as its own primary (the caches make the repeats cheap), which
        keeps recovery independent of replay order.
        """
        key = job.key
        if key is None:  # journal predates key persistence; recompute
            key = job_key(job.kind, normalize_job_params(job.kind, job.params))
        with self._cond:
            self.store.requeue(job, reason="restart-recovery")
            job.key = key
            self._inflight.setdefault(key, job.id)
            self._queue.append(job.id)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()

    def retry(self, job: Job, *, reason: str) -> bool:
        """Requeue a failed attempt if the job's retry policy allows it.

        Returns ``False`` (caller should fail the job instead) once the
        attempt budget or deadline is exhausted.  The job keeps its id, its
        key (so followers stay attached and new duplicates keep attaching)
        and its incremented attempt count; it becomes claimable only after
        the policy's deterministic backoff delay.
        """
        policy = (
            RetryPolicy.from_dict(job.retry) if job.retry else policy_for(job.kind)
        )
        age = time.time() - job.created_at
        if not policy.allows_retry(job.attempts, age):
            return False
        delay = policy.backoff_delay(job.attempts, token=job.id)
        with self._cond:
            self.store.requeue(job, reason=reason)
            if job.key is not None:
                self._inflight.setdefault(job.key, job.id)
            self._not_before[job.id] = time.monotonic() + delay
            self._queue.append(job.id)
            self.stats.retried += 1
            _METRIC_JOB_RETRIES.labels(kind=job.kind, reason=reason).inc()
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            self._cond.notify()
        return True

    # -- the worker side -----------------------------------------------------

    def _pop_ready(self) -> str | None:
        """Remove and return the first claimable job id (holds the lock)."""
        now = time.monotonic()
        for index, job_id in enumerate(self._queue):
            if self._not_before.get(job_id, 0.0) <= now:
                del self._queue[index]
                self._not_before.pop(job_id, None)
                return job_id
        return None

    def claim(self, timeout: float | None = None) -> Job | None:
        """Pop the next claimable job and mark it running.

        Jobs still inside their retry-backoff window stay queued.  Returns
        ``None`` on timeout or shutdown.
        """
        with self._cond:
            end = None if timeout is None else time.monotonic() + timeout
            while True:
                head = self._pop_ready()
                if head is not None:
                    break
                if self._closed:
                    return None
                now = time.monotonic()
                if end is not None and now >= end:
                    return None
                wait = None if end is None else end - now
                held = [
                    self._not_before[job_id] - now
                    for job_id in self._queue
                    if self._not_before.get(job_id, 0.0) > now
                ]
                if held:
                    soonest = max(0.001, min(held))
                    wait = soonest if wait is None else min(wait, soonest)
                self._cond.wait(wait)
            _METRIC_QUEUE_DEPTH.set(len(self._queue))
            job = self.store.get(head)
            self.store.mark_running(job)
            return job

    def finish(self, job: Job, result: Any) -> None:
        """Complete a job; its followers observe the same result."""
        self._complete(job, result=result, error=None)

    def fail(self, job: Job, error: str) -> None:
        """Fail a job; its followers observe the same error."""
        self._complete(job, result=None, error=error)

    def _complete(self, job: Job, *, result: Any, error: str | None) -> None:
        # Detach the followers and release the key under the lock -- no new
        # follower can attach once the key is gone -- but persist the (large)
        # result snapshots outside it, so submit/claim never stall behind
        # journal writes.
        with self._cond:
            follower_ids = self._followers.pop(job.id, [])
            if job.key is not None and self._inflight.get(job.key) == job.id:
                del self._inflight[job.key]
            if job.started_at is not None:
                # EWMA of run times feeds the 429 Retry-After estimate.
                elapsed = max(0.0, time.time() - job.started_at)
                self._avg_run_seconds = (
                    elapsed
                    if self._avg_run_seconds is None
                    else 0.8 * self._avg_run_seconds + 0.2 * elapsed
                )
            if error is None:
                self.stats.completed += 1 + len(follower_ids)
                _METRIC_JOBS_COMPLETED.labels(kind=job.kind).inc(
                    1 + len(follower_ids)
                )
            else:
                self.stats.failed += 1 + len(follower_ids)
                _METRIC_JOBS_FAILED.labels(kind=job.kind).inc(
                    1 + len(follower_ids)
                )
        for target in (job, *(self.store.get(fid) for fid in follower_ids)):
            if error is None:
                self.store.mark_done(target, result)
            else:
                self.store.mark_failed(target, error)
            # Close the submission's root span (primary and followers each
            # own one): the root's duration is the client-visible latency,
            # submit to terminal state.
            root = getattr(target, "root_span", None)
            if root is not None:
                root.set(state=target.state, attempts=target.attempts)
                if error is not None:
                    root.set(error=error)
                root.finish()
                target.root_span = None

    def close(self) -> None:
        """Wake every waiting worker so it can observe shutdown."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def reopen(self) -> None:
        """Allow ``claim`` to block again after a close (pool restart)."""
        with self._cond:
            self._closed = False
