"""``repro.service`` -- the async job-queue service layer over the runtime.

Kung's balance principle asks for an I/O front end matched to the compute
engine.  The repo's compute engine (vectorized analytic paths, pooled
content-addressed tasks, on-disk result caches) was previously fronted only
by one-shot CLI processes; this package is the long-lived front end:

* :mod:`repro.service.jobs` -- the :class:`Job` state machine and the
  thread-safe :class:`JobStore` with JSON-lines restart recovery;
* :mod:`repro.service.scheduler` -- content-addressed dedup (identical
  in-flight submissions run once) in a FIFO queue with retry backoff;
* :mod:`repro.service.workers` -- the executor/worker-pool bridge onto
  :class:`~repro.runtime.tasks.TaskRunner` and
  :class:`~repro.runtime.engine.SweepRunner`, plus the :class:`JobService`
  facade;
* :mod:`repro.service.api` -- stdlib JSON-over-HTTP endpoints
  (``POST /jobs``, ``GET /jobs/{id}``, ``GET /jobs/{id}/result``,
  ``GET /healthz``, ``GET /cache/stats``, ``GET /metrics``);
* :mod:`repro.service.client` -- the blocking Python client, with
  transient-connection retries, backpressure-aware submission and
  adaptive result polling;
* :mod:`repro.service.retry` -- per-kind :class:`RetryPolicy` budgets
  (bounded attempts, deterministic-jitter backoff, deadlines) that the
  scheduler and the supervising :class:`WorkerPool` enforce.

Resilience is part of the contract: the scheduler's queue can be bounded
(saturated submissions shed with 429 + ``Retry-After``), crashed worker
threads are reaped and their jobs retried, and the deterministic fault
injector in :mod:`repro.faults` can rehearse all of it reproducibly.

Observability rides on :mod:`repro.obs`: every submission carries a trace
ID (minted or taken from ``X-Repro-Trace``) through the scheduler, the
journal and the executor's spans; ``GET /jobs/{id}`` exposes the
per-job state-transition timeline; ``GET /metrics`` exposes the process
metrics registry; ``repro doctor`` diagnoses cache/journal/worker health.
See ``docs/operations.md``.

Everything is stdlib-only (``threading`` + ``http.server``): no web
framework is required to run ``repro serve``.
"""

from repro.exceptions import QueueSaturatedError
from repro.service.api import ServiceHTTPServer, serve
from repro.service.client import ServiceClient
from repro.service.jobs import (
    DONE,
    FAILED,
    JOB_KINDS,
    JOB_STATES,
    QUEUED,
    RUNNING,
    Job,
    JobStore,
)
from repro.service.retry import (
    DEFAULT_POLICIES,
    RetryPolicy,
    is_transient,
    policy_for,
    transient_reason,
)
from repro.service.scheduler import (
    JobScheduler,
    SchedulerStats,
    analytic_sweep_payload,
    job_key,
    normalize_job_params,
)
from repro.service.workers import (
    ExecutorStats,
    JobExecutor,
    JobService,
    WorkerPool,
)

__all__ = [
    "DEFAULT_POLICIES",
    "DONE",
    "FAILED",
    "JOB_KINDS",
    "JOB_STATES",
    "QUEUED",
    "RUNNING",
    "ExecutorStats",
    "Job",
    "JobExecutor",
    "JobScheduler",
    "JobService",
    "JobStore",
    "QueueSaturatedError",
    "RetryPolicy",
    "SchedulerStats",
    "ServiceClient",
    "ServiceHTTPServer",
    "WorkerPool",
    "analytic_sweep_payload",
    "is_transient",
    "job_key",
    "normalize_job_params",
    "policy_for",
    "serve",
    "transient_reason",
]
