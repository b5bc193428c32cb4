"""The ``service-mix`` workload: a ``repro serve`` child under a closed loop.

The server runs at its defaults (process pool on, spans on, 2 workers)
with ``--cache-dir`` and ``--state-file`` in the run's temp dir.  Two
client threads each loop on ``ServiceClient.submit_and_wait`` with the
client's default polling and ``busy_timeout`` 0, so a refusal surfaces as
a failed op.

An op's latency is the client's poll sleeps, which do not scale with host
speed, plus active time (requests and server work), which does.  The
sleeps are measured and kept raw; the active part is normalized by the
host factor of probe windows taken, idle, right before and after the
load.  Each server start is normalized by a probe the server process runs
first (``perfbench/serve.py``).
"""

from __future__ import annotations

import itertools
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import checks
import inputs
import repro.service.client as service_client
from measure import PROBE_REF_S, host_factor, median
from outcome import Outcome
from repro.exceptions import ServiceError
from repro.service import ServiceClient

#: Server starts timed per run for ``setup_s``; the last one takes the load.
SETUP_STARTS = 7
CLIENT_THREADS = 2
#: A job slower than this counts as a failed (timed-out) op.
JOB_TIMEOUT_S = 30.0
#: Jobs in each phase of a traced run (fixed, so its counts repeat exactly).
TRACED_JOBS = 240

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")
_PROBE = re.compile(r"^probe (\S+)$", re.MULTILINE)
_SERVE = Path(__file__).with_name("serve.py")
_SPAN_KINDS = ("api", "scheduler", "worker", "task", "phase")


class Server:
    """One ``repro serve`` child process with its own cache and journal."""

    def __init__(self, root: Path, env: dict[str, str]) -> None:
        root.mkdir(parents=True)
        self.journal = root / "jobs.jsonl"
        self.log_path = root / "server.log"
        self._log = self.log_path.open("w")
        command = [sys.executable, str(_SERVE), "--port", "0",
                   "--cache-dir", str(root / "cache"), "--state-file", str(self.journal)]
        self.proc = subprocess.Popen(command, stdout=self._log, stderr=subprocess.STDOUT,
                                     env=env, cwd=root)
        self.port = 0
        self.probe_s = 0.0

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until ``/healthz`` first answers 200."""
        deadline = time.monotonic() + timeout
        while not self.port:
            log = self.log_path.read_text()
            match = _LISTENING.search(log)
            if match:
                self.port = int(match.group(1))
                self.probe_s = float(_PROBE.search(log).group(1))
            else:
                self._check_alive(deadline)
                time.sleep(0.002)
        client = ServiceClient(port=self.port, timeout=2.0, connect_retries=0)
        while True:
            try:
                client.health()
                return
            except ServiceError:
                self._check_alive(deadline)
                time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        if self.proc.poll() is not None:
            raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("repro serve did not become healthy")

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def cpu_s(self) -> float:
        """User plus system CPU of the server and its reaped pool children."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = sum(int(value) for value in fields[11:15])
        return ticks / _CLOCK_TICKS

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=40)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


class SleepMeter:
    """Stands in for ``time`` inside ``repro.service.client``: meters sleeps.

    Each thread's slept seconds accumulate until :meth:`take` reads them.
    """

    def __init__(self) -> None:
        self._local = threading.local()

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)

    def sleep(self, seconds: float) -> None:
        start = time.perf_counter()
        time.sleep(seconds)
        self._local.slept = self.take() + time.perf_counter() - start

    def take(self) -> float:
        slept = getattr(self._local, "slept", 0.0)
        self._local.slept = 0.0
        return slept


class CountingClient(ServiceClient):
    """The stock client, counting the HTTP requests it makes."""

    requests = 0

    def _request(self, *args: Any, **kwargs: Any) -> tuple[int, dict[str, Any]]:
        self.requests += 1
        return super()._request(*args, **kwargs)


@dataclass
class Done:
    """One op that returned a result."""

    kind: str
    params: dict[str, Any]
    latency_s: float
    slept_s: float
    document: dict[str, Any]
    received_wall: float
    submit_s: float = 0.0
    requests: int = 0
    #: traced phase only: ``GET /jobs/{id}`` and the spans of ``GET /trace/{id}``
    job: dict[str, Any] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)


@dataclass
class Load:
    """What one closed-loop phase produced."""

    done: list[Done] = field(default_factory=list)
    elapsed_s: float = 0.0

    def latencies(self, factor: float) -> list[float]:
        """Each op's seconds: raw sleeps plus active time times ``factor``."""
        return [d.slept_s + (d.latency_s - d.slept_s) * factor for d in self.done]


def _failure(exc: Exception) -> str:
    if isinstance(exc, ServiceError):
        if exc.status in (429, 503):
            return f"refused ({exc.status}): {exc}"
        if "timed out" in str(exc):
            return f"timed out: {exc}"
    return f"{type(exc).__name__}: {exc}"


def closed_loop(server: Server, jobs: Iterator[tuple[str, dict[str, Any]]],
                outcome: Outcome, *, seconds: float | None, traced: bool) -> Load:
    """Two threads submit-and-wait until ``seconds`` pass or ``jobs`` ends."""
    load = Load()
    lock = threading.Lock()
    counter = itertools.count()
    meter = SleepMeter()
    start = time.perf_counter()

    def client_loop() -> None:
        client = CountingClient(port=server.port)
        while True:
            with lock:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                job = next(jobs, None)
                if job is None:
                    return
                index = next(counter)
                outcome.attempted += 1
            kind, params = job
            before = client.requests
            meter.take()
            try:
                began = time.perf_counter()
                if traced:
                    submitted = client.submit(kind, params)
                    submit_s = time.perf_counter() - began
                    document = client.wait(submitted["id"], timeout=JOB_TIMEOUT_S)
                else:
                    submit_s = 0.0
                    document = client.submit_and_wait(kind, params, timeout=JOB_TIMEOUT_S)
                latency = time.perf_counter() - began
                received = time.time()
            except Exception as exc:  # noqa: BLE001 - count it, never abort the run
                with lock:
                    outcome.fail(f"job{index}", _failure(exc))
                continue
            done = Done(kind, params, latency, meter.take(), document, received, submit_s,
                        client.requests - before)
            if traced:
                try:
                    done.job = client.job(document["id"])
                    done.spans = client.trace(done.job["trace_id"])["spans"]
                except ServiceError as exc:
                    with lock:
                        outcome.fail(f"job{index}", f"trace lookup: {_failure(exc)}")
                    continue
            with lock:
                load.done.append(done)

    threads = [threading.Thread(target=client_loop, name=f"bench-client{i}")
               for i in range(CLIENT_THREADS)]
    service_client.time = meter
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        service_client.time = time
    load.elapsed_s = time.perf_counter() - start
    return load


def check_outputs(load: Load, outcome: Outcome) -> None:
    """Compare every result with the library's; drop mismatches from ``load``."""
    expected: dict[str, str] = {}
    kept = []
    for index, done in enumerate(load.done):
        key = checks.canonical([done.kind, done.params])
        if key not in expected:
            expected[key] = checks.library_science(done.kind, done.params)
        got = checks.job_science(done.kind, done.document["result"])
        if got == expected[key]:
            kept.append(done)
        else:
            outcome.fail(f"result{index}", f"{done.kind} {done.params} differs from the library")
    load.done = kept


def _start(work: Path, name: str, env: dict[str, str]) -> tuple[Server, float]:
    """Spawn a server; return it with its seconds from spawn to healthy.

    The seconds leave out the server's own probe and are normalized by it.
    """
    began = time.perf_counter()
    server = Server(work / name, env)
    try:
        server.wait_ready()
    except BaseException:
        server.stop()
        raise
    elapsed = time.perf_counter() - began - server.probe_s
    return server, elapsed * PROBE_REF_S / server.probe_s


def service_mix(seed: int, seconds: float, trace: bool, work: Path,
                env: dict[str, str]) -> Outcome:
    outcome = Outcome()
    if trace:
        return _traced(seed, work, env, outcome)
    setup = []
    for i in range(SETUP_STARTS - 1):
        server, elapsed = _start(work, f"setup{i}", env)
        server.stop()
        setup.append(elapsed)
    server, elapsed = _start(work, "load", env)
    setup.append(elapsed)
    try:
        before, _ = host_factor()
        load = closed_loop(server, inputs.job_stream(random.Random(seed)), outcome,
                           seconds=seconds, traced=False)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    after, _ = host_factor()
    factor = (before + after) / 2.0
    check_outputs(load, outcome)
    latencies = load.latencies(factor)
    outcome.put_end_to_end(setup, "host-normalized", latencies,
                           sum(latencies) / CLIENT_THREADS, rss,
                           "poll sleeps raw, the rest host-normalized")
    return outcome


def _span_rollup(spans: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Per span kind ``[calls, busy ms, self ms]``, plus the roots' ``busy ms``.

    Self time is a span's duration minus its children's.
    """
    children: dict[str, float] = {}
    for span in spans:
        if span.get("parent_id"):
            children[span["parent_id"]] = (children.get(span["parent_id"], 0.0)
                                           + float(span.get("duration") or 0.0))
    totals = {kind: [0.0, 0.0, 0.0] for kind in (*_SPAN_KINDS, "root")}
    ids = {span["span_id"] for span in spans}
    for span in spans:
        duration = float(span.get("duration") or 0.0) * 1000.0
        row = totals.get(span.get("kind"))
        if row is not None:
            row[0] += 1
            row[1] += duration
            row[2] += max(0.0, duration - children.get(span["span_id"], 0.0) * 1000.0)
        if span.get("parent_id") not in ids:
            totals["root"][1] += duration
    return totals


def _traced(seed: int, work: Path, env: dict[str, str], outcome: Outcome) -> Outcome:
    """An untraced then a traced phase over the same fixed job list."""
    jobs = list(itertools.islice(inputs.job_stream(random.Random(seed)), TRACED_JOBS))
    server, _ = _start(work, "untraced", env)
    try:
        plain = closed_loop(server, iter(jobs), Outcome(), seconds=None, traced=False)
    finally:
        server.stop()
    server, _ = _start(work, "traced", env)
    try:
        cpu_before = server.cpu_s()
        load = closed_loop(server, iter(jobs), outcome, seconds=None, traced=True)
        cpu_s = server.cpu_s() - cpu_before
        stats = ServiceClient(port=server.port).cache_stats()
    finally:
        server.stop()
    journal_bytes = server.journal.stat().st_size
    check_outputs(load, outcome)

    lags, queue, run, dedup, unattributed = [], [], [], 0, 0.0
    rollup = {kind: [0.0, 0.0, 0.0] for kind in _SPAN_KINDS}
    for done in load.done:
        timeline = {event["state"]: event for event in done.job["timeline"]}
        lags.append((done.received_wall - timeline["done"]["wall_time"]) * 1000.0)
        if done.job.get("deduped_into"):
            dedup += 1
        if "running" in timeline:
            queue.append(timeline["queued"]["seconds_in_state"] * 1000.0)
            run.append(timeline["running"]["seconds_in_state"] * 1000.0)
        own = _span_rollup(done.spans)
        for kind in _SPAN_KINDS:
            rollup[kind] = [a + b for a, b in zip(rollup[kind], own[kind])]
        unattributed += done.latency_s * 1000.0 - own["root"][1]
    lookups = hits = 0
    for cache in ("results", "tasks"):
        if stats.get(cache):
            hits += stats[cache]["hits"]
            lookups += stats[cache]["hits"] + stats[cache]["misses"]
    jobs_done = len(load.done) or 1
    put = outcome.put
    put("client.notice_lag_ms", median(lags), "ms", "median")
    put("client.submit_ms", median([d.submit_s * 1000.0 for d in load.done]), "ms", "median")
    put("client.requests_per_job", sum(d.requests for d in load.done) / jobs_done, "count")
    put("service.queue_wait_ms", median(queue), "ms", "median over jobs that ran")
    put("service.run_ms", median(run), "ms", "median over jobs that ran")
    put("service.cpu_ms_per_job", cpu_s * 1000.0 / jobs_done, "ms")
    put("service.journal_bytes", journal_bytes, "bytes")
    put("service.dedup_share", dedup / jobs_done, "ratio")
    put("service.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    for kind in _SPAN_KINDS:
        put(f"span.{kind}.self_ms", rollup[kind][2] / jobs_done, "ms", "mean per job")
    put("span.unattributed_ms", unattributed / jobs_done, "ms",
        "client latency minus root spans, mean per job")
    put("trace.overhead", load.elapsed_s / plain.elapsed_s, "ratio",
        "traced / untraced phase seconds")
    put("host.probe_ms", median(host_factor(0.5)[1]) * 1000.0, "ms")
    report = outcome.report
    report.append(f"traced jobs: {len(load.done)} in {load.elapsed_s:.3f} s; "
                  "spans per job, mean")
    report.append(f"{'layer':<20}{'calls':>9}{'busy_ms':>11}{'self_ms':>11}")
    for kind in _SPAN_KINDS:
        calls, busy, own_ms = (value / jobs_done for value in rollup[kind])
        report.append(f"{'span.' + kind:<20}{calls:>9.2f}{busy:>11.3f}{own_ms:>11.3f}")
    report.append(f"{'unattributed':<20}{'':>9}{'':>11}{unattributed / jobs_done:>11.3f}")
    report.append(f"client notice lag (median): {median(lags):.3f} ms")
    return outcome
