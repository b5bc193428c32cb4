"""End-to-end tests: HTTP API + client over a live service.

Includes this PR's two acceptance checks: a quick suite submitted through
the HTTP API matches ``repro suite quick`` run directly, and 8 concurrent
identical sweep submissions execute the underlying tasks exactly once.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ServiceError
from repro.runtime.engine import SweepRunner
from repro.runtime.cache import ResultCache
from repro.runtime.suites import run_suite, task_runner_for
from repro.service import JobService, ServiceClient, serve
from repro.service.jobs import DONE


@pytest.fixture
def live_service(tmp_path):
    """Factory for a service + HTTP server + client on an ephemeral port."""
    running = []

    def build(*, start: bool = True, workers: int = 2, **kwargs) -> tuple:
        kwargs.setdefault("cache_dir", tmp_path / "cache")
        kwargs.setdefault("parallel", False)
        service = JobService(workers=workers, **kwargs)
        server = serve("127.0.0.1", 0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        if start:
            service.start()
        running.append((service, server))
        client = ServiceClient("127.0.0.1", server.port, timeout=10.0)
        return service, client

    yield build
    for service, server in running:
        server.shutdown()
        server.server_close()
        service.stop()


class TestEndpoints:
    def test_healthz(self, live_service):
        _, client = live_service()
        health = client.health()
        assert health["ok"] is True
        assert health["workers"] == 2 and health["workers_running"] is True
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}

    def test_cache_stats_reports_both_stores(self, live_service):
        _, client = live_service()
        client.submit_and_wait("experiment", {"experiment": "warp"})
        stats = client.cache_stats()
        assert stats["tasks"]["entries"] >= 1
        assert stats["tasks"]["disk_usage_bytes"] > 0
        assert stats["store"]["runs"] >= 1
        assert stats["task_runner"]["executed"] >= 1

    def test_submit_and_fetch_result(self, live_service):
        _, client = live_service()
        job = client.submit("experiment", {"experiment": "figure2"})
        assert job["state"] == "queued" and job["deduped_into"] is None
        document = client.wait(job["id"])
        assert document["state"] == DONE
        assert document["result"]["summary"]["correct"] is True
        # The status endpoint never carries the payload.
        status = client.job(job["id"])
        assert status["has_result"] is True and "result" not in status

    def test_jobs_listing(self, live_service):
        _, client = live_service()
        job = client.submit("experiment", {"experiment": "warp"})
        client.wait(job["id"])
        listed = client.jobs()
        assert [entry["id"] for entry in listed] == [job["id"]]

    def test_unknown_endpoint_404(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client._get("/frobnicate", expect=(200,))
        assert excinfo.value.status == 404

    def test_unknown_job_404(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client.job("deadbeef")
        assert excinfo.value.status == 404

    def test_bad_submission_400(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client.submit("compile", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit("sweep", {"kernel": "fft"})
        assert excinfo.value.status == 400

    def test_pending_result_202(self, live_service):
        _, client = live_service(start=False)  # no workers: jobs stay queued
        job = client.submit("experiment", {"experiment": "warp"})
        with pytest.raises(ServiceError) as excinfo:
            client.result(job["id"])
        assert excinfo.value.status == 202

    def test_failed_job_result_500(self, live_service):
        service, client = live_service(start=False)
        job = client.submit("experiment", {"experiment": "warp"})

        def explode(job):
            raise RuntimeError("boom")

        service.executor.execute = explode
        service.start()
        with pytest.raises(ServiceError) as excinfo:
            client.wait(job["id"])
        assert excinfo.value.status == 500
        assert "boom" in str(excinfo.value)
        assert service.job(job["id"]).state == "failed"

    def test_dedup_visible_over_http(self, live_service):
        _, client = live_service(start=False)
        spec = {"experiment": "warp"}
        primary = client.submit("experiment", spec)
        follower = client.submit("experiment", spec)
        assert follower["deduped_into"] == primary["id"]


class TestResultsEndpoint:
    def test_finished_jobs_are_recorded_and_queryable(self, live_service):
        service, client = live_service()
        client.submit_and_wait("experiment", {"experiment": "warp"})
        report = client.results()
        assert report["schema"] == "repro-report/v1"
        assert report["count"] >= 1
        record = report["records"][0]
        assert record["experiment"] == "warp"
        assert service.executor.stats.results_recorded >= 1
        stats = client.cache_stats()
        assert stats["store"]["records"] >= 1

    def test_filters_and_limit(self, live_service):
        _, client = live_service()
        client.submit_and_wait("experiment", {"experiment": "warp"})
        client.submit_and_wait("experiment", {"experiment": "figure2"})
        assert client.results(experiment="figure2")["count"] == 1
        assert client.results(experiment="nothing")["count"] == 0
        limited = client.results(limit=1)
        assert limited["count"] == 1 and limited["filters"]["limit"] == 1

    def test_transform_applies_after_filtering(self, live_service):
        _, client = live_service()
        client.submit_and_wait(
            "sweep", {"kernel": "matmul", "memory_sizes": [12, 27, 48], "scale": 12}
        )
        report = client.results(transform="roofline")
        assert report["transform"] == "roofline"
        assert report["count"] == 3
        assert all("compute_bound" in r for r in report["records"])

    def test_unknown_transform_and_bad_limit_400(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client.results(transform="frobnicate")
        assert excinfo.value.status == 400
        assert "unknown transform" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.results(limit=-3)
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client._get("/results?limit=three", expect=(200,))
        assert excinfo.value.status == 400

    def test_uncached_service_reports_zero_records(self, live_service):
        _, client = live_service(cache_dir=None)
        report = client.results()
        assert report["count"] == 0 and report["records"] == []

    def test_results_survive_a_service_restart(self, live_service):
        """The store is on disk: a fresh service answers for old jobs."""
        _, client = live_service()
        client.submit_and_wait("experiment", {"experiment": "warp"})
        assert client.results()["count"] >= 1
        _, reborn = live_service(start=False)  # same cache dir, no journal
        report = reborn.results(experiment="warp")
        assert report["count"] >= 1


class TestAcceptance:
    def test_quick_suite_over_http_matches_direct_run(self, live_service, tmp_path):
        """Acceptance: the HTTP path returns the same experiments payload."""
        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        direct = run_suite("quick", runner, task_runner=task_runner_for(runner))

        _, client = live_service()  # shares tmp_path/"cache" (now warm)
        document = client.submit_and_wait("suite", {"suite": "quick"}, timeout=300.0)
        payload = document["result"]

        assert payload["schema"] == "repro-suite-result/v3"
        assert payload["experiments"] == direct.as_dict()["experiments"]
        assert payload["scenarios"] == direct.as_dict()["scenarios"]

    def test_eight_identical_sweeps_execute_once(self, live_service):
        """Acceptance: N identical submissions run the underlying tasks once."""
        service, client = live_service(start=False)
        spec = {"kernel": "fft", "memory_sizes": [4, 8, 16], "scale": 8}
        jobs = [client.submit("sweep", spec) for _ in range(8)]
        primaries = [job for job in jobs if job["deduped_into"] is None]
        assert len(primaries) == 1

        service.start()
        documents = [client.wait(job["id"]) for job in jobs]

        assert service.scheduler.stats.deduped == 7
        assert service.executor.stats.jobs_executed == 1
        # The underlying sweep tasks ran exactly once: one store per point,
        # no hits (nothing was ever resolved twice).
        cache_stats = service.executor.task_runner.cache.stats
        assert cache_stats.stores == 3
        assert cache_stats.hits == 0
        rows = [document["result"]["rows"] for document in documents]
        assert all(entry == rows[0] for entry in rows)


class TestBatchFailureIsolation:
    def test_one_bad_analytic_job_does_not_poison_the_batch(
        self, live_service, monkeypatch
    ):
        import repro.service.workers as workers_module

        real = workers_module.analytic_sweep_payload

        def picky(kernel, memory_sizes, problem_size):
            if kernel == "fft":
                raise RuntimeError("fft evaluation exploded")
            return real(kernel, memory_sizes, problem_size)

        monkeypatch.setattr(workers_module, "analytic_sweep_payload", picky)

        service, client = live_service(start=False, workers=1)
        good = client.submit(
            "sweep",
            {"kernel": "matmul", "memory_sizes": [16, 64], "analytic": True},
        )
        bad = client.submit(
            "sweep", {"kernel": "fft", "memory_sizes": [8, 32], "analytic": True}
        )
        service.start()

        document = client.wait(good["id"])
        assert document["result"]["kernel"] == "matmul"
        with pytest.raises(ServiceError) as excinfo:
            client.wait(bad["id"])
        assert excinfo.value.status == 500
        assert "fft evaluation exploded" in str(excinfo.value)


class TestTraceEndpoint:
    def test_traced_submission_yields_a_rooted_tree(self, live_service):
        _, client = live_service()
        job = client.submit(
            "experiment",
            {"experiment": "systolic", "params": {"order": 4, "batches": 1}},
            trace_id="api-trace-1",
        )
        assert job["trace_id"] == "api-trace-1"
        client.wait(job["id"])

        document = client.trace("api-trace-1")
        assert document["schema"] == "repro-spans/v1"
        assert document["trace_id"] == "api-trace-1"
        assert document["roots"] == 1
        assert document["depth"] >= 4
        kinds = {span["kind"] for span in document["spans"]}
        assert {"api", "scheduler", "worker", "task"} <= kinds
        (root,) = document["tree"]
        assert root["name"] == "service.submit"

    def test_unknown_trace_is_a_404(self, live_service):
        _, client = live_service()
        with pytest.raises(ServiceError) as excinfo:
            client.trace("never-submitted")
        assert excinfo.value.status == 404

    def test_spans_disabled_service_records_nothing(self, live_service):
        from repro.obs import spans as obs_spans

        saved = obs_spans.collector()
        obs_spans.disable()
        try:
            _, client = live_service(spans=False)
            job = client.submit(
                "experiment", {"experiment": "warp"}, trace_id="api-trace-off",
            )
            client.wait(job["id"])
            with pytest.raises(ServiceError) as excinfo:
                client.trace("api-trace-off")
            assert excinfo.value.status == 404
        finally:
            obs_spans._COLLECTOR = saved
