"""Tests for the declarative scenario-suite layer."""

from __future__ import annotations

import csv
import json

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime.cache import ResultCache, TaskCache
from repro.runtime.engine import SweepRunner
from repro.runtime.suites import (
    EXPERIMENT_KINDS,
    RESULT_SCHEMA,
    ExperimentScenario,
    PEConfig,
    Scenario,
    ScenarioSuite,
    build_kernel,
    experiment_kinds,
    get_suite,
    kernel_factories,
    run_suite,
    suite_names,
    task_runner_for,
)
from repro.runtime.tasks import TaskRunner


@pytest.fixture
def mini_suite() -> ScenarioSuite:
    """Two tiny scenarios spanning a rebalancable and an I/O-bounded kernel."""
    return ScenarioSuite(
        name="mini",
        description="two-scenario test suite",
        scenarios=(
            Scenario(
                "mini-matmul",
                "matmul",
                (12, 27, 48),
                12,
                alphas=(1.5, 2.0),
                pes=(PEConfig("baseline", 8e6, 1e6),),
            ),
            Scenario("mini-matvec", "matvec", (8, 16, 32), 16),
        ),
    )


@pytest.fixture
def mini_experiment_suite() -> ScenarioSuite:
    """A tiny suite mixing one sweep with two experiment scenarios."""
    return ScenarioSuite(
        name="mini-exp",
        description="sweep + experiment test suite",
        scenarios=(Scenario("mini-matmul", "matmul", (12, 27, 48), 12),),
        experiments=(
            ExperimentScenario("mini-figure2", "figure2"),
            ExperimentScenario(
                "mini-pebble",
                "pebble",
                {
                    "matmul_order": 4,
                    "fft_points": 16,
                    "matmul_memories": (4, 8),
                    "fft_memories": (4, 8),
                },
            ),
        ),
    )


class TestSuiteRegistry:
    def test_named_suites_resolve(self):
        for name in suite_names():
            suite = get_suite(name)
            assert suite.name == name
            assert suite.scenarios

    def test_unknown_suite_names_known_ones(self):
        with pytest.raises(ConfigurationError, match="quick"):
            get_suite("nonexistent")

    def test_unknown_kernel_names_known_ones(self):
        with pytest.raises(ConfigurationError, match="matmul"):
            build_kernel("quantum-annealer")

    def test_every_factory_builds(self):
        for name in kernel_factories():
            kernel = build_kernel(name)
            assert kernel.minimum_memory_words >= 1

    def test_duplicate_scenario_names_rejected(self):
        scenario = Scenario("dup", "matmul", (12, 27), 12)
        with pytest.raises(ConfigurationError, match="dup"):
            ScenarioSuite(name="bad", description="", scenarios=(scenario, scenario))

    def test_quick_suite_is_multi_kernel(self):
        kernels = {s.kernel for s in get_suite("quick").scenarios}
        assert {"matmul", "fft", "sorting", "matvec"} <= kernels

    def test_quick_and_full_suites_cover_every_experiment_kind(self):
        for name in ("quick", "full"):
            kinds = {e.experiment for e in get_suite(name).experiments}
            assert kinds == set(EXPERIMENT_KINDS), name

    def test_every_named_suite_has_experiments(self):
        for name in suite_names():
            assert get_suite(name).experiments, name

    def test_full_suite_includes_large_pebble_scenario(self):
        suite = get_suite("full")
        large = next(e for e in suite.experiments if e.name == "full-pebble-large")
        assert large.params["matmul_order"] >= 10
        assert large.params["fft_points"] >= 256

    @pytest.mark.parametrize("name", ["quick", "full"])
    def test_suites_include_large_order_systolic_scenarios(self, name):
        """The wavefront engine's payoff: >= 3 large-order systolic scenarios."""
        suite = get_suite(name)
        systolic = [e for e in suite.experiments if e.experiment == "systolic"]
        large = [
            e
            for e in systolic
            if max(
                e.params.get("order", 8),
                e.params.get("matvec_length") or 0,
                e.params.get("qr_order") or 0,
            )
            >= 32
        ]
        assert len(large) >= 3, [e.name for e in systolic]
        assert all(e.params.get("engine", "fast") == "fast" for e in large)
        # The small instance still exercises the validating reference engine.
        assert any(e.params.get("engine") == "reference" for e in systolic)

    def test_full_suite_reaches_order256_mesh_and_qr128(self):
        """The banded anti-diagonal engine unlocks the largest scenarios."""
        suite = get_suite("full")
        systolic = [e for e in suite.experiments if e.experiment == "systolic"]
        assert any(e.params.get("order") == 256 for e in systolic)
        assert any((e.params.get("matvec_length") or 0) >= 512 for e in systolic)
        assert any((e.params.get("qr_order") or 0) >= 128 for e in systolic)

    def test_experiment_kinds_listing(self):
        assert set(experiment_kinds()) == set(EXPERIMENT_KINDS)

    def test_unknown_experiment_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="figure2"):
            ExperimentScenario("bad", "frobnicate")

    def test_duplicate_names_across_sweeps_and_experiments_rejected(self):
        with pytest.raises(ConfigurationError, match="dup"):
            ScenarioSuite(
                name="bad",
                description="",
                scenarios=(Scenario("dup", "matmul", (12, 27), 12),),
                experiments=(ExperimentScenario("dup", "figure2"),),
            )

    def test_experiment_scenarios_lower_onto_tasks(self):
        scenario = ExperimentScenario(
            "p", "pebble", {"matmul_memories": (4, 8), "fft_memories": (4,)}
        )
        tasks = scenario.tasks()
        assert len(tasks) == 3
        assert ExperimentScenario("f", "figure2").tasks()[0].label.startswith("figure2")


class TestRunSuite:
    def test_parallel_equals_serial_bitwise(self, mini_suite):
        serial = run_suite(mini_suite, SweepRunner())
        parallel = run_suite(mini_suite, SweepRunner(parallel=True, max_workers=2))
        for s, p in zip(serial.results, parallel.results):
            assert p.sweep.intensities == s.sweep.intensities

    def test_scenario_lookup_and_analysis(self, mini_suite):
        result = run_suite(mini_suite)
        matmul = result.scenario("mini-matmul")
        fit = matmul.fit()
        assert fit["best_model"] == "power-law"
        assert fit["power_law_exponent"] == pytest.approx(0.5, abs=0.2)
        assert len(matmul.rebalance_rows()) == 2
        assert len(matmul.balance_rows()) == 3  # one PE x three memory sizes
        matvec = result.scenario("mini-matvec")
        assert matvec.fit()["computation_class"] == "io-bounded"
        assert matvec.rebalance_rows() == []
        with pytest.raises(ConfigurationError):
            result.scenario("missing")

    def test_cached_rerun_replays_every_point(self, mini_suite, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(mini_suite, SweepRunner(cache=cache))
        warm = run_suite(mini_suite, SweepRunner(cache=cache))
        assert cache.stats.hits == cache.stats.misses == 6
        for c, w in zip(cold.results, warm.results):
            assert w.sweep.intensities == c.sweep.intensities

    def test_json_schema(self, mini_suite, tmp_path):
        result = run_suite(mini_suite, SweepRunner(parallel=True))
        path = result.write_json(tmp_path / "BENCH_suite_mini.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == RESULT_SCHEMA
        assert payload["suite"] == "mini"
        assert payload["elapsed_seconds"] >= 0
        assert payload["runtime"]["points"] == 6
        assert len(payload["scenarios"]) == 2
        scenario = payload["scenarios"][0]
        assert {"scenario", "kernel", "rows", "fit", "rebalance", "balance"} <= set(
            scenario
        )
        assert {"memory_words", "intensity", "compute_ops", "io_words"} <= set(
            scenario["rows"][0]
        )

    def test_csv_rows(self, mini_suite, tmp_path):
        result = run_suite(mini_suite)
        path = result.write_csv(tmp_path / "mini.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 6
        assert rows[0]["suite"] == "mini"
        assert {"scenario", "kernel", "memory_words", "intensity"} <= set(rows[0])


class TestRunSuiteExperiments:
    def test_experiments_run_and_summarize(self, mini_experiment_suite):
        result = run_suite(mini_experiment_suite)
        assert result.runtime["experiment_tasks"] == 5  # 1 figure2 + 4 pebble
        figure2 = result.experiment("mini-figure2")
        assert figure2.summary()["correct"] is True
        assert "passes" in figure2.headline()
        pebble = result.experiment("mini-pebble")
        assert pebble.summary()["all_above_lower_bound"] is True
        assert len(pebble.results) == 4
        with pytest.raises(ConfigurationError):
            result.experiment("missing")

    def test_parallel_equals_serial(self, mini_experiment_suite):
        serial = run_suite(mini_experiment_suite, SweepRunner())
        parallel = run_suite(
            mini_experiment_suite, SweepRunner(parallel=True, max_workers=2)
        )
        assert [e.summary() for e in serial.experiments] == [
            e.summary() for e in parallel.experiments
        ]

    def test_warm_rerun_hits_cache_for_every_experiment_task(
        self, mini_experiment_suite, tmp_path
    ):
        cache = ResultCache(tmp_path / "cache")
        cold = run_suite(mini_experiment_suite, SweepRunner(cache=cache))
        assert cold.runtime["task_cache"]["misses"] == 5
        warm = run_suite(mini_experiment_suite, SweepRunner(cache=cache))
        assert warm.runtime["task_cache"]["hits"] == 5
        assert warm.runtime["task_cache"]["misses"] == 0
        assert warm.runtime["cache"]["hits"] == 3  # the sweep points too
        assert [e.summary() for e in warm.experiments] == [
            e.summary() for e in cold.experiments
        ]

    def test_task_runner_for_mirrors_sweep_runner(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        runner = SweepRunner(parallel=True, max_workers=3, cache=cache)
        task_runner = task_runner_for(runner)
        assert task_runner.parallel is True
        assert task_runner.max_workers == 3
        # Points and experiment tasks share one cache and one pool.
        assert task_runner is runner.task_runner
        assert task_runner.cache is cache
        assert task_runner_for(SweepRunner()).cache is None

    def test_explicit_task_runner_is_used(self, mini_experiment_suite, tmp_path):
        task_cache = TaskCache(tmp_path / "tasks")
        run_suite(
            mini_experiment_suite,
            SweepRunner(),
            task_runner=TaskRunner(cache=task_cache),
        )
        assert task_cache.stats.stores == 5

    def test_json_payload_includes_experiments(self, mini_experiment_suite, tmp_path):
        result = run_suite(mini_experiment_suite)
        path = result.write_json(tmp_path / "mini-exp.json")
        payload = json.loads(path.read_text())
        assert payload["schema"] == RESULT_SCHEMA
        names = [entry["scenario"] for entry in payload["experiments"]]
        assert names == ["mini-figure2", "mini-pebble"]
        pebble_entry = payload["experiments"][1]
        assert pebble_entry["tasks"] == 4
        assert pebble_entry["summary"]["all_above_lower_bound"] is True


class TestResultStoreIntegration:
    def test_every_run_mints_a_fresh_run_id(self, mini_suite):
        first = run_suite(mini_suite)
        second = run_suite(mini_suite)
        assert first.run_id and second.run_id
        assert first.run_id != second.run_id
        assert first.as_dict()["run_id"] == first.run_id

    def test_payload_carries_point_and_task_keys(self, mini_experiment_suite):
        result = run_suite(mini_experiment_suite)
        payload = result.as_dict()
        scenario = payload["scenarios"][0]
        assert len(scenario["point_keys"]) == len(scenario["rows"]) == 3
        assert all(len(key) == 64 for key in scenario["point_keys"])
        for entry in payload["experiments"]:
            assert len(entry["task_keys"]) == entry["tasks"]
        # The keys are the runtime's content addresses: stable across runs.
        again = run_suite(mini_experiment_suite).as_dict()
        assert again["scenarios"][0]["point_keys"] == scenario["point_keys"]
        assert again["experiments"][0]["task_keys"] == (
            payload["experiments"][0]["task_keys"]
        )

    def test_cached_run_records_into_the_store(self, mini_experiment_suite, tmp_path):
        from repro.runtime.suites import store_for

        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        result = run_suite(
            mini_experiment_suite, runner, task_runner=task_runner_for(runner)
        )
        store = store_for(runner)
        assert store is not None
        assert store.root == tmp_path / "cache" / "store"
        runs = store.runs()
        assert [run.run_id for run in runs] == [result.run_id]
        assert runs[0].suite == "mini-exp"
        assert len(store) == runs[0].record_count > 0

    def test_uncached_runner_has_no_store(self):
        from repro.runtime.suites import store_for

        assert store_for(SweepRunner()) is None
        micro = ScenarioSuite(
            name="micro",
            description="",
            scenarios=(Scenario("micro-matvec", "matvec", (8,), 16),),
        )
        run_suite(micro, SweepRunner())  # record=True with no cache: silent no-op

    def test_record_false_skips_the_store(self, mini_suite, tmp_path):
        from repro.runtime.suites import store_for

        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"))
        run_suite(mini_suite, runner, record=False)
        assert store_for(runner).run_count() == 0
