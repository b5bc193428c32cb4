"""Tests for the command-line interface (``python -m repro ...``)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_summary_quick_flag(self):
        args = build_parser().parse_args(["summary", "--quick"])
        assert args.command == "summary" and args.quick is True

    def test_figure2_options(self):
        args = build_parser().parse_args(["figure2", "--points", "32", "--block", "8"])
        assert args.points == 32 and args.block == 8


class TestCommands:
    def test_list_prints_every_experiment(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for name in ("summary", "figure2", "arrays", "systolic", "pebble", "warp", "matmul"):
            assert name in output

    def test_figure2_command(self, capsys):
        assert main(["figure2", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "pass 1" in output and "correct against the direct DFT: True" in output

    def test_kernel_command_matvec(self, capsys):
        assert main(["matvec"]) == 0
        output = capsys.readouterr().out
        assert "infeasible (I/O bounded)" in output

    def test_kernel_command_matmul(self, capsys):
        assert main(["matmul"]) == 0
        output = capsys.readouterr().out
        assert "measured rebalancing curve" in output
        assert "alpha^2" in output

    def test_arrays_command(self, capsys):
        assert main(["arrays", "--no-cache", "--serial"]) == 0
        output = capsys.readouterr().out
        assert "per-cell memory" in output
        assert "4-d grid relaxation" in output

    def test_systolic_command(self, capsys):
        assert main(["systolic", "--order", "4", "--batches", "8", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Gentleman-Kung" in output
        assert "fast engine" in output

    def test_systolic_command_reference_engine(self, capsys):
        argv = [
            "systolic", "--order", "4", "--batches", "8",
            "--engine", "reference", "--no-cache",
        ]
        assert main(argv) == 0
        assert "reference engine" in capsys.readouterr().out

    def test_systolic_command_independent_sizes(self, capsys):
        argv = [
            "systolic", "--order", "4", "--batches", "4", "--matvec-length", "16",
            "--qr-order", "8", "--qr-rows", "12", "--no-cache",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "16" in output and "12 rows streamed" in output

    def test_systolic_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["systolic", "--engine", "turbo"])

    def test_arrays_command_custom_grids(self, capsys):
        argv = [
            "arrays", "--lengths", "2,4,8", "--sides", "2,4",
            "--no-cache", "--serial",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "per-cell memory" in output

    def test_warp_command(self, capsys):
        assert main(["warp", "--no-cache"]) == 0
        output = capsys.readouterr().out
        assert "Warp cell" in output

    def test_pebble_command(self, capsys):
        assert main(["pebble", "--no-cache", "--serial"]) == 0
        output = capsys.readouterr().out
        assert "lower bound" in output.lower()

    def test_pebble_command_custom_dag_sizes(self, capsys):
        argv = [
            "pebble", "--matmul-order", "4", "--fft-points", "32",
            "--no-cache", "--serial",
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "matmul[4]" in output and "fft[32]" in output

    def test_experiment_command_uses_cache_across_invocations(self, capsys, tmp_path):
        argv = ["figure2", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert "1 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 hits" in capsys.readouterr().out


BENCH_PAYLOAD = {
    "schema": "repro-bench-systolic/v2",
    "matmul": [
        {"order": 32, "batches": 2, "reference_seconds": 1.0,
         "fast_seconds": 0.05, "speedup": 20.0},
    ],
    "matvec": [],
    "qr": [],
}


class TestReportAndIngest:
    def test_cached_experiment_run_is_recorded_and_queryable(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        argv = ["systolic", "--order", "4", "--batches", "8", "--cache-dir", cache]
        assert main(argv) == 0
        assert "recorded run" in capsys.readouterr().out
        assert main(["report", "--cache-dir", cache, "--group", "experiment"]) == 0
        output = capsys.readouterr().out
        assert "systolic" in output and "records" in output

    def test_report_json_is_the_report_document(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["figure2", "--cache-dir", cache]) == 0
        capsys.readouterr()
        argv = [
            "report", "--cache-dir", cache, "--experiment", "figure2",
            "--format", "json",
        ]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["schema"] == "repro-report/v1"
        assert document["count"] == 1
        assert document["filters"] == {"experiment": "figure2"}
        record = document["records"][0]
        assert record["experiment"] == "figure2" and record["correct"] is True

    def test_ingest_dedups_on_the_second_pass(self, capsys, tmp_path):
        path = tmp_path / "BENCH_systolic.json"
        path.write_text(json.dumps(BENCH_PAYLOAD))
        cache = str(tmp_path / "cache")
        assert main(["ingest", str(path), "--cache-dir", cache]) == 0
        assert "added run" in capsys.readouterr().out
        assert main(["ingest", str(path), "--cache-dir", cache]) == 0
        assert "deduplicated run" in capsys.readouterr().out
        assert main(["report", "--cache-dir", cache, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 1

    def test_report_regressions_exit_code(self, capsys, tmp_path):
        slower = json.loads(json.dumps(BENCH_PAYLOAD))
        slower["matmul"][0]["fast_seconds"] = 0.2  # 4x past the threshold
        cache = str(tmp_path / "cache")
        for name, payload in (("first", BENCH_PAYLOAD), ("second", slower)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            assert main(["ingest", str(path), "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["report", "--regressions", "--cache-dir", cache]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_report_list_transforms(self, capsys, tmp_path):
        argv = ["report", "--list-transforms", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        for name in ("regressions", "speedup-trend", "roofline", "suite",
                     "bench-systolic"):
            assert name in output

    def test_cache_stats_and_clear_account_for_the_store(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        assert main(["figure2", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        stats = capsys.readouterr().out
        assert "result store  : 1 runs" in stats
        # --keep-store clears the compute caches but keeps recorded history.
        assert main(["cache", "clear", "--keep-store", "--cache-dir", cache]) == 0
        assert "store kept" in capsys.readouterr().out
        assert main(["report", "--cache-dir", cache, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] >= 1
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        assert "1 store runs" in capsys.readouterr().out
        assert main(["report", "--cache-dir", cache, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0

    def test_pebble_cache_replays_every_point(self, capsys, tmp_path):
        argv = [
            "pebble", "--matmul-order", "4", "--fft-points", "16",
            "--cache-dir", str(tmp_path / "cache"), "--serial",
        ]
        assert main(argv) == 0
        assert "8 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "8 hits" in capsys.readouterr().out

    def test_summary_quick_command(self, capsys):
        assert main(["summary", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "Section 3 summary" in output


class TestSweepCommand:
    def test_parser_accepts_runtime_options(self):
        args = build_parser().parse_args(
            ["sweep", "matmul", "--memory", "12,27,48", "--scale", "16", "--jobs", "2"]
        )
        assert args.kernel == "matmul"
        assert args.memory == (12, 27, 48)
        assert args.scale == 16 and args.jobs == 2

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "frobnicate"])

    def test_measured_sweep_writes_json_and_csv(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        assert (
            main(
                [
                    "sweep", "matmul", "--memory", "12,27,48", "--scale", "12",
                    "--no-cache", "--json", str(json_path), "--csv", str(csv_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "measured intensity" in output
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-sweep-result/v1"
        assert payload["kernel"] == "matmul"
        assert len(payload["rows"]) == 3
        assert csv_path.read_text().startswith("memory_words")

    def test_sweep_uses_cache_across_invocations(self, capsys, tmp_path):
        argv = [
            "sweep", "fft", "--memory", "4,8,64", "--scale", "10",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "3 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "3 hits" in capsys.readouterr().out

    def test_analytic_sweep_resolves_divergent_registry_name(self, capsys):
        """sparse_matvec is registered as 'spmv'; the CLI must map it."""
        assert main(["sweep", "sparse_matvec", "--analytic"]) == 0
        assert "analytic cost model" in capsys.readouterr().out

    def test_explicit_empty_memory_list_rejected(self, capsys):
        assert main(["sweep", "fft", "--memory", ",", "--no-cache"]) == 2
        assert "must not be empty" in capsys.readouterr().err

    def test_analytic_sweep(self, capsys, tmp_path):
        json_path = tmp_path / "analytic.json"
        assert (
            main(["sweep", "matmul", "--analytic", "--json", str(json_path)]) == 0
        )
        output = capsys.readouterr().out
        assert "analytic cost model" in output
        assert "alpha^2" in output
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-sweep-analytic/v1"
        assert payload["rebalance"]


class TestSuiteCommand:
    def test_list_names_every_suite(self, capsys):
        assert main(["suite", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("quick", "full", "fleet", "mixed"):
            assert name in output

    def test_unknown_suite_fails_cleanly(self, capsys):
        assert main(["suite", "frobnicate", "--no-cache"]) == 2
        assert "known suites" in capsys.readouterr().err

    def test_quick_suite_runs_and_writes_artifacts(self, capsys, tmp_path):
        json_path = tmp_path / "BENCH_suite_quick.json"
        csv_path = tmp_path / "BENCH_suite_quick.csv"
        assert (
            main(
                [
                    "suite", "--quick", "--serial", "--no-cache",
                    "--json", str(json_path), "--csv", str(csv_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "suite 'quick'" in output
        assert "experiment tasks in" in output
        assert "experiment tasks" in output
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "repro-suite-result/v3"
        assert len(payload["scenarios"]) == 8
        # 6 experiment kinds plus the three large-order systolic scenarios.
        assert len(payload["experiments"]) == 9
        kinds = {entry["experiment"] for entry in payload["experiments"]}
        assert kinds == {
            "figure2", "linear-array", "mesh-array", "systolic", "pebble", "warp"
        }
        assert csv_path.exists()


class TestIntListParsing:
    def test_empty_int_list_rejected(self):
        """`--lengths ,` must fail as a usage error, not a traceback later."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arrays", "--lengths", ","])

    def test_malformed_int_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["arrays", "--sides", "2,banana"])


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1" and args.port == 8035
        assert args.workers == 2 and args.state_file is None

    def test_submit_requires_kind_and_spec(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "compile", "x"])
        args = build_parser().parse_args(["submit", "suite", "quick", "--no-wait"])
        assert args.kind == "suite" and args.spec == "quick" and args.no_wait

    def test_cache_requires_an_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats"


class TestCacheCommand:
    def test_stats_reports_entries_and_bytes(self, tmp_path, capsys):
        from repro.runtime import TaskCache

        root = tmp_path / "cache"
        TaskCache(root).store("ab" * 32, {"value": 1})
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        output = capsys.readouterr().out
        assert "task results  : 1 entries" in output
        assert "result store  : 0 runs" in output
        assert str(root) in output

    def test_clear_removes_everything(self, tmp_path, capsys):
        from repro.runtime import TaskCache

        root = tmp_path / "cache"
        TaskCache(root).store("ab" * 32, {"value": 1})
        TaskCache(root).store("cd" * 32, {"value": 2})
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "removed 2 cache entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        assert "total         : 0 entries" in capsys.readouterr().out


class TestSubmitCommand:
    @pytest.fixture
    def live_port(self, tmp_path):
        import threading

        from repro.service import JobService, serve

        service = JobService(cache_dir=tmp_path / "cache", parallel=False)
        server = serve("127.0.0.1", 0, service)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        service.start()
        yield server.port
        server.shutdown()
        server.server_close()
        service.stop()

    def test_submit_experiment_waits_and_prints_result(self, live_port, capsys):
        argv = ["submit", "experiment", "warp", "--port", str(live_port)]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "submitted: experiment warp" in output
        assert "done in" in output
        assert "cell_not_io_starved" in output

    def test_submit_writes_json(self, live_port, tmp_path, capsys):
        out = tmp_path / "result.json"
        argv = [
            "submit", "experiment", "figure2",
            "--port", str(live_port), "--json", str(out),
        ]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["summary"]["correct"] is True

    def test_submit_no_wait_returns_immediately(self, live_port, capsys):
        argv = [
            "submit", "sweep", "fft", "--port", str(live_port), "--no-wait",
            "--params", '{"memory_sizes": [4, 8], "scale": 8}',
        ]
        assert main(argv) == 0
        output = capsys.readouterr().out
        assert "submitted: sweep fft" in output and "done in" not in output

    def test_submit_fills_sweep_defaults(self, live_port, capsys):
        argv = ["submit", "sweep", "fft", "--port", str(live_port), "--no-wait"]
        assert main(argv) == 0
        assert "submitted: sweep fft" in capsys.readouterr().out

    def test_bad_params_json_is_a_usage_error(self, capsys):
        argv = ["submit", "suite", "quick", "--params", "not-json"]
        assert main(argv) == 2
        assert "JSON" in capsys.readouterr().err

    def test_unreachable_service_is_an_error(self, capsys):
        argv = ["submit", "suite", "quick", "--port", "1", "--no-wait"]
        assert main(argv) == 2
        assert "cannot reach" in capsys.readouterr().err
