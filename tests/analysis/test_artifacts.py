"""Tests for the benchmark artifact pipeline (analysis.artifacts + CLI)."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.artifacts import (
    SCHEMA_VERSION,
    BenchmarkArtifact,
    load_artifact,
    load_artifacts,
    plan_size_fields,
    render_comparison,
    write_artifact,
)
from repro.core.costs import CostLedger, RequestCost
from repro.experiments.cli import main
from repro.simulation import MetricsCollector

REPO_ROOT = Path(__file__).resolve().parents[2]


def sample_artifact():
    return BenchmarkArtifact(
        benchmark="e09_comparison",
        config={"n": 256, "length": 2000, "seed": 42, "working_set_bound": 2400.0},
        wall_seconds=12.5,
        rows=[
            {"kind": "algorithm", "name": "static-random", "requests": 2000,
             "average_cost": 7.4, "ws_bound_ratio": 5.33, "final_height": 19},
            {"kind": "algorithm", "name": "dsg", "requests": 2000,
             "average_cost": 29.3, "ws_bound_ratio": 0.25, "final_height": 11,
             "plan_s": 6.0, "phase_share": 0.95},
            {"kind": "plan-size", "name": "scale-mix", **plan_size_fields({0: 3, 2: 1})},
            {"kind": "algorithm", "name": "oracle", "requests": 2000,
             "average_cost": 1.0, "ws_bound_ratio": None, "final_height": 1},
        ],
        checks={"dsg_routing_beats_static_on_scale_mix": True},
    )


def bench_conftest():
    """``benchmarks/conftest.py``, imported by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestArtifactRoundTrip:
    def test_write_then_load(self, tmp_path):
        artifact = sample_artifact()
        path = write_artifact(artifact, tmp_path)
        assert path.name == "BENCH_e09_comparison.json"
        loaded = load_artifact(path)
        assert loaded == artifact
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.all_checks_passed

    def test_defaults_round_trip(self, tmp_path):
        artifact = BenchmarkArtifact(benchmark="bare")
        assert load_artifact(write_artifact(artifact, tmp_path)) == artifact

    def test_row_keys_keep_their_order(self, tmp_path):
        loaded = load_artifact(write_artifact(sample_artifact(), tmp_path))
        assert list(loaded.rows[1]) == [
            "kind", "name", "requests", "average_cost", "ws_bound_ratio", "final_height",
            "plan_s", "phase_share",
        ]

    def test_non_json_value_raises_at_write(self, tmp_path):
        artifact = BenchmarkArtifact(benchmark="b", config={"x": {1, 2}})
        with pytest.raises(TypeError):
            write_artifact(artifact, tmp_path)
        assert not (tmp_path / "BENCH_b.json").exists()

    def test_filename_is_sanitised(self, tmp_path):
        artifact = BenchmarkArtifact(benchmark="weird name/with:chars")
        path = write_artifact(artifact, tmp_path)
        assert path.name == "BENCH_weird_name_with_chars.json"

    def test_load_artifacts_sorted(self, tmp_path):
        write_artifact(BenchmarkArtifact(benchmark="zeta"), tmp_path)
        write_artifact(BenchmarkArtifact(benchmark="alpha"), tmp_path)
        names = [artifact.benchmark for artifact in load_artifacts(tmp_path)]
        assert names == ["alpha", "zeta"]

    @pytest.mark.parametrize("version", [999, SCHEMA_VERSION - 1, None])
    def test_any_other_schema_version_is_rejected(self, tmp_path, version):
        path = write_artifact(sample_artifact(), tmp_path)
        data = json.loads(path.read_text())
        data["schema_version"] = version
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"re-run benchmark '{data['benchmark']}'"):
            load_artifact(path)

    def test_every_committed_artifact_is_at_the_current_schema(self):
        committed = sorted(REPO_ROOT.glob("BENCH_*.json"))
        assert committed
        for path in committed:
            artifact = load_artifact(path)
            assert artifact.schema_version == SCHEMA_VERSION
            assert all("kind" in row and "name" in row for row in artifact.rows)

    def test_every_committed_artifact_passes_its_checks(self):
        for path in sorted(REPO_ROOT.glob("BENCH_*.json")):
            artifact = load_artifact(path)
            assert artifact.checks and artifact.all_checks_passed, path.name


class TestPublishArtifact:
    """``benchmarks/conftest.py::publish_artifact``: only full-size runs are
    mirrored over the committed ``BENCH_*.json`` at the repository root."""

    @pytest.mark.parametrize("quick, mirrored", [("1", False), ("0", True)])
    def test_quick_runs_do_not_touch_the_root_mirrors(self, tmp_path, monkeypatch, quick, mirrored):
        conftest = bench_conftest()
        copies = []
        monkeypatch.setattr(conftest.shutil, "copy2", lambda src, dst: copies.append(dst))
        monkeypatch.setenv("BENCH_QUICK", quick)
        monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))

        path = conftest.publish_artifact(sample_artifact())
        assert path == tmp_path / "BENCH_e09_comparison.json" and path.exists()
        assert copies == ([REPO_ROOT / "BENCH_e09_comparison.json"] if mirrored else [])


def scenario_report(routing, adjustment, elapsed, requests=4):
    costs = CostLedger(name="dsg", keep_costs=False)
    for index in range(requests):
        costs.record(RequestCost(source=0, destination=1,
                                 routing=routing[index], adjustment=adjustment[index]))
    return SimpleNamespace(costs=costs, elapsed_seconds=elapsed, final_height=5,
                           joins=2, leaves=1,
                           requests_per_second=requests / elapsed if elapsed else 0.0)


class TestSharedBenchRows:
    """The row builders ``benchmarks/conftest.py`` shares between benches."""

    def test_ledger_row_averages_throughput_and_phases(self):
        report = scenario_report([1, 2, 3, 6], [10, 0, 0, 10], elapsed=2.0)
        row = bench_conftest().ledger_row(
            "scale-mix", report, working_set_bound=24.0, phases={"route": 0.5, "plan": 1.0}
        )
        assert row["kind"] == "algorithm" and row["name"] == "scale-mix"
        assert (row["total_routing"], row["total_adjustment"], row["total_cost"]) == (12, 20, 36)
        assert row["average_routing"] == 3.0 and row["average_adjustment"] == 5.0
        assert row["average_cost"] == 9.0
        assert row["requests_per_s"] == 2.0
        assert row["ws_bound_ratio"] == 0.5
        assert (row["route_s"], row["plan_s"], row["phase_share"]) == (0.5, 1.0, 0.75)

    def test_ledger_row_of_an_empty_run_is_safe(self):
        report = scenario_report([], [], elapsed=0.0, requests=0)
        row = bench_conftest().ledger_row("idle", report, working_set_bound=0.0, phases={})
        assert row["average_cost"] == 0.0 and row["requests_per_s"] == 0.0
        assert row["ws_bound_ratio"] is None
        assert "phase_share" not in row

    def test_protocol_row_reads_results_and_counter_dicts_alike(self):
        conftest = bench_conftest()
        metrics = MetricsCollector(rounds=205, messages=89, total_bits=23000, max_message_bits=264,
                                   congestion_violations=0, dropped_messages=1)
        from_dict = conftest.protocol_row("routing", 4096, 3072, metrics.summary(), joins=103, leaves=102)
        from_result = conftest.protocol_row("routing", 4096, 3072, metrics, joins=103, leaves=102)
        assert from_dict == from_result
        assert from_dict["total_bits"] == 23000 and from_dict["budget_bits"] == 3072


class TestPlanSizeFields:
    @pytest.mark.parametrize("histogram, expected", [
        ({0: 60, 4: 30, 18: 9, 5000: 1},
         dict(requests=100, mean_ops=(4 * 30 + 18 * 9 + 5000) / 100, p50_ops=0, p90_ops=4,
              p99_ops=18, max_ops=5000, empty_fraction=0.6)),
        ({0: 5, 4: 5},
         dict(requests=10, mean_ops=2.0, p50_ops=0, p90_ops=4, p99_ops=4, max_ops=4,
              empty_fraction=0.5)),
        ({4: 5936},
         dict(requests=5936, mean_ops=4.0, p50_ops=4, p90_ops=4, p99_ops=4, max_ops=4,
              empty_fraction=0.0)),
        ({},
         dict(requests=0, mean_ops=0.0, p50_ops=0, p90_ops=0, p99_ops=0, max_ops=0,
              empty_fraction=0.0)),
    ], ids=["skewed", "two-buckets", "one-bucket", "empty"])
    def test_percentiles(self, histogram, expected):
        assert plan_size_fields(histogram) == expected


class TestRenderComparison:
    def test_report_structure(self):
        report = render_comparison([sample_artifact()])
        assert report.startswith("# Benchmark comparison")
        assert "## e09_comparison" in report
        assert "working_set_bound=2400.0" in report
        assert "[PASS] dsg_routing_beats_static_on_scale_mix" in report

    def test_one_table_per_kind_in_first_seen_order(self):
        report = render_comparison([sample_artifact()])
        assert report.count("| algorithm |") == 1 and report.count("| plan-size |") == 1
        assert report.index("| algorithm |") < report.index("| plan-size |")
        # The later ``algorithm`` row joins the first table, in the bench's order.
        assert report.index("| static-random |") < report.index("| dsg |")
        assert report.index("| dsg |") < report.index("| oracle |") < report.index("| plan-size |")

    def test_columns_in_first_seen_key_order_and_cells(self):
        lines = render_comparison([sample_artifact()]).splitlines()
        assert (
            "| algorithm | requests | average_cost | ws_bound_ratio | final_height "
            "| plan_s | phase_share |" in lines
        )
        # Floats print three decimals; a missing column and ``None`` print ``-``.
        assert "| static-random | 2000 | 7.400 | 5.330 | 19 | - | - |" in lines
        assert "| dsg | 2000 | 29.300 | 0.250 | 11 | 6.000 | 0.950 |" in lines
        assert "| oracle | 2000 | 1.000 | - | 1 | - | - |" in lines
        assert "| scale-mix | 4 | 0.500 | 0 | 2 | 2 | 2 | 0.750 |" in lines

    def test_booleans_render_as_yes_no(self):
        artifact = BenchmarkArtifact(benchmark="b", rows=[
            {"kind": "pipeline", "name": "window-8", "matches_sequential": True},
            {"kind": "pipeline", "name": "window-16", "matches_sequential": False},
        ])
        report = render_comparison([artifact])
        assert "| window-8 | yes |" in report and "| window-16 | no |" in report

    def test_empty_directory_renders_placeholder(self):
        assert "No BENCH_*.json artifacts" in render_comparison([])

    def test_failed_check_rendered(self):
        artifact = BenchmarkArtifact(benchmark="b", checks={"broken": False})
        assert "[FAIL] broken" in render_comparison([artifact])
        assert not artifact.all_checks_passed


class TestCompareCLI:
    def test_compare_prints_and_writes(self, tmp_path, capsys):
        write_artifact(sample_artifact(), tmp_path)
        output = tmp_path / "report.md"
        assert main(["compare", str(tmp_path), "--output", str(output)]) == 0
        printed = capsys.readouterr().out
        assert "## e09_comparison" in printed
        assert output.read_text() == render_comparison([sample_artifact()])

    def test_compare_renders_the_committed_artifacts(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        assert main(["compare", str(REPO_ROOT), "--output", str(output)]) == 0
        report = output.read_text()
        for path in REPO_ROOT.glob("BENCH_*.json"):
            assert f"## {path.stem[len('BENCH_'):]}" in report
        assert "[FAIL]" not in report

    def test_compare_missing_directory_fails(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "missing")]) == 1

    def test_compare_stale_artifact_fails_cleanly(self, tmp_path, capsys):
        path = write_artifact(sample_artifact(), tmp_path)
        data = json.loads(path.read_text())
        data["schema_version"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(data))
        assert main(["compare", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "re-run benchmark 'e09_comparison'" in captured.err
        assert captured.out == ""

    def test_run_artifact_dir_writes_experiment_artifact(self, tmp_path, capsys):
        assert main(["run", "E4", "--artifact-dir", str(tmp_path)]) == 0
        artifact = load_artifact(tmp_path / "BENCH_E4.json")
        assert artifact.benchmark == "E4"
        assert artifact.all_checks_passed
        assert artifact.config.get("quick") is False
