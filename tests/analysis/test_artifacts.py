"""Tests for the benchmark artifact pipeline (analysis.artifacts + CLI)."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.analysis.artifacts import (
    SCHEMA_VERSION,
    AlgorithmResult,
    BenchmarkArtifact,
    PipelineResult,
    PlanSizeStats,
    ProtocolResult,
    load_artifact,
    load_artifacts,
    render_comparison,
    write_artifact,
)
from repro.experiments.cli import main


def sample_artifact():
    return BenchmarkArtifact(
        benchmark="e09_comparison",
        config={"n": 256, "length": 2000, "seed": 42},
        wall_seconds=12.5,
        working_set_bound=2400.0,
        algorithms=[
            AlgorithmResult(
                name="dsg",
                requests=2000,
                total_routing=600,
                total_adjustment=56000,
                total_cost=58600,
                wall_seconds=10.0,
                ws_bound_ratio=0.25,
                final_height=11,
                joins=4,
                leaves=2,
            ),
            AlgorithmResult(
                name="static-random",
                requests=2000,
                total_routing=12800,
                total_adjustment=0,
                total_cost=14800,
                wall_seconds=0.5,
                ws_bound_ratio=5.33,
                final_height=19,
            ),
        ],
        checks={"dsg_routing_beats_static_on_scale_mix": True},
    )


class TestArtifactRoundTrip:
    def test_write_then_load(self, tmp_path):
        artifact = sample_artifact()
        path = write_artifact(artifact, tmp_path)
        assert path.name == "BENCH_e09_comparison.json"
        loaded = load_artifact(path)
        assert loaded == artifact
        assert loaded.algorithm("dsg").average_cost == pytest.approx(29.3)
        assert loaded.all_checks_passed

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
        root = Path(__file__).resolve().parents[2]
        committed = sorted(root.glob("BENCH_*.json"))
        assert committed
        for path in committed:
            assert load_artifact(path).schema_version == SCHEMA_VERSION

    def test_unknown_algorithm_lookup(self):
        with pytest.raises(KeyError):
            sample_artifact().algorithm("nope")


class TestPublishArtifact:
    """``benchmarks/conftest.py::publish_artifact``: only full-size runs are
    mirrored over the committed ``BENCH_*.json`` at the repository root."""

    @pytest.mark.parametrize("quick, mirrored", [("1", False), ("0", True)])
    def test_quick_runs_do_not_touch_the_root_mirrors(self, tmp_path, monkeypatch, quick, mirrored):
        repo_root = Path(__file__).resolve().parents[2]
        spec = importlib.util.spec_from_file_location(
            "bench_conftest", repo_root / "benchmarks" / "conftest.py"
        )
        bench_conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_conftest)
        copies = []
        monkeypatch.setattr(bench_conftest.shutil, "copy2", lambda src, dst: copies.append(dst))
        monkeypatch.setenv("BENCH_QUICK", quick)
        monkeypatch.setenv("BENCH_ARTIFACT_DIR", str(tmp_path))

        path = bench_conftest.publish_artifact(sample_artifact())
        assert path == tmp_path / "BENCH_e09_comparison.json" and path.exists()
        assert copies == ([repo_root / "BENCH_e09_comparison.json"] if mirrored else [])


class TestAlgorithmResultDerived:
    def test_averages_and_throughput(self):
        result = sample_artifact().algorithm("static-random")
        assert result.average_routing == pytest.approx(6.4)
        assert result.average_cost == pytest.approx(7.4)
        assert result.requests_per_second == pytest.approx(4000.0)

    def test_empty_run_is_safe(self):
        result = AlgorithmResult(
            name="x", requests=0, total_routing=0, total_adjustment=0,
            total_cost=0, wall_seconds=0.0,
        )
        assert result.average_cost == 0.0
        assert result.requests_per_second == 0.0


class TestRenderComparison:
    def test_report_structure(self):
        report = render_comparison([sample_artifact()])
        assert report.startswith("# Benchmark comparison")
        assert "## e09_comparison" in report
        assert "working set bound WS(σ): 2400.0" in report
        assert "| dsg |" in report and "| static-random |" in report
        assert "[PASS] dsg_routing_beats_static_on_scale_mix" in report
        # Cheapest algorithm (static here) is listed before the pricier one.
        assert report.index("| static-random |") < report.index("| dsg |")

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
        assert output.read_text() == printed.rstrip("\n") + "\n" or output.exists()

    def test_compare_missing_directory_fails(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "missing")]) == 1

    def test_run_artifact_dir_writes_experiment_artifact(self, tmp_path, capsys):
        assert main(["run", "E4", "--artifact-dir", str(tmp_path)]) == 0
        artifact = load_artifact(tmp_path / "BENCH_E4.json")
        assert artifact.benchmark == "E4"
        assert artifact.all_checks_passed
        assert artifact.config.get("quick") is False


def protocol_artifact():
    return BenchmarkArtifact(
        benchmark="e11_congest",
        config={"n": 4096, "seed": 42},
        wall_seconds=3.1,
        protocols=[
            ProtocolResult(
                name="routing", n=4096, rounds=205, messages=89, total_bits=23000,
                max_message_bits=264, budget_bits=3072, congestion_violations=0,
                dropped_messages=1, joins=103, leaves=102, wall_seconds=1.2,
            ),
            ProtocolResult(
                name="amf", n=4096, rounds=139, messages=18914, total_bits=1_500_000,
                max_message_bits=136, budget_bits=3072, congestion_violations=0,
            ),
        ],
        checks={"zero_congestion_violations": True},
    )


class TestProtocolArtifacts:
    def test_round_trip_preserves_protocol_rows(self, tmp_path):
        path = write_artifact(protocol_artifact(), tmp_path)
        loaded = load_artifact(path)
        assert loaded.schema_version == SCHEMA_VERSION
        routing = loaded.protocol("routing")
        assert routing.rounds == 205
        assert routing.dropped_messages == 1
        assert routing.joins == 103 and routing.leaves == 102
        assert routing.conformant and routing.within_budget
        with pytest.raises(KeyError):
            loaded.protocol("missing")

    def test_render_includes_protocol_table(self):
        report = render_comparison([protocol_artifact()])
        assert "| protocol | n | rounds |" in report
        assert "| routing | 4096 | 205 |" in report
        assert "+103/-102" in report

    def test_nonconformant_protocol_flagged(self):
        row = ProtocolResult(
            name="bad", n=8, rounds=1, messages=1, total_bits=9999,
            max_message_bits=9999, budget_bits=96, congestion_violations=2,
        )
        assert not row.within_budget
        assert not row.conformant


class TestPlanSizeArtifacts:
    def test_from_histogram_percentiles(self):
        stats = PlanSizeStats.from_histogram("scale-mix", {0: 60, 4: 30, 18: 9, 5000: 1})
        assert stats.requests == 100
        assert stats.p50_ops == 0
        assert stats.p90_ops == 4
        assert stats.p99_ops == 18
        assert stats.max_ops == 5000
        assert stats.empty_fraction == 0.6
        assert stats.mean_ops == (4 * 30 + 18 * 9 + 5000) / 100

    def test_from_empty_histogram(self):
        stats = PlanSizeStats.from_histogram("idle", {})
        assert stats.requests == 0 and stats.max_ops == 0 and stats.empty_fraction == 0.0

    def test_round_trip_preserves_plan_size_rows(self, tmp_path):
        artifact = protocol_artifact()
        artifact.plan_sizes = [PlanSizeStats.from_histogram("churn", {0: 5, 4: 5})]
        path = write_artifact(artifact, tmp_path)
        loaded = load_artifact(path)
        assert len(loaded.plan_sizes) == 1
        row = loaded.plan_sizes[0]
        assert row.workload == "churn"
        assert row.requests == 10 and row.p90_ops == 4 and row.empty_fraction == 0.5

    def test_render_includes_plan_size_table(self):
        artifact = protocol_artifact()
        artifact.plan_sizes = [PlanSizeStats.from_histogram("scale-mix", {0: 3, 2: 1})]
        report = render_comparison([artifact])
        assert "| plan sizes (workload) | requests |" in report
        assert "| scale-mix | 4 |" in report
        assert "75.0%" in report


def pipeline_artifact():
    return BenchmarkArtifact(
        benchmark="e17_pipeline",
        config={"n": 4096, "seed": 42},
        wall_seconds=9.0,
        pipelines=[
            PipelineResult(
                name="sequential", n=4096, window=1, requests=200, rounds=3000,
                sequential_rounds=3000, max_in_flight=1, conflict_stalls=0,
                messages=52000, congestion_violations=0, total_cost=4100,
                wall_seconds=4.0,
            ),
            PipelineResult(
                name="window-8", n=4096, window=8, requests=200, rounds=1000,
                sequential_rounds=3000, max_in_flight=8, conflict_stalls=12,
                messages=52000, congestion_violations=0, dropped_messages=0,
                total_cost=4100, matches_sequential=True, wall_seconds=3.5,
            ),
        ],
        checks={"pipelined_matches_sequential": True},
    )


class TestPipelineArtifacts:
    def test_round_trip_preserves_pipeline_rows(self, tmp_path):
        path = write_artifact(pipeline_artifact(), tmp_path)
        loaded = load_artifact(path)
        assert loaded.schema_version == SCHEMA_VERSION
        row = loaded.pipeline("window-8")
        assert row.window == 8
        assert row.rounds == 1000 and row.sequential_rounds == 3000
        assert row.max_in_flight == 8 and row.conflict_stalls == 12
        assert row.matches_sequential
        with pytest.raises(KeyError):
            loaded.pipeline("missing")

    def test_speedup_and_rounds_per_request(self):
        row = pipeline_artifact().pipeline("window-8")
        assert row.speedup == pytest.approx(3.0)
        assert row.rounds_per_request == pytest.approx(5.0)
        empty = PipelineResult(
            name="idle", n=8, window=4, requests=0, rounds=0, sequential_rounds=0,
            max_in_flight=0, conflict_stalls=0, messages=0, congestion_violations=0,
        )
        assert empty.speedup == 0.0 and empty.rounds_per_request == 0.0

    def test_render_includes_pipeline_table(self):
        report = render_comparison([pipeline_artifact()])
        assert "| pipeline | n | window | requests | rounds |" in report
        assert "| window-8 | 4096 | 8 | 200 | 1000 | 5.0 | 3.00x | 8 | 12 | 0 | 0 | yes |" in report

    def test_divergent_row_flagged(self):
        artifact = pipeline_artifact()
        artifact.pipelines[1].matches_sequential = False
        assert "| NO |" in render_comparison([artifact])


def phased_artifact():
    artifact = sample_artifact()
    artifact.algorithms[0].phases = {
        "route": 0.4, "plan": 6.0, "apply": 2.1, "repair": 1.0,
    }
    return artifact


class TestPhaseArtifacts:
    def test_round_trip_preserves_phase_rows(self, tmp_path):
        path = write_artifact(phased_artifact(), tmp_path)
        loaded = load_artifact(path)
        assert loaded.schema_version == SCHEMA_VERSION
        assert loaded.algorithm("dsg").phases == {
            "route": 0.4, "plan": 6.0, "apply": 2.1, "repair": 1.0,
        }
        # Algorithms without instrumentation round-trip an empty mapping.
        assert loaded.algorithm("static-random").phases == {}

    def test_render_includes_phase_table(self):
        report = render_comparison([phased_artifact()])
        assert "| phase breakdown | route s | plan s | apply s | repair s | accounted |" in report
        assert "| dsg | 0.4 | 6.0 | 2.1 | 1.0 | 9.5 (95%) |" in report
        # The uninstrumented algorithm contributes no phase row.
        assert report.count("| static-random |") == 1

    def test_render_without_phases_omits_table(self):
        report = render_comparison([sample_artifact()])
        assert "phase breakdown" not in report
