"""Smoke tests for the top-level public API (`import repro`)."""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_core_types_exposed(self):
        assert repro.DynamicSkipGraph is not None
        assert repro.DSGConfig is not None
        assert repro.SkipGraph is not None
        assert repro.BalancedSkipList is not None

    def test_workload_registry_exposed(self):
        assert "uniform" in repro.WORKLOADS
        assert "hot-pairs" in repro.WORKLOADS

    def test_experiment_registry_exposed(self):
        assert set(repro.EXPERIMENTS) == {f"E{i}" for i in range(1, 13)}

    def test_quickstart_docstring_flow(self):
        dsg = repro.DynamicSkipGraph(keys=range(1, 17), config=repro.DSGConfig(seed=1))
        dsg.request(3, 12)
        assert dsg.request(3, 12).routing_cost == 0

    def test_module_docstring_mentions_paper(self):
        assert "Self-Adjusting Skip Graphs" in repro.__doc__


class TestDistributedExports:
    """One distributed driver: a re-introduced fork fails tier-1 here."""

    EXPORTS = {
        "AMFProtocolResult", "AdmissionRecord", "BroadcastResult", "ConflictSet", "DSGProcess",
        "DistributedDSG", "DistributedDSGReport", "DistributedRequestOutcome",
        "FailureArenaReport", "FailureWaveReport", "NeighborTable", "PipelineWindow",
        "PipelinedDSG", "RouteLedger", "RoutingProtocolResult",
        "SumProtocolResult", "Wave", "apply_crash", "apply_join", "apply_local_op",
        "apply_network_delta", "apply_recovery", "install_amf", "install_broadcast",
        "install_routing", "install_sum", "make_router", "networks_equal", "patch_network",
        "rejoin_crash_links", "repair_crash_links", "repair_crashes", "replay_scenario",
        "run_amf_protocol", "run_failure_arena", "run_list_broadcast",
        "run_routing_protocol", "run_sum_protocol", "segment_network", "segment_waves",
        "skip_graph_network", "trace_route",
    }  # fmt: skip

    def test_export_list_is_the_post_merge_one(self):
        import repro.distributed as distributed

        assert set(distributed.__all__) == self.EXPORTS
        assert len(distributed.__all__) == len(self.EXPORTS)
        for name in distributed.__all__:
            assert hasattr(distributed, name), name

    def test_the_pipelined_driver_is_the_driver(self):
        import repro.distributed as distributed
        from repro.distributed import dsg_protocol

        assert distributed.PipelinedDSG is distributed.DistributedDSG
        assert dsg_protocol.PipelinedDSG is dsg_protocol.DistributedDSG
        for gone in ("PipelinedDSGProcess", "PipelinedDSGReport", "run_pipelined_dsg"):
            assert not hasattr(distributed, gone) and not hasattr(dsg_protocol, gone), gone
        # No option added: the union of the two former signatures.
        assert list(inspect.signature(distributed.DistributedDSG).parameters) == [
            "keys", "config", "seed", "max_rounds", "strict", "window",
        ]  # fmt: skip
        assert inspect.signature(distributed.DistributedDSG).parameters["window"].default == 1


class TestWorkloadsLayering:
    """The simulator bridge lives beside the link writer in ``repro.distributed``;
    ``repro.workloads`` is schedules only and imports nothing from above it."""

    FORBIDDEN_MODULES = ("repro.distributed", "repro.core.local_ops")
    FORBIDDEN_NAMES = {"Simulator", "NodeProcess"}

    def test_workloads_import_nothing_from_the_message_passing_side(self):
        offenders = []
        for path in sorted((PACKAGE_ROOT / "workloads").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    modules, names = [alias.name for alias in node.names], []
                elif isinstance(node, ast.ImportFrom):
                    modules, names = [node.module or ""], [alias.name for alias in node.names]
                else:
                    continue
                modules += [f"{module}.{name}" for module in modules for name in names]
                if any(module.startswith(self.FORBIDDEN_MODULES) for module in modules) or (
                    self.FORBIDDEN_NAMES & set(names)
                ):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []

    def test_the_bridge_left_no_re_export_behind(self):
        import repro.workloads as workloads
        from repro.workloads import scenarios

        for gone in (
            "replay_scenario", "apply_join", "apply_leave", "apply_crash", "apply_recovery",
            "repair_crashes", "ScenarioReplay",
        ):  # fmt: skip
            assert gone not in workloads.__all__ and not hasattr(workloads, gone), gone
            assert not hasattr(scenarios, gone), gone

    def test_patch_network_grew_no_redundancy_parameter(self):
        from repro.distributed import patch_network

        assert list(inspect.signature(patch_network).parameters) == ["network", "graph", "op"]


class TestCentralFrontEnd:
    """One way to serve a request stream: a re-introduced fork fails tier-1 here."""

    def test_dsg_config_is_five_fields(self):
        assert [f.name for f in dataclasses.fields(repro.DSGConfig)] == [
            "a", "seed", "use_exact_median", "maintain_a_balance", "track_working_set",
        ]  # fmt: skip

    def test_no_batch_serving_entry_points(self):
        for gone in ("run_requests", "_serve"):
            assert not hasattr(repro.DynamicSkipGraph, gone), gone
        assert not hasattr(repro.ServingAlgorithm, "request_batch")
        assert not hasattr(repro.CostLedger, "record_batch")

    def test_export_lists_have_no_second_runner(self):
        import repro.baselines as baselines

        assert set(baselines.__all__) == {
            "DSGAdapter", "DirectLinkOracle", "OfflineStaticBaseline", "ServingAlgorithm",
            "SplayNetBaseline", "StaticSkipGraphBaseline", "make_comparison_algorithms",
        }  # fmt: skip
        for gone in ("BatchServeOutcome", "play_scenario"):
            assert gone not in repro.__all__ and not hasattr(repro, gone), gone
            assert not hasattr(baselines, gone), gone

    def test_run_scenario_signature_is_unchanged(self):
        assert list(inspect.signature(repro.run_scenario).parameters) == [
            "scenario", "config", "keep_costs", "algorithm",
        ]  # fmt: skip


class TestKernelSurface:
    """Kernel state has one owner each (dirty marks: the ``SkipGraph``; apply
    time: the ``OpRecorder``; a transformation's invariants: one object), so
    nothing threads it through a signature: a re-grown parameter fails here."""

    def test_nothing_threads_a_tracker_or_a_timer(self):
        from repro.core.local_ops import OpRecorder, apply_op

        assert list(inspect.signature(apply_op).parameters) == ["graph", "op"]
        assert list(inspect.signature(OpRecorder.__init__).parameters) == ["self", "graph", "ops"]
        assert inspect.signature(OpRecorder.__init__).parameters["ops"].default is None
        for name in ("promote_run", "demote_run", "remove_run", "insert_run"):
            assert "tracker" not in inspect.signature(getattr(repro.SkipGraph, name)).parameters, name
        assert repro.SkipGraph().tracker is None

    def test_transform_keeps_its_signature_and_drops_its_unread_outputs(self):
        import repro.core.transformation as transformation

        assert list(inspect.signature(transformation.transform).parameters) == [
            "graph", "states", "members", "priorities", "u", "v", "alpha", "t", "a", "rng",
            "use_exact_median", "maintain_a_balance", "recorder",
        ]  # fmt: skip
        fields = {f.name for f in dataclasses.fields(transformation.TransformationOutcome)}
        assert not fields & {"steps", "ops"}
        assert "SplitStep" not in transformation.__all__
        assert not hasattr(transformation, "SplitStep")


class TestRetiredSurface:
    """Surface nothing in ``src/``, ``benchmarks/`` or ``examples/`` used was
    deleted with its tests: re-adding it fails here."""

    def test_classic_skip_list_and_trace_io_are_gone(self):
        import repro.skiplist as skiplist
        import repro.workloads as workloads

        for module in (repro, skiplist):
            assert "SkipList" not in module.__all__ and not hasattr(module, "SkipList")
        for gone in ("save_trace", "load_trace"):
            assert gone not in workloads.__all__ and not hasattr(workloads, gone), gone
        assert not (PACKAGE_ROOT / "skiplist" / "skiplist.py").exists()
        assert not (PACKAGE_ROOT / "workloads" / "traces.py").exists()

    def test_adversarial_static_workload_is_gone(self):
        import repro.workloads as workloads
        from repro.workloads import sequences

        assert "adversarial-static" not in workloads.WORKLOADS
        for module in (workloads, sequences):
            assert "adversarial_for_static" not in module.__all__
            assert not hasattr(module, "adversarial_for_static")

    def test_one_cost_ledger(self):
        import repro.analysis as analysis
        import repro.baselines as baselines
        from repro.baselines.adapter import ServingAlgorithm
        from repro.distributed import DistributedDSG

        for gone in ("CostSummary", "summarize_dsg_run", "summarize_baseline_run"):
            assert gone not in repro.__all__ and not hasattr(repro, gone), gone
            assert gone not in analysis.__all__ and not hasattr(analysis, gone), gone
        assert not hasattr(baselines, "BaselineRun")
        assert not (PACKAGE_ROOT / "analysis" / "costs.py").exists()
        assert not (PACKAGE_ROOT / "baselines" / "base.py").exists()
        for gone in ("requests_served", "average_cost", "total_routing_cost"):
            assert not hasattr(repro.DynamicSkipGraph, gone), gone
        assert not hasattr(ServingAlgorithm, "average_cost")
        driver = DistributedDSG(range(1, 9))
        assert not hasattr(driver, "total_cost") and not hasattr(driver, "total_routing")
        assert isinstance(driver.costs, repro.CostLedger)

    def test_one_artifact_row_schema(self):
        import repro.analysis as analysis
        from repro.analysis import artifacts

        for gone in ("AlgorithmResult", "ProtocolResult", "FailureResult", "PipelineResult",
                     "PlanSizeStats"):
            assert gone not in analysis.__all__ and not hasattr(analysis, gone), gone
            assert not hasattr(artifacts, gone), gone
        artifact = artifacts.BenchmarkArtifact(benchmark="b")
        for gone in ("algorithm", "protocol", "failure", "pipeline", "working_set_bound"):
            assert not hasattr(artifact, gone), gone

    def test_one_start_path_and_four_engine_options(self):
        from repro.simulation import RoundContext, Simulator, SimulatorConfig

        assert [f.name for f in dataclasses.fields(SimulatorConfig)] == [
            "max_rounds", "strict", "max_message_bits", "seed",
        ]  # fmt: skip
        for gone in ("_start_processes", "_start_pending_processes"):
            assert not hasattr(Simulator, gone), gone
        assert not hasattr(RoundContext, "report_memory")
        assert "report_memory_fn" not in inspect.signature(RoundContext).parameters

    def test_drivers_keep_only_the_options_callers_set(self):
        import repro.distributed as distributed
        from repro.distributed import bridge, dsg_protocol, failover
        from repro.workloads.scenarios import replay_population

        assert list(inspect.signature(bridge.replay_scenario).parameters) == [
            "sim", "scenario", "process_factory", "graph",
        ]  # fmt: skip
        # The replay's counts are the scenario's own (``Scenario.join_count``).
        assert not hasattr(bridge, "ScenarioReplay")
        assert list(inspect.signature(replay_population).parameters) == [
            "scenario", "runner", "alive", "down",
        ]  # fmt: skip
        assert list(inspect.signature(failover.run_failure_arena).parameters) == [
            "scenario", "k", "seed", "graph",
        ]  # fmt: skip
        constants = (failover.STAGGER, failover.MAX_ROUNDS, failover.MAX_RETRIES, failover.RETRY_BACKOFF)
        assert constants == (32, 1_000_000, 2, 4)
        assert "k" not in inspect.signature(dsg_protocol.DSGProcess).parameters
        assert "run_distributed_dsg" not in distributed.__all__
        for module in (distributed, dsg_protocol):
            assert not hasattr(module, "run_distributed_dsg")


#: The only third-party import in ``src/repro`` and the only place it may
#: appear — inside a function of the offline-static baseline (the
#: ``baselines`` extra of ``pyproject.toml``), never at module level.
FUNCTION_LEVEL_IMPORTS = {("baselines/offline_static.py", "networkx")}


class TestDeclaredImportsOnly:
    """``import repro`` is stdlib-only: every module-level import in
    ``src/repro`` is the standard library or ``repro`` itself."""

    def test_every_import_is_stdlib_repro_or_declared(self):
        allowed = set(sys.stdlib_module_names) | {"repro"}
        foreign = []
        for path in sorted(PACKAGE_ROOT.rglob("*.py")):
            relative = path.relative_to(PACKAGE_ROOT).as_posix()
            tree = ast.parse(path.read_text(), filename=str(path))
            inside_function = {
                id(node)
                for function in ast.walk(tree)
                if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(function)
            }
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    root = name.split(".")[0]
                    lazy = id(node) in inside_function and (relative, root) in FUNCTION_LEVEL_IMPORTS
                    if root not in allowed and not lazy:
                        foreign.append(f"{relative}:{node.lineno} imports {name}")
        assert foreign == []

    @staticmethod
    def _import_repro_without(module):
        # A fresh interpreter: this process has long since imported repro.
        script = f"import sys; sys.modules[{module!r}] = None; import repro"
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)},
        )

    def test_import_succeeds_without_numpy(self):
        self._import_repro_without("numpy")

    def test_import_succeeds_without_networkx(self):
        self._import_repro_without("networkx")
