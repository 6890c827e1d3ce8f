"""Smoke tests for the top-level public API (`import repro`)."""

import ast
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
        assert set(repro.EXPERIMENTS) == {f"E{i}" for i in range(1, 14)}

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
        "PipelinedDSG", "RouteLedger", "RoutingProtocolResult", "SumProtocolResult", "Wave",
        "apply_network_delta", "install_amf", "install_broadcast", "install_routing",
        "install_sum", "make_router", "networks_equal", "patch_network", "rejoin_crash_links",
        "repair_crash_links", "run_amf_protocol", "run_distributed_dsg", "run_failure_arena",
        "run_list_broadcast", "run_routing_protocol", "run_sum_protocol", "segment_network",
        "segment_waves", "skip_graph_network", "trace_route",
    }  # fmt: skip

    def test_export_list_is_the_post_merge_one(self):
        import repro.distributed as distributed

        assert set(distributed.__all__) == self.EXPORTS
        assert len(distributed.__all__) == len(self.EXPORTS)
        for name in distributed.__all__:
            assert hasattr(distributed, name), name

    def test_the_pipelined_driver_is_the_driver(self):
        import inspect

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


#: ``[project].dependencies`` of ``pyproject.toml`` (the offline-static
#: baseline's Kernighan-Lin bisection).
DECLARED_DEPENDENCIES = {"networkx"}


class TestDeclaredImportsOnly:
    """``src/repro`` may import the standard library, itself and what
    ``pyproject.toml`` declares — nothing a clean install would lack."""

    def test_every_import_is_stdlib_repro_or_declared(self):
        allowed = set(sys.stdlib_module_names) | {"repro"} | DECLARED_DEPENDENCIES
        foreign = []
        for path in sorted(PACKAGE_ROOT.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                foreign += [
                    f"{path.relative_to(PACKAGE_ROOT)}:{node.lineno} imports {name}"
                    for name in names
                    if name.split(".")[0] not in allowed
                ]
        assert foreign == []

    def test_import_succeeds_without_numpy(self):
        # A fresh interpreter: this process has long since imported repro.
        script = "import sys; sys.modules['numpy'] = None; import repro"
        subprocess.run(
            [sys.executable, "-c", script],
            check=True,
            env={**os.environ, "PYTHONPATH": str(PACKAGE_ROOT.parent)},
        )
