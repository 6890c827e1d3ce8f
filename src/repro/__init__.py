"""Locally Self-Adjusting Skip Graphs (DSG) — reproduction library.

Reproduction of "Locally Self-Adjusting Skip Graphs" (Huq & Ghosh, ICDCS
2017).  The package implements the full stack the paper depends on — a
synchronous CONGEST simulator, skip graphs with standard routing, balanced
skip lists, approximate median finding — plus the paper's contribution, the
self-adjusting DSG algorithm, along with baselines, workload generators and
the experiment harness that validates every figure, lemma and theorem.

Quickstart
----------
>>> from repro import DynamicSkipGraph, DSGConfig
>>> dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=1))
>>> first = dsg.request(3, 42)     # routed over the skip graph, then adjusted
>>> repeat = dsg.request(3, 42)    # now directly linked
>>> repeat.routing_cost
0

See ``examples/`` for runnable scenarios and ``dsg-experiments run all
--quick`` for the reproduction experiments.
"""

from repro.skipgraph import (
    MembershipVector,
    SkipGraph,
    SkipGraphNode,
    build_balanced_skip_graph,
    build_skip_graph,
    build_skip_graph_from_membership,
    route,
    tree_view,
)
from repro.skiplist import BalancedSkipList, distributed_sum
from repro.core import (
    AMFResult,
    CommunicationHistory,
    DSGConfig,
    DSGNodeState,
    DynamicSkipGraph,
    RequestResult,
    approximate_median,
    working_set_bound,
    working_set_number,
)
from repro.baselines import (
    DSGAdapter,
    DirectLinkOracle,
    OfflineStaticBaseline,
    ServingAlgorithm,
    SplayNetBaseline,
    StaticSkipGraphBaseline,
    make_comparison_algorithms,
)
from repro.workloads import WORKLOADS, generate_workload, run_scenario
from repro.analysis import (
    competitive_report,
    summarize_baseline_run,
    summarize_dsg_run,
)
from repro.experiments import EXPERIMENTS, run_experiment

__version__ = "1.0.0"

__all__ = [
    "AMFResult",
    "BalancedSkipList",
    "CommunicationHistory",
    "DSGAdapter",
    "DSGConfig",
    "DSGNodeState",
    "DirectLinkOracle",
    "DynamicSkipGraph",
    "EXPERIMENTS",
    "MembershipVector",
    "OfflineStaticBaseline",
    "RequestResult",
    "ServingAlgorithm",
    "SkipGraph",
    "SkipGraphNode",
    "SplayNetBaseline",
    "StaticSkipGraphBaseline",
    "WORKLOADS",
    "approximate_median",
    "build_balanced_skip_graph",
    "build_skip_graph",
    "build_skip_graph_from_membership",
    "competitive_report",
    "distributed_sum",
    "generate_workload",
    "make_comparison_algorithms",
    "route",
    "run_experiment",
    "run_scenario",
    "summarize_baseline_run",
    "summarize_dsg_run",
    "tree_view",
    "working_set_bound",
    "working_set_number",
    "__version__",
]
