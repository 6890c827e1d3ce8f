"""E8 — Theorem 2: the working set property of DSG.

For workloads with temporal locality, every repeated request's routing
distance is compared against ``log2`` of its working set number.  Theorem 2
states ``d_{S_t}(u, v) = O(log T_t(u, v))``; the experiment reports the
distribution of the per-request ratio ``d / max(1, log2 T)`` and checks that
its 95th percentile stays below the constant allowed by the a-balance
parameter.  Every served pair must also be directly linked afterwards
(Section III's model).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.analysis.statistics import describe, percentile
from repro.analysis.tables import Table
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.experiments.base import ExperimentResult
from repro.workloads import generate_workload

__all__ = ["run"]


def run(n: int = 64, length: int = 250, a: int = 4, seed: Optional[int] = 4) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E8",
        title="Working set property (Theorem 2)",
        parameters={"n": n, "length": length, "a": a, "seed": seed},
    )
    keys = list(range(1, n + 1))
    table = Table(
        title="Routing distance vs log2(working set number), repeated pairs only",
        columns=["workload", "requests", "mean ratio", "p95 ratio", "max ratio", "within constant"],
    )
    all_ok = True
    linked = True
    # The constant allowed by the analysis is a * log_{3/2}(.)-ish; we use a
    # generous but fixed threshold so regressions are caught.
    threshold = 3.0 * a
    for name in ("temporal", "hot-pairs", "community"):
        requests = generate_workload(name, keys, length, seed=seed)
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed, a=a))
        ratios = []
        for u, v in requests:
            request_result = dsg.request(u, v)
            linked &= dsg.are_adjacent(u, v)
            t_number = request_result.working_set_number or n
            if t_number >= n:  # first contact: the theorem says nothing
                continue
            denominator = max(1.0, math.log2(t_number))
            ratios.append(request_result.routing_cost / denominator)
        stats = describe(ratios)
        p95 = percentile(ratios, 95) if ratios else 0.0
        ok = p95 <= threshold
        all_ok &= ok
        table.add_row(name, len(ratios), stats["mean"], p95, stats["max"], ok)
    result.tables.append(table)
    result.checks["theorem2_ratio_bounded"] = all_ok
    result.checks["served_pairs_directly_linked"] = linked
    return result
