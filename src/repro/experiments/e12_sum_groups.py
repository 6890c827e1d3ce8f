"""E12 — Appendix C/D: distributed sum and group-base / G_lower bookkeeping.

Validates the two auxiliary mechanisms the transformation relies on:

* the distributed sum over the balanced skip list is exact and its round
  count grows logarithmically (Appendix D);
* after long DSG runs, group-ids are consistent (every member of a pair's
  merged group shares the pair's group-id at the link level) and group-bases
  never exceed the level of the node's deepest non-trivial group
  (Appendix C bookkeeping).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.statistics import log2_fit_slope
from repro.analysis.tables import Table
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed import run_sum_protocol
from repro.experiments.base import ExperimentResult
from repro.simulation.rng import make_rng
from repro.skiplist import BalancedSkipList, distributed_sum
from repro.workloads import generate_workload

__all__ = ["run"]


def run(sizes: Sequence[int] = (64, 256, 1024), n: int = 48, length: int = 150,
        seed: Optional[int] = 8) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E12",
        title="Distributed sum (Appendix D) and group bookkeeping (Appendix C)",
        parameters={"sizes": tuple(sizes), "n": n, "length": length, "seed": seed},
    )

    # --- distributed sum ------------------------------------------------------
    table = Table(
        title="Distributed sum: correctness and rounds",
        columns=["n", "structural rounds", "protocol rounds", "exact"],
    )
    points = []
    exact_everywhere = True
    for size in sizes:
        items = list(range(1, size + 1))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(seed))
        values = {item: float(item) for item in items}
        structural = distributed_sum(skiplist, values)
        exact = structural.total == sum(values.values())
        protocol_rounds = None
        if size <= 512:
            protocol = run_sum_protocol(skiplist, values, seed=seed)
            protocol_rounds = protocol.metrics.rounds
            exact &= protocol.total == sum(values.values())
        exact_everywhere &= exact
        points.append((size, structural.rounds))
        table.add_row(size, structural.rounds, protocol_rounds, exact)
    result.tables.append(table)
    result.checks["distributed_sum_exact"] = exact_everywhere
    growth = points[-1][1] / max(points[0][1], 1e-9)
    result.checks["sum_rounds_sublinear"] = growth <= (sizes[-1] / sizes[0]) / 2
    result.checks["sum_rounds_log_like"] = log2_fit_slope(points) <= 60

    # --- group bookkeeping ----------------------------------------------------
    keys = list(range(1, n + 1))
    dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
    requests = generate_workload("temporal", keys, length, seed=seed, working_set_size=8)
    group_consistent = True
    for u, v in requests:
        request_result = dsg.request(u, v)
        level = request_result.d_prime
        state_u, state_v = dsg.state(u), dsg.state(v)
        group_consistent &= state_u.group_id(level) == state_v.group_id(level)
    bases_ok = all(
        0 <= state.group_base <= dsg.height() + 1 for state in dsg.states.values()
    )
    groups = Table(title="Group bookkeeping after the run", columns=["property", "value"])
    groups.add_row("pair group-ids consistent at link level", group_consistent)
    groups.add_row("group-bases within [0, height+1]", bases_ok)
    groups.add_row("height", dsg.height())
    result.tables.append(groups)
    result.checks["pair_group_ids_consistent"] = group_consistent
    result.checks["group_bases_within_range"] = bases_ok
    return result
