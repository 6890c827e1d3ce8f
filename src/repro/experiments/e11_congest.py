"""E11 — CONGEST conformance and memory audit (Section III model).

Runs the message-level protocols (routing, list broadcast, distributed sum,
AMF) on growing instances and records:

* the maximum message size in bits versus a ``c * log2 n`` budget,
* per-link per-round congestion violations (must be zero) and drops,
* the DSG per-node state (:class:`~repro.core.state.DSGNodeState` words,
  after a temporal workload) versus ``3 * (height + 1) + 2``.

The memory audit covers DSG's own state only; the protocols' per-node
state is not measured here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.tables import Table
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed import (
    run_amf_protocol,
    run_list_broadcast,
    run_routing_protocol,
    run_sum_protocol,
)
from repro.experiments.base import ExperimentResult
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph
from repro.skiplist import BalancedSkipList
from repro.workloads import generate_workload

__all__ = ["run"]

_budget_bits = congest_budget_bits


def run(sizes: Sequence[int] = (32, 64, 128), a: int = 4, seed: Optional[int] = 7) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E11",
        title="CONGEST conformance and memory audit",
        parameters={"sizes": tuple(sizes), "a": a, "seed": seed},
    )
    table = Table(
        title="Message sizes, congestion and drops per protocol",
        columns=["protocol", "n", "max message bits", "budget bits", "congestion violations", "drops"],
    )
    all_ok = True
    no_drops = True
    for n in sizes:
        budget = _budget_bits(n)
        graph = build_balanced_skip_graph(range(1, n + 1))
        routing = run_routing_protocol(graph, 1, n, seed=seed)
        table.add_row("routing", n, routing.max_message_bits, budget,
                      routing.congestion_violations, routing.dropped_messages)
        all_ok &= routing.max_message_bits <= budget and routing.congestion_violations == 0
        no_drops &= routing.dropped_messages == 0

        broadcast = run_list_broadcast(list(range(1, n + 1)), initiator=1, seed=seed)
        table.add_row("broadcast", n, broadcast.max_message_bits, budget,
                      broadcast.congestion_violations, broadcast.dropped_messages)
        all_ok &= broadcast.max_message_bits <= budget and broadcast.congestion_violations == 0
        no_drops &= broadcast.dropped_messages == 0

        skiplist = BalancedSkipList(list(range(1, n + 1)), a=a, rng=make_rng(seed))
        sum_result = run_sum_protocol(skiplist, {i: 1.0 for i in range(1, n + 1)}, seed=seed)
        table.add_row("distributed sum", n, sum_result.max_message_bits, budget,
                      sum_result.congestion_violations, sum_result.dropped_messages)
        all_ok &= sum_result.max_message_bits <= budget and sum_result.congestion_violations == 0
        no_drops &= sum_result.dropped_messages == 0

        rng = make_rng(seed)
        values = {i: float(rng.random()) for i in range(1, n + 1)}
        amf = run_amf_protocol(values, a=a, seed=seed)
        table.add_row("AMF", n, amf.max_message_bits, budget,
                      amf.congestion_violations, amf.dropped_messages)
        all_ok &= amf.max_message_bits <= budget and amf.congestion_violations == 0
        no_drops &= amf.dropped_messages == 0
    result.tables.append(table)
    result.checks["all_messages_within_congest_budget"] = all_ok
    # Drops are counted separately from violations; on these churn-free
    # instances every message must arrive.
    result.checks["no_message_drops_without_churn"] = no_drops

    # DSG per-node memory audit.
    memory = Table(
        title="DSG per-node state (words) vs height",
        columns=["n", "height", "max words per node", "3*(height+1)+2"],
    )
    memory_ok = True
    for n in sizes:
        keys = list(range(1, n + 1))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed, a=a))
        dsg.run_sequence(generate_workload("temporal", keys, 60, seed=seed))
        words = max(dsg.memory_words_per_node().values())
        height = dsg.height()
        bound = 3 * (height + 1) + 2
        memory.add_row(n, height, words, bound)
        memory_ok &= words <= bound
    result.tables.append(memory)
    result.checks["node_memory_logarithmic"] = memory_ok
    return result
