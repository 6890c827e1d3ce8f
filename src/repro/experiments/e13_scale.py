"""E13 — scale and churn: the hot path at large n under live scenarios.

Not a reproduction of a specific paper artefact: E13 validates that the
*reproduction machinery itself* scales — that the optimised request path
(level-indexed routing caches, incremental working-set counters) computes
exactly what the reference implementations compute while serving workloads
orders of magnitude beyond the paper's evaluation sizes, including node
churn (Section IV-G) and drifting/flash traffic.  Every row is served by
the one scenario runner (:func:`~repro.workloads.scenarios.run_scenario`),
so the tables time the same per-request loop as every other harness.

Checks
------
``routing_fastpath_exact``
    The cached, early-exit :func:`~repro.skipgraph.routing.route` returns
    paths identical to the scan-based
    :func:`~repro.skipgraph.routing.route_reference` on the *adjusted* (mid-
    scenario) graph.
``working_set_incremental_exact``
    The incremental :class:`~repro.core.working_set.CommunicationHistory`
    matches the window-rescanning :func:`~repro.core.working_set
    .working_set_number` on the served prefix.
``churn_scenario_completes``
    A join/leave schedule executes to completion with the expected final
    population and the a-balance property maintained.
``throughput_positive``
    Every workload sustains a positive request rate (the recorded rates are
    reported in the tables).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.tables import Table
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.working_set import working_set_number
from repro.experiments.base import ExperimentResult
from repro.simulation.rng import make_rng
from repro.skipgraph.routing import route, route_reference
from repro.workloads import (
    churn_scenario,
    generate_workload,
    run_scenario,
    scale_scenario,
    workload_scenario,
)

__all__ = ["run"]


def _throughput_row(report) -> list:
    """One E13a table row from a :class:`~repro.workloads.scenarios.ScenarioReport`."""
    return [
        report.scenario,
        report.final_nodes,
        report.requests,
        round(report.elapsed_seconds, 2),
        int(report.requests_per_second),
        round(report.average_cost, 1),
        report.max_height,
        report.dummy_count,
    ]


def run(
    n: int = 1024,
    length: int = 4000,
    seed: int = 17,
    workloads: Sequence[str] = ("hot-pairs", "temporal", "flash-crowd", "zipf-drift"),
    zipf_n: int = 192,
    zipf_length: int = 800,
    consistency_n: int = 96,
    consistency_length: int = 300,
    scale_length: Optional[int] = None,
) -> ExperimentResult:
    """Run the scale/churn experiment.

    Parameters
    ----------
    n, length:
        Population and request count for the per-workload throughput runs.
    seed:
        Base seed (each sub-run derives its own).
    workloads:
        Workload generators to sweep.  ``zipf-drift`` is inherently
        transformation-heavy (popularity keeps migrating), so it runs at
        the reduced ``zipf_n`` / ``zipf_length`` shape.
    consistency_n, consistency_length:
        Shape of the fast-path / working-set consistency replica.
    scale_length:
        Length of the mixed scale scenario (hot pairs + far pairs + flash
        crowds + churn); defaults to ``length``.
    """
    checks = {}
    rows = []
    keys = list(range(1, n + 1))

    for name in workloads:
        if name == "zipf-drift":
            scenario = workload_scenario(name, list(range(1, zipf_n + 1)), zipf_length, seed=seed)
        else:
            scenario = workload_scenario(name, keys, length, seed=seed)
        rows.append(_throughput_row(run_scenario(scenario, DSGConfig(seed=seed))))

    # Mixed scale scenario with churn.
    scenario = scale_scenario(
        n=n,
        length=scale_length if scale_length is not None else length,
        seed=seed + 1,
        hot_pair_count=max(8, n // 64),
        cross_pair_count=2,
        flash_count=2,
        crowd_size=8,
        churn_rate=0.001,
    )
    rows.append(_throughput_row(run_scenario(scenario, DSGConfig(seed=seed + 2))))
    checks["throughput_positive"] = all(row[4] > 0 for row in rows)

    # Churn schedule: population accounting and a-balance maintenance.
    churn = churn_scenario(
        n=max(64, n // 8),
        length=max(400, length // 8),
        seed=seed + 3,
        base="temporal",
        churn_rate=0.02,
    )
    churn_report = run_scenario(churn, DSGConfig(seed=seed + 4))
    checks["churn_scenario_completes"] = (
        churn_report.final_nodes
        == churn_report.initial_nodes + churn_report.joins - churn_report.leaves
        and churn_report.requests == churn.request_count
    )
    churn_rows = [
        [
            churn.name,
            churn_report.initial_nodes,
            churn_report.final_nodes,
            churn_report.joins,
            churn_report.leaves,
            int(churn_report.requests_per_second),
            round(churn_report.average_cost, 1),
        ]
    ]

    # Consistency replica: fast path vs reference, incremental working set
    # vs window rescan.
    rng = make_rng(seed + 5)
    replica_keys = list(range(1, consistency_n + 1))
    replica_requests = generate_workload(
        "temporal", replica_keys, consistency_length, seed=seed + 6, working_set_size=8
    )
    sequential = DynamicSkipGraph(keys=replica_keys, config=DSGConfig(seed=seed + 7))
    sequential.run_sequence(replica_requests)

    fastpath_ok = True
    for _ in range(200):
        u, v = rng.sample(replica_keys, 2)
        fast = route(sequential.graph, u, v)
        reference = route_reference(sequential.graph, u, v)
        if fast.path != reference.path or fast.hop_levels != reference.hop_levels:
            fastpath_ok = False
            break
    checks["routing_fastpath_exact"] = fastpath_ok

    served = sequential.history.requests
    numbers = [r.working_set_number for r in sequential.results]
    sample = range(0, len(served), max(1, len(served) // 64))
    checks["working_set_incremental_exact"] = all(
        numbers[i] == working_set_number(served, i, sequential.history.total_nodes)
        for i in sample
    )

    tables = [
        Table(
            title="E13a: throughput by workload (adjusting DSG)",
            columns=[
                "workload",
                "n",
                "requests",
                "seconds",
                "req/s",
                "avg cost (Eq. 1)",
                "max height",
                "dummies",
            ],
            rows=rows,
        ),
        Table(
            title="E13b: churn schedule accounting",
            columns=["scenario", "n0", "n_final", "joins", "leaves", "req/s", "avg cost"],
            rows=churn_rows,
        ),
    ]
    return ExperimentResult(
        experiment_id="E13",
        title="Scale and churn: hot path at large n",
        tables=tables,
        checks=checks,
        parameters={
            "n": n,
            "length": length,
            "seed": seed,
            "workloads": tuple(workloads),
            "consistency_n": consistency_n,
        },
    )
