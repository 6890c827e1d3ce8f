"""E9 — Theorems 4-5: DSG vs baselines vs the working set bound.

The headline comparison the paper's claims imply: for every workload, the
average routing cost (and total cost) of

* DSG,
* a static skip graph (random membership vectors),
* the frequency-optimal static skip graph built offline,
* SplayNet (the closest self-adjusting comparator),
* the direct-link oracle (per-request floor),

together with the working set bound ``WS(σ)/m`` (the amortized lower bound
of Theorem 1).  The "shape" the paper predicts: on skewed traffic DSG's
routing cost is far below the static skip graph and within a constant
factor of the working-set bound; on uniform traffic nothing beats the
static skip graph and DSG stays within the same order.

Every algorithm is driven through the unified adapter layer
(:mod:`repro.baselines.adapter`): each workload is lifted into a
:class:`~repro.workloads.scenarios.Scenario` and replayed, event by event,
on all five algorithms with :func:`~repro.workloads.scenarios.run_scenario`.
Because the adapters also implement ``join``/``leave``, the comparison is
churn-capable: the ``churn`` workload interleaves node joins and leaves
with temporal-locality traffic (Section IV-G) and runs through the *same*
pipeline — the scenario-scale version of this experiment is
``benchmarks/bench_e09_comparison.py`` (4096 nodes, 50k+ requests).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.analysis import competitive_report
from repro.analysis.tables import Table
from repro.baselines import make_comparison_algorithms
from repro.core.costs import CostLedger
from repro.core.working_set import working_set_bound
from repro.experiments.base import ExperimentResult
from repro.workloads.scenarios import (
    Scenario,
    churn_scenario,
    run_scenario,
    scenario_requests,
    workload_scenario,
)

__all__ = ["run"]

DEFAULT_WORKLOADS = (
    "repeated-pair",
    "hot-pairs",
    "temporal",
    "community",
    "zipf",
    "uniform",
    "churn",
)

#: Workloads whose working sets are much smaller than n (log T << log n) —
#: the regime where the paper's claims imply DSG must beat the oblivious
#: static skip graph.  Community and Zipf traffic are reported for the shape
#: of the comparison but not asserted: with the moderate n used here their
#: working sets are only a small constant factor below n, where DSG's
#: constants do not guarantee a win (see docs/EXPERIMENTS.md).
SKEW_WORKLOADS = frozenset({"repeated-pair", "hot-pairs", "temporal", "churn"})


def _build_scenario(
    name: str, n: int, length: int, seed: Optional[int], churn_rate: float
) -> Scenario:
    """One comparison workload as a scenario (requests, or requests+churn)."""
    keys = list(range(1, n + 1))
    if name == "churn":
        return churn_scenario(
            n=n, length=length, seed=seed, base="temporal", churn_rate=churn_rate
        )
    return workload_scenario(name, keys, length, seed=seed)


def run(
    n: int = 64,
    length: int = 250,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    seed: Optional[int] = 5,
    a: int = 4,
    churn_rate: float = 0.02,
) -> ExperimentResult:
    """Compare the five algorithms over ``workloads`` (see module docstring).

    Parameters
    ----------
    n:
        Node population (keys ``1..n``; the ``churn`` workload lets peers
        join above ``n`` and leave).
    length:
        Schedule length per workload (requests, or requests+churn slots).
    workloads:
        Workload names; any :func:`~repro.workloads.generate_workload` name
        plus the special ``"churn"`` schedule.
    seed:
        Master seed: workload generation and every algorithm's randomness
        derive from it.
    a:
        DSG balance parameter.
    churn_rate:
        Per-slot probability of a join/leave in the ``churn`` workload.
    """
    result = ExperimentResult(
        experiment_id="E9",
        title="Average cost: DSG vs baselines vs the working set bound (Theorems 4-5)",
        parameters={
            "n": n,
            "length": length,
            "workloads": tuple(workloads),
            "seed": seed,
            "a": a,
            "churn_rate": churn_rate,
        },
    )

    routing_table = Table(
        title="Average routing cost per request",
        columns=["workload", "WS/m", "oracle", "dsg", "dsg (tail)", "offline-static", "splaynet", "static-random"],
    )
    cost_table = Table(
        title="Average total cost per request (Equation 1: routing + adjustment + 1)",
        columns=["workload", "dsg", "splaynet", "static-random", "dsg routing ratio vs WS"],
    )
    churn_table = Table(
        title="Churn absorbed per workload (joins/leaves handled by every algorithm)",
        columns=["workload", "requests", "joins", "leaves"],
    )

    skewed_wins = True
    ratios_ok = True

    for name in workloads:
        scenario = _build_scenario(name, n, length, seed, churn_rate)
        requests = scenario_requests(scenario)
        bound = working_set_bound(requests, n)

        ledgers: Dict[str, CostLedger] = {
            algorithm.name: run_scenario(scenario, algorithm=algorithm, keep_costs=True).costs
            for algorithm in make_comparison_algorithms(
                scenario.initial_keys, requests, seed=seed, a=a
            )
        }

        dsg_ledger = ledgers["dsg"]
        static_ledger = ledgers["static-random"]
        report = competitive_report(dsg_ledger, requests, n, precomputed_bound=bound)

        routing_table.add_row(
            name,
            bound / len(requests) if requests else 0.0,
            ledgers["oracle-direct-link"].average_routing,
            dsg_ledger.average_routing,
            dsg_ledger.routing_tail(0.5),
            ledgers["offline-static"].average_routing,
            ledgers["splaynet"].average_routing,
            static_ledger.average_routing,
        )
        cost_table.add_row(
            name,
            dsg_ledger.average_cost,
            ledgers["splaynet"].average_cost,
            static_ledger.average_cost,
            report.routing_ratio,
        )
        churn_table.add_row(name, len(requests), scenario.join_count, scenario.leave_count)

        if name in SKEW_WORKLOADS:
            # Steady-state DSG routing should beat the oblivious static graph.
            skewed_wins &= dsg_ledger.routing_tail(0.5) <= static_ledger.average_routing
        ratios_ok &= report.routing_within_constant or name == "uniform"

    result.tables.append(routing_table)
    result.tables.append(cost_table)
    result.tables.append(churn_table)
    result.checks["dsg_beats_static_on_skewed_traffic"] = skewed_wins
    result.checks["dsg_routing_within_constant_of_ws_bound"] = ratios_ok
    return result
