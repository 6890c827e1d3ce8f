"""E10 — Section IV-F: a-balance maintenance and dummy-node overhead.

Tracks, over a long DSG run and for several values of the balance parameter
``a``:

* the number of live dummy nodes (the paper bounds the number of *useful*
  dummies by ``n/a``; stale dummies awaiting lazy cleanup add a small
  constant factor),
* the residual a-balance violations and the worst observed run length,
  checked against ``2a + 2`` at this experiment's size.  That is not a
  bound at scale: request transformations leave longer residual runs, and
  the measurement spine's ``skipgraph.balance.max_residual_run`` reads 13
  on ``central-aligned`` and 12 on ``central-temporal`` at ``a = 4``
  (ROADMAP item 6b),
* the same run with maintenance disabled, as the ablation.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.tables import Table
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.experiments.base import ExperimentResult
from repro.skipgraph.balance import a_balance_violations
from repro.workloads import generate_workload

__all__ = ["run"]


def run(
    n: int = 64,
    length: int = 200,
    a_values: Sequence[int] = (2, 4, 8),
    seed: Optional[int] = 6,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E10",
        title="Dummy nodes and the a-balance property (Section IV-F)",
        parameters={"n": n, "length": length, "a_values": tuple(a_values), "seed": seed},
    )
    keys = list(range(1, n + 1))
    requests = generate_workload("uniform", keys, length, seed=seed)

    table = Table(
        title="Dummy-node overhead and residual violations vs a",
        columns=["a", "dummies", "n/a", "violations", "max run", "2a+2", "max height"],
    )
    runs_bounded = True
    dummies_moderate = True
    for a in a_values:
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed, a=a))
        max_height = 0
        for u, v in requests:
            max_height = max(max_height, dsg.request(u, v).height_after)
        violations = a_balance_violations(dsg.graph, a)
        max_run = max((len(v.run_keys) for v in violations), default=0)
        table.add_row(a, dsg.dummy_count(), n // a, len(violations), max_run, 2 * a + 2, max_height)
        runs_bounded &= max_run <= 2 * a + 2
        dummies_moderate &= dsg.dummy_count() <= 5 * max(1, n // a) + 8
    result.tables.append(table)
    result.checks["runs_bounded_by_2a_plus_2"] = runs_bounded
    result.checks["dummy_count_moderate"] = dummies_moderate

    # Ablation: maintenance off.
    ablation = Table(
        title="Ablation: a-balance maintenance on/off (a=4)",
        columns=["maintenance", "dummies", "violations", "max run"],
    )
    for maintain in (True, False):
        dsg = DynamicSkipGraph(
            keys=keys, config=DSGConfig(seed=seed, a=4, maintain_a_balance=maintain)
        )
        dsg.run_sequence(requests)
        violations = a_balance_violations(dsg.graph, 4)
        max_run = max((len(v.run_keys) for v in violations), default=0)
        ablation.add_row("on" if maintain else "off", dsg.dummy_count(), len(violations), max_run)
    result.tables.append(ablation)
    return result
