"""E5 — Lemma 1: AMF rank accuracy.

For list sizes ``n`` and balance parameters ``a``, runs AMF on random value
assignments and reports the empirical distribution of the output's rank
error together with the Lemma 1 tolerance ``n / (2a)``.  Also compares the
structural AMF against the message-level protocol and against the exact
median (ablation).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.statistics import describe
from repro.analysis.tables import Table
from repro.core.amf import approximate_median
from repro.distributed import run_amf_protocol
from repro.experiments.base import ExperimentResult
from repro.simulation.rng import make_rng

__all__ = ["run"]


def run(
    sizes: Sequence[int] = (64, 256, 1024),
    a_values: Sequence[int] = (3, 4, 8),
    trials: int = 5,
    seed: Optional[int] = 1,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E5",
        title="AMF rank accuracy (Lemma 1)",
        parameters={"sizes": tuple(sizes), "a_values": tuple(a_values), "trials": trials, "seed": seed},
    )
    table = Table(
        title="AMF rank error vs the Lemma 1 tolerance n/(2a)",
        columns=["n", "a", "mean rank error", "max rank error", "tolerance", "all within"],
    )
    all_within_everywhere = True
    for n in sizes:
        for a in a_values:
            errors = []
            within = True
            for trial in range(trials):
                rng = make_rng((seed or 0) * 1000 + n + a * 7 + trial)
                values = {i: float(rng.randrange(10 * n)) for i in range(n)}
                amf = approximate_median(values, a=a, rng=make_rng(trial * 31 + n + a))
                errors.append(amf.rank_error)
                within &= amf.satisfies_lemma1(a)
            stats = describe(errors)
            tolerance = n / (2 * a)
            table.add_row(n, a, stats["mean"], stats["max"], tolerance, within)
            all_within_everywhere &= within
    result.tables.append(table)
    result.checks["lemma1_rank_bound_holds"] = all_within_everywhere

    # Structural vs message-level vs exact (single configuration).
    n, a = sizes[0], a_values[1] if len(a_values) > 1 else a_values[0]
    rng = make_rng(seed)
    values = {i: float(rng.randrange(10 * n)) for i in range(1, n + 1)}
    structural = approximate_median(values, a=a, rng=make_rng(seed))
    protocol = run_amf_protocol(values, a=a, seed=seed)
    comparison = Table(
        title=f"Structural vs message-level AMF (n={n}, a={a})",
        columns=["variant", "median", "rounds", "within Lemma 1"],
    )
    comparison.add_row("structural", structural.median, structural.rounds, structural.satisfies_lemma1(a))
    comparison.add_row(
        "message-level", protocol.median, protocol.metrics.rounds,
        protocol.satisfies_lemma1(list(values.values()), a),
    )
    result.tables.append(comparison)
    result.checks["protocol_agrees_with_lemma1"] = protocol.satisfies_lemma1(list(values.values()), a)
    return result
