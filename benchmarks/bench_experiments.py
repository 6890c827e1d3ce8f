"""Benchmark targets regenerating the table-driven experiments (E1-E5, E7, E8, E10, E12).

Each row runs one experiment once under the benchmark timer, prints its
tables (so ``pytest benchmarks/ --benchmark-only -s`` reproduces the
paper-style rows) and asserts the experiment's checks: the row's critical
checks by name, then every check.  Under ``BENCH_QUICK=1`` a row runs the
CLI's quick shape instead of its full-size parameters
(:func:`conftest.experiment_params`).  The experiments with an arena of
their own (E6, E9, E11, E15-E17) keep their own ``bench_eNN_*.py`` module.
"""

import pytest
from conftest import experiment_params

from repro.experiments import run_experiment

#: ``(experiment id, full-size parameters, critical checks)``.
ROWS = [
    ("E1", dict(sizes=(16, 64, 256)), ["fig1_level1_split", "heights_logarithmic"]),
    ("E2", dict(n=64, length=150), ["fig2_final_working_set_is_5"]),
    ("E3", dict(n=48, length=120), ["fig3_working_set_is_k_plus_1"]),
    ("E4", dict(), ["merged_group_moves_to_0_subgraph", "pair_directly_linked"]),
    ("E5", dict(sizes=(64, 256, 1024), a_values=(3, 4, 8), trials=3), ["lemma1_rank_bound_holds"]),
    ("E7", dict(n=64, length=150), ["lemma5_height_bound", "lemma4_link_level_bound"]),
    ("E8", dict(n=64, length=200), ["theorem2_ratio_bounded"]),
    ("E10", dict(n=48, length=150, a_values=(2, 4, 8)), ["runs_bounded_by_2a_plus_2"]),
    ("E12", dict(sizes=(64, 256, 1024), n=48, length=120), ["distributed_sum_exact"]),
]


@pytest.mark.parametrize("experiment_id, full_params, critical_checks", ROWS, ids=[row[0] for row in ROWS])
def test_experiment(run_once, experiment_id, full_params, critical_checks):
    result = run_once(run_experiment, experiment_id, **experiment_params(experiment_id, **full_params))
    print()
    print(result.render())
    for check in critical_checks:
        assert result.checks.get(check, False), f"{experiment_id} check failed: {check}"
    assert result.all_passed, [name for name, ok in result.checks.items() if not ok]
