"""Benchmark regenerating experiment E9 at scale: five algorithms under churn.

Two measurements:

* ``test_e09_experiment`` — the E9 experiment itself (paper-shape tables,
  Theorems 4-5 checks) at benchmark parameters.
* ``test_e09_scale_comparison`` — the headline scenario comparison: a
  4096-node, >= 50,000-request scale mix **with join/leave churn**
  (``scale_scenario``: heavy-hitter pairs, far-pair trickle, flash crowds)
  replayed identically on all five algorithms through the unified adapter
  layer (``repro.baselines.adapter``): direct-link oracle, DSG,
  offline-optimal static skip graph, SplayNet and the random static skip
  graph.  The run writes a structured ``BENCH_e09_comparison.json``
  artifact plus a markdown comparison report (``repro.analysis.artifacts``)
  into ``benchmarks/artifacts/`` (override with ``BENCH_ARTIFACT_DIR``).

Under ``BENCH_QUICK=1`` the scenario shrinks to a 256-node smoke shape so
CI can gate on "every benchmark completes" without paying the full run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e09_comparison.py -q -s
"""

from pathlib import Path

from conftest import artifact_dir, experiment_params, ledger_row, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, plan_size_fields, render_comparison
from repro.baselines import make_comparison_algorithms
from repro.core.dsg import DSGConfig
from repro.experiments import run_experiment
from repro.workloads import run_scenario, scale_scenario, scenario_requests

PARAMS = experiment_params("E9", n=48, length=180)
CRITICAL_CHECKS = ['dsg_beats_static_on_skewed_traffic']

if quick_mode():
    SCENARIO_PARAMS = dict(
        n=256, length=2_000, seed=42, hot_pair_count=16, cross_pair_count=2,
        flash_count=1, crowd_size=8, churn_rate=0.004,
    )
    MIN_REQUESTS = 1_500
else:
    SCENARIO_PARAMS = dict(
        n=4096, length=50_500, seed=42, hot_pair_count=64, cross_pair_count=4,
        flash_count=2, crowd_size=12, churn_rate=0.0005,
    )
    MIN_REQUESTS = 50_000


def test_e09_experiment(run_once):
    result = run_once(run_experiment, "E9", **PARAMS)
    print()
    print(result.render())
    for check in CRITICAL_CHECKS:
        assert result.checks.get(check, False), f"E9 check failed: {check}"
    assert result.all_passed, [name for name, ok in result.checks.items() if not ok]


def test_e09_scale_comparison(run_once):
    scenario = scale_scenario(**SCENARIO_PARAMS)
    assert scenario.request_count >= MIN_REQUESTS
    assert scenario.join_count + scenario.leave_count > 0, "comparison must include churn"
    requests = scenario_requests(scenario)

    algorithms = make_comparison_algorithms(
        scenario.initial_keys,
        requests,
        seed=SCENARIO_PARAMS["seed"],
        dsg_config=DSGConfig(seed=1),
    )

    def comparison():
        return [run_scenario(scenario, algorithm=algorithm) for algorithm in algorithms]

    reports = run_once(comparison)
    by_name = {report.costs.name: report for report in reports}
    ws_bound = by_name["dsg"].working_set_bound
    assert ws_bound > 0
    for report in reports:
        assert report.costs.requests == scenario.request_count
        assert report.joins == scenario.join_count and report.leaves == scenario.leave_count
    # Cheapest algorithm first: the winner reads first.
    rows = [
        ledger_row(algorithm.name, report, ws_bound, algorithm.phase_seconds())
        for algorithm, report in sorted(
            zip(algorithms, reports), key=lambda pair: pair[1].costs.average_cost
        )
    ]

    dsg = by_name["dsg"]
    static = by_name["static-random"]
    oracle = by_name["oracle-direct-link"]
    checks = {
        "all_five_algorithms_served_full_schedule": len(reports) == 5,
        "dsg_routing_beats_static_on_scale_mix": (
            dsg.costs.total_routing < static.costs.total_routing
        ),
        "oracle_is_the_cost_floor": oracle.costs.total_cost == oracle.costs.requests,
        "churn_absorbed_by_every_algorithm": all(
            report.final_nodes == report.initial_nodes + report.joins - report.leaves
            for report in reports
        ),
    }

    # Plan-size distribution (DSG only): the per-request local-op plans the
    # kernel emitted while serving this schedule — the locality claim row.
    dsg_algorithm = next(algorithm for algorithm in algorithms if algorithm.name == "dsg")
    rows.append({
        "kind": "plan-size", "name": "scale-mix",
        **plan_size_fields(dsg_algorithm.plan_size_histogram()),
    })

    artifact = BenchmarkArtifact(
        benchmark="e09_comparison",
        config=dict(SCENARIO_PARAMS, quick=quick_mode(), working_set_bound=ws_bound),
        wall_seconds=sum(report.elapsed_seconds for report in reports),
        rows=rows,
        checks=checks,
    )
    out_dir = Path(artifact_dir())
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = out_dir / "BENCH_e09_comparison.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    print(f"[e09-scale] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"scale comparison checks failed: {failed}"
