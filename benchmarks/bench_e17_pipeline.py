"""E17 benchmark: conflict-aware pipelined serving at 4096 nodes.

The arena replays one disjoint-heavy request mix — hot pairs in distinct
deepest-stride subtrees plus a sprinkle of mid-level pairs, the traffic of
``bench_e14_distributed_dsg`` without churn — through the sequential
two-phase reference driver of ``tests/reference/sequential_driver_reference.py``
(one request to quiescence at a time: the paper's model as an executable
specification) and then through the shipped driver
(:class:`repro.distributed.DistributedDSG`) at window depths 1, 4, 8 and
16.  Steady-state repeats on distinct hot pairs have disjoint
conflict sets, so the scheduler overlaps their routes and disseminations;
occasional deep restructures serialize behind the conflict detector.

Acceptance gates (the differential harness, enforced at full scale):

* **equivalence** — every run of the shipped driver ends on the
  byte-identical final topology, the same per-request measured distance
  and the same total Equation 1 cost as the sequential reference;
* **fidelity** — the window-1 run reproduces the reference's round count
  exactly (the shipped loop at depth 1 *is* the sequential schedule);
* **overlap pays** — the best window serves the schedule in at least 2x
  fewer rounds than the sequential driver;
* **conformance** — zero congestion violations and zero drops on every
  run (strict mode raises at the offending round), every message within
  the ``c * log2 n`` CONGEST budget.

The run writes a schema-v5 ``BENCH_e17_pipeline.json`` artifact
(``pipelines`` rows, the sequential reference included) plus a markdown
report into ``benchmarks/artifacts/``, mirrored to the repository root.

Under ``BENCH_QUICK=1`` the arena shrinks to a 256-node smoke shape.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e17_pipeline.py -q -s
"""

import time
from pathlib import Path

from conftest import artifact_dir, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, PipelineResult, render_comparison
from repro.core.dsg import DSGConfig
from repro.distributed import DistributedDSG
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng
from repro.workloads import RequestEvent, Scenario

from reference.sequential_driver_reference import SequentialReferenceDSG

if quick_mode():
    ARENA = dict(n=256, hot_pairs=8, mid_pairs=2, body=60, seed=42)
    WINDOWS = (1, 4, 8)
else:
    ARENA = dict(n=4096, hot_pairs=16, mid_pairs=4, body=200, seed=42)
    WINDOWS = (1, 4, 8, 16)


def _arena_scenario(n, hot_pairs, mid_pairs, body, seed):
    """The e14 traffic shape without churn: warmup every pair once, then a
    body of repeats (90% hot / 10% mid).  Hot pairs live in distinct
    deepest-stride subtrees, so their steady-state plans touch disjoint
    regions — the mix the conflict detector should overlap."""
    rng = make_rng(seed)
    top_stride = 1 << ((n - 1).bit_length() - 1)
    mid_stride = 64 if n > 128 else 16
    starts = rng.sample(range(n - top_stride), hot_pairs)
    hot = [(start + 1, start + top_stride + 1) for start in starts]
    mid = []
    while len(mid) < mid_pairs:
        start = rng.randrange(n - mid_stride)
        pair = (start + 1, start + mid_stride + 1)
        if pair not in mid and pair not in hot:
            mid.append(pair)

    events = [RequestEvent(u, v) for u, v in hot]
    events.extend(RequestEvent(u, v) for u, v in mid)
    for _ in range(body):
        pool = hot if (rng.random() < 0.9 or not mid) else mid
        events.append(RequestEvent(*pool[rng.randrange(len(pool))]))
    return Scenario(
        name="e17-pipeline",
        initial_keys=list(range(1, n + 1)),
        events=events,
        params=dict(n=n, hot_pairs=hot_pairs, mid_pairs=mid_pairs, body=body, seed=seed),
    )


def _outcome_signature(report):
    return [
        (o.source, o.destination, o.measured_distance, o.ops_executed)
        for o in report.outcomes
    ]


def test_e17_pipeline_arena(run_once):
    n, seed = ARENA["n"], ARENA["seed"]
    budget = congest_budget_bits(n)
    scenario = _arena_scenario(**ARENA)
    config = dict(seed=seed, track_working_set=False)

    def arena():
        started = time.perf_counter()
        sequential = SequentialReferenceDSG(
            scenario.initial_keys, config=DSGConfig(**config), seed=seed, strict=True
        )
        seq_report = sequential.run_scenario(scenario)
        seq_wall = time.perf_counter() - started
        reference = (
            sequential.topology.membership_table(),
            _outcome_signature(seq_report),
            seq_report.total_cost,
        )

        runs = [("sequential", sequential, seq_report, seq_wall, True)]
        for window in WINDOWS:
            started = time.perf_counter()
            driver = DistributedDSG(
                scenario.initial_keys,
                config=DSGConfig(**config),
                seed=seed,
                strict=True,
                window=window,
            )
            report = driver.run_scenario(scenario)
            wall = time.perf_counter() - started
            matches = (
                driver.topology.membership_table(),
                _outcome_signature(report),
                report.total_cost,
            ) == reference
            runs.append((f"window-{window}", driver, report, wall, matches))
        return runs

    runs = run_once(arena)
    _, _, seq_report, _, _ = runs[0]

    rows = []
    for name, driver, report, wall, matches in runs:
        rows.append(
            PipelineResult(
                name=name,
                n=n,
                window=report.window,
                requests=report.requests,
                rounds=report.rounds,
                sequential_rounds=seq_report.rounds,
                # The reference never enters the window: one at a time.
                max_in_flight=max(report.max_in_flight, 1),
                conflict_stalls=report.conflict_stalls,
                messages=report.messages,
                congestion_violations=report.congestion_violations,
                dropped_messages=report.dropped_messages,
                total_cost=report.total_cost,
                matches_sequential=matches,
                wall_seconds=wall,
            )
        )

    window_one = next(row for row in rows if row.name == "window-1")
    best = max(row.speedup for row in rows if row.name.startswith("window-"))
    checks = {
        "zero_congestion_violations": all(r.congestion_violations == 0 for r in rows),
        "zero_message_drops": all(r.dropped_messages == 0 for r in rows),
        "all_messages_within_budget": all(
            report.max_message_bits <= budget for _, _, report, _, _ in runs
        ),
        "pipelined_matches_sequential": all(r.matches_sequential for r in rows),
        "total_cost_matches_centralized": all(
            report.matches_planner for _, _, report, _, _ in runs
        ),
        "topology_matches_centralized": all(
            driver.topology_matches_planner() for _, driver, _, _, _ in runs
        ),
        "window_one_reproduces_sequential_rounds": window_one.rounds == seq_report.rounds,
        "best_window_at_least_2x_fewer_rounds": best >= 2.0,
    }

    artifact = BenchmarkArtifact(
        benchmark="e17_pipeline",
        config=dict(
            ARENA,
            quick=quick_mode(),
            windows=list(WINDOWS),
            budget_bits=budget,
            requests=seq_report.requests,
            total_cost=seq_report.total_cost,
            best_speedup=round(best, 3),
        ),
        wall_seconds=sum(wall for _, _, _, wall, _ in runs),
        pipelines=rows,
        checks=checks,
    )
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = Path(artifact_dir()) / "BENCH_e17_pipeline.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    print(
        f"[e17-arena] n={n} requests={seq_report.requests} "
        f"sequential_rounds={seq_report.rounds} best_speedup={best:.2f}x "
        f"max_in_flight={max(r.max_in_flight for r in rows)}"
    )
    print(f"[e17-arena] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"pipelined serving arena checks failed: {failed}"
