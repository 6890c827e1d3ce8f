"""E17 benchmark: the distributed DSG driver at 4096 nodes, pipelined and under churn.

The arena replays one disjoint-heavy request mix — hot pairs in distinct
deepest-stride subtrees plus a sprinkle of mid-level pairs — through the
sequential two-phase reference driver of
``tests/reference/sequential_driver_reference.py`` (one request to
quiescence at a time: the paper's model as an executable specification)
and then through the shipped driver (:class:`repro.distributed.DistributedDSG`)
at window depths 1, 4, 8 and 16.  Steady-state repeats on distinct hot
pairs have disjoint conflict sets, so the scheduler overlaps their routes
and disseminations; occasional deep restructures serialize behind the
conflict detector.  One more run, the ``churn`` row, serves the same
traffic with joins and leaves interleaved (Section IV-G) at window 1.

Acceptance gates (the keystone guarantee and the differential harness,
enforced at full scale):

* **equivalence** — every pipelined run ends on the byte-identical final
  topology, the same per-request measured distance and the same total
  Equation 1 cost as the sequential reference;
* **keystone** — on every run, churn included, the measured hop count of
  every request equals the centralized planner's routing distance, the
  total cost and the op-executed topology equal the centralized
  ``DynamicSkipGraph``'s, and the incrementally rewired network equals
  one rebuilt from that topology;
* **fidelity** — the window-1 run reproduces the reference's round count
  exactly (the shipped loop at depth 1 *is* the sequential schedule);
* **overlap pays** — the best window serves the schedule in at least 2x
  fewer rounds than the sequential driver;
* **conformance** — zero congestion violations and zero drops on every
  run (strict mode raises at the offending round), every message within
  the ``c * log2 n`` CONGEST budget.

Each driver is built outside the timer and released once its checks are
taken; ``wall_seconds`` is its ``run_scenario`` alone.  The run writes a
``BENCH_e17_pipeline.json`` artifact (``pipeline`` rows, the sequential
reference included, with rounds per request and the speedup over it, and
the ``churn`` ``protocol`` row) plus a markdown report into
``benchmarks/artifacts/``, mirrored to the repository root.

Under ``BENCH_QUICK=1`` the arena shrinks to a 256-node smoke shape.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e17_pipeline.py -q -s
"""

import time
from pathlib import Path

from conftest import artifact_dir, protocol_row, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, render_comparison
from repro.core.dsg import DSGConfig
from repro.distributed import DistributedDSG
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng
from repro.workloads import JoinEvent, LeaveEvent, RequestEvent, Scenario

from reference.sequential_driver_reference import SequentialReferenceDSG

if quick_mode():
    ARENA = dict(n=256, hot_pairs=8, mid_pairs=2, body=60, seed=42)
    WINDOWS = (1, 4, 8)
    CHURN_EVENTS = 8
else:
    ARENA = dict(n=4096, hot_pairs=16, mid_pairs=4, body=200, seed=42)
    WINDOWS = (1, 4, 8, 16)
    CHURN_EVENTS = 24


def _arena_scenario(n, hot_pairs, mid_pairs, body, churn_events, seed):
    """Traffic with overlay locality, with ``churn_events`` joins and leaves.

    In the balanced start topology bit ``i`` of a node is bit ``i`` of its
    rank (LSB first), so ranks a stride ``2^k`` apart share exactly ``k``
    membership bits: the deepest-stride pairs land in lists of size two
    (hot pairs, in distinct subtrees, so their steady-state plans touch
    disjoint regions) and the ``2^6``-stride pairs in lists of ``n / 64``
    members (mid pairs).  The schedule serves every pair once (warmup),
    then a body of repeat traffic (90% hot / 10% mid) with joins and leaves
    interleaved every ``body / churn_events`` slots; request endpoints are
    shielded from departure so the schedule stays valid by construction.
    ``churn_events=0`` draws no churn and no random number for it.
    """
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
    protected = {key for pair in hot + mid for key in pair}

    events = [RequestEvent(u, v) for u, v in hot]
    events.extend(RequestEvent(u, v) for u, v in mid)
    alive = list(range(1, n + 1))
    next_key = n + 1
    churn_spacing = max(1, body // max(1, churn_events))
    join_next = True
    churned = 0
    for slot in range(body):
        if churned < churn_events and slot % churn_spacing == churn_spacing - 1:
            if join_next:
                events.append(JoinEvent(next_key))
                alive.append(next_key)
                next_key += 1
            else:
                victim = rng.choice(alive)
                if victim not in protected:
                    alive.remove(victim)
                    events.append(LeaveEvent(victim))
            join_next = not join_next
            churned += 1
        pool = hot if (rng.random() < 0.9 or not mid) else mid
        events.append(RequestEvent(*pool[rng.randrange(len(pool))]))
    return Scenario(
        name="e17-pipeline",
        initial_keys=list(range(1, n + 1)),
        events=events,
        params=dict(n=n, hot_pairs=hot_pairs, mid_pairs=mid_pairs, body=body,
                    churn_events=churn_events, seed=seed),
    )


def _timed_serve(driver, scenario):
    """Time ``driver.run_scenario`` alone; read the run's checks off the driver.

    Returns the report, the serve wall, the final topology with the
    per-request outcome signature (the differential harness compares them
    with the reference's) and the keystone checks, so the caller can drop
    the driver before it builds the next one.
    """
    started = time.perf_counter()
    report = driver.run_scenario(scenario)
    wall = time.perf_counter() - started
    signature = (
        driver.topology.membership_table(),
        [(o.source, o.destination, o.measured_distance, o.ops_executed) for o in report.outcomes],
        report.total_cost,
    )
    keystone = {
        "routing_measured_equals_planned": all(
            o.measured_distance == o.planned_distance for o in report.outcomes
        ),
        "total_cost_matches_centralized": report.matches_planner,
        "topology_matches_centralized": driver.topology_matches_planner(),
        "network_matches_rebuilt": driver.network_matches_topology(),
    }
    return report, wall, signature, keystone


def test_e17_pipeline_arena(run_once):
    n, seed = ARENA["n"], ARENA["seed"]
    budget = congest_budget_bits(n)
    scenario = _arena_scenario(churn_events=0, **ARENA)
    churn = _arena_scenario(churn_events=CHURN_EVENTS, **ARENA)
    config = dict(seed=seed, track_working_set=False)

    def arena():
        # (name, driver class, window, schedule); strict=True: a congestion
        # violation or an illegal send raises at the offending round.
        plan = [("sequential", SequentialReferenceDSG, None, scenario)]
        plan += [(f"window-{w}", DistributedDSG, w, scenario) for w in WINDOWS]
        plan.append(("churn", DistributedDSG, 1, churn))
        runs = []
        for name, driver_class, window, schedule in plan:
            options = {} if window is None else {"window": window}
            driver = driver_class(
                schedule.initial_keys, config=DSGConfig(**config), seed=seed, strict=True, **options
            )
            runs.append((name, *_timed_serve(driver, schedule)))
            del driver
        return runs

    runs = run_once(arena)
    _, seq_report, _, reference, _ = runs[0]

    rows = []
    for name, report, wall, signature, _ in runs:
        if name == "churn":
            rows.append(protocol_row(
                name, n, budget, report, joins=report.joins, leaves=report.leaves,
                wall_seconds=wall,
            ))
            continue
        rows.append({
            "kind": "pipeline",
            "name": name,
            "n": n,
            "window": report.window,
            "requests": report.requests,
            "rounds": report.rounds,
            "rounds_per_request": report.rounds / report.requests,
            "sequential_rounds": seq_report.rounds,
            "speedup": seq_report.rounds / report.rounds,
            # The reference never enters the window: one at a time.
            "max_in_flight": max(report.max_in_flight, 1),
            "conflict_stalls": report.conflict_stalls,
            "messages": report.messages,
            "congestion_violations": report.congestion_violations,
            "dropped_messages": report.dropped_messages,
            "total_cost": report.total_cost,
            "matches_sequential": signature == reference,
            "wall_seconds": wall,
        })

    pipeline = [row for row in rows if row["kind"] == "pipeline"]
    window_one = next(row for row in pipeline if row["name"] == "window-1")
    best = max(row["speedup"] for row in pipeline if row["name"].startswith("window-"))
    churn_report = runs[-1][1]
    keystones = [keystone for *_, keystone in runs]
    checks = {
        "zero_congestion_violations": all(r["congestion_violations"] == 0 for r in rows),
        "zero_message_drops": all(r["dropped_messages"] == 0 for r in rows),
        "all_messages_within_budget": all(
            report.max_message_bits <= budget for _, report, _, _, _ in runs
        ),
        "pipelined_matches_sequential": all(r["matches_sequential"] for r in pipeline),
        **{check: all(keystone[check] for keystone in keystones) for check in keystones[0]},
        "window_one_reproduces_sequential_rounds": window_one["rounds"] == seq_report.rounds,
        "best_window_at_least_2x_fewer_rounds": best >= 2.0,
        "churn_applied": churn_report.joins > 0 and churn_report.leaves > 0,
    }

    artifact = BenchmarkArtifact(
        benchmark="e17_pipeline",
        config=dict(
            ARENA,
            quick=quick_mode(),
            windows=list(WINDOWS),
            churn_events=CHURN_EVENTS,
            budget_bits=budget,
            requests=seq_report.requests,
            total_cost=seq_report.total_cost,
            churn_total_cost=churn_report.total_cost,
            best_speedup=round(best, 3),
        ),
        wall_seconds=sum(wall for _, _, wall, _, _ in runs),
        rows=rows,
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
        f"max_in_flight={max(r['max_in_flight'] for r in pipeline)} "
        f"churn joins={churn_report.joins} leaves={churn_report.leaves} "
        f"total_cost={churn_report.total_cost}"
    )
    print(f"[e17-arena] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"distributed DSG arena checks failed: {failed}"
