"""E14 benchmark: self-adjusting DSG as a distributed protocol at 4096 nodes.

The headline run executes the full DSG algorithm — greedy routing plus the
local-operation restructuring plans of :mod:`repro.core.local_ops` — as a
message-passing protocol (:class:`repro.distributed.DistributedDSG`) on the
CONGEST simulator, over a **4096-node** skip graph with join/leave churn
interleaved into the request schedule:

* **hot pairs** sit in deepest lists of the balanced start topology (ranks
  a power-of-two stride apart), so their first contacts are the paper's
  cheap pair-splits and their steady state is a direct link — the traffic
  a self-adjusting overlay wins on;
* **mid pairs** share a mid-level list of ~``n / 64`` members, so each
  first contact executes a bounded multi-level transformation whose op
  plan (hundreds of promote/demote/dummy ops) is disseminated as
  O(log n)-bit messages;
* **churn** joins and leaves arrive between requests (Section IV-G),
  exercising the bridge-level structural path while requests keep racing
  over the rewired links.

Acceptance gates (the keystone guarantee of the kernel refactor):

* zero congestion violations and zero drops — the protocol is conformant
  *by construction* (per-link FIFO flow control);
* every message within the ``c * log2 n`` CONGEST bit budget;
* the measured hop count of **every** request equals the centralized
  planner's routing distance, the total Equation 1 cost matches the
  centralized ``DynamicSkipGraph`` exactly, and the op-executed topology
  (and its incrementally rewired network) is identical to the centralized
  structure.

The run writes a ``BENCH_e14_distributed_dsg.json`` artifact (one
``protocol`` row) plus a markdown report into ``benchmarks/artifacts/``,
mirrored to the repository root for the perf-trajectory tooling.

Under ``BENCH_QUICK=1`` the arena shrinks to a 256-node smoke shape.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e14_distributed_dsg.py -q -s
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

if quick_mode():
    ARENA = dict(n=256, hot_pairs=8, mid_pairs=2, body=40, churn_events=8, seed=42)
else:
    ARENA = dict(n=4096, hot_pairs=16, mid_pairs=4, body=200, churn_events=24, seed=42)


def _arena_scenario(n, hot_pairs, mid_pairs, body, churn_events, seed):
    """Traffic with overlay locality plus churn, over the balanced topology.

    In the balanced start topology bit ``i`` of a node is bit ``i`` of its
    rank (LSB first), so ranks a stride ``2^k`` apart share exactly ``k``
    membership bits: the deepest-stride pairs land in lists of size two
    (hot pairs) and the ``2^6``-stride pairs in lists of ``n / 64`` members
    (mid pairs).  The schedule serves every pair once (warmup), then a body
    of repeat traffic (90% hot / 10% mid) with joins and leaves interleaved
    every ``body / churn_events`` slots; request endpoints are shielded
    from departure so the schedule stays valid by construction.
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
        name="e14-distributed-dsg",
        initial_keys=list(range(1, n + 1)),
        events=events,
        params=dict(n=n, hot_pairs=hot_pairs, mid_pairs=mid_pairs, body=body, seed=seed),
    )


def test_e14_distributed_dsg_arena(run_once):
    n, seed = ARENA["n"], ARENA["seed"]
    budget = congest_budget_bits(n)
    scenario = _arena_scenario(**ARENA)

    def arena():
        # strict=True: a congestion violation or an illegal send raises at
        # the offending round instead of surfacing as a failed counter
        # check after the run — the flow-control-by-construction claim is
        # enforced at full scale, not just in the n <= 64 unit tests.
        driver = DistributedDSG(
            scenario.initial_keys,
            config=DSGConfig(seed=seed, track_working_set=False),
            seed=seed,
            strict=True,
        )
        started = time.perf_counter()
        report = driver.run_scenario(scenario)
        wall = time.perf_counter() - started
        return driver, report, wall

    driver, report, wall = run_once(arena)

    routing_matches = all(
        outcome.measured_distance == outcome.planned_distance for outcome in report.outcomes
    )
    checks = {
        "zero_congestion_violations": report.congestion_violations == 0,
        "zero_message_drops": report.dropped_messages == 0,
        "all_messages_within_budget": report.max_message_bits <= budget,
        "routing_measured_equals_planned": routing_matches,
        "total_cost_matches_centralized": report.matches_planner,
        "topology_matches_centralized": driver.topology_matches_planner(),
        "network_matches_rebuilt": driver.network_matches_topology(),
        "churn_applied": report.joins > 0 and report.leaves > 0,
    }

    row = protocol_row(
        "dsg", n, budget, report, joins=report.joins, leaves=report.leaves, wall_seconds=wall,
    )
    artifact = BenchmarkArtifact(
        benchmark="e14_distributed_dsg",
        config=dict(
            ARENA,
            quick=quick_mode(),
            budget_bits=budget,
            requests=report.requests,
            total_cost=report.total_cost,
            avg_cost=round(report.total_cost / max(1, report.requests), 3),
        ),
        wall_seconds=wall,
        rows=[row],
        checks=checks,
    )
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = Path(artifact_dir()) / "BENCH_e14_distributed_dsg.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    print(
        f"[e14-arena] n={n} requests={report.requests} joins={report.joins} "
        f"leaves={report.leaves} rounds={report.rounds} messages={report.messages} "
        f"avg_cost={report.total_cost / max(1, report.requests):.1f} wall={wall:.1f}s"
    )
    print(f"[e14-arena] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"distributed DSG arena checks failed: {failed}"
