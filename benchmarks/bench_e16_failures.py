"""E16 benchmark: crash-stop failures at 4096 nodes with k-redundant route-around.

The headline run drives five failure shapes of
:func:`repro.workloads.failure_scenario` — independent background
attrition, correlated rack failures, a flash disconnect, attrition with
*crash recovery* (crashed keys rejoin as fresh identities) and attrition
with *mid-wave crashes* (victims die while requests are in flight) —
through the crash-stop arena (:func:`repro.distributed.run_failure_arena`)
over a **4096-node** balanced skip graph with a k-redundant overlay:

* every wave opens with a crash burst at quiescence: links go dark with no
  goodbye, the survivors' neighbour tables are now stale;
* the wave's requests route *through* the dark window — a hop whose link
  vanished is re-forwarded via the k-redundant table, so every request to
  a surviving key is still delivered, while requests to crashed keys
  strand at the hole's edge and are counted as ``failed_requests``;
* the repair wave excises the crashed keys, closes every level list up
  over them (restoring ``network == skip_graph_network(graph, k)``
  exactly) and refreshes the affected survivors' tables;
* the integrity sweep (:func:`repro.skipgraph.verify_skip_graph_integrity`)
  audits the repaired graph *and* the live network after every wave;
* the ``recovery`` shape additionally replays
  :class:`~repro.workloads.RecoveryEvent`\\ s: a previously crashed key
  rejoins as a *fresh identity* (new membership bits, rebuilt links and
  router) before the wave's requests are injected — and must serve as a
  destination again;
* the ``midwave`` shape fires crashes *between* a wave's request batches:
  messages in flight toward the victim become counted drops, and the
  ledger re-injects the casualties after the repair wave (bounded
  retries with backoff).

Acceptance gates:

* request conservation per wave:
  ``delivered + failed + retried-then-delivered == injected``, with
  ``failed`` exactly the stale-destination requests of the schedule (every
  surviving-key request was delivered via route-around or retry);
* a clean integrity sweep after every repair wave (and after every
  rejoin);
* zero congestion violations everywhere; zero message drops outside
  mid-wave waves (mid-wave drops are exactly the in-flight casualties the
  ledger accounts for);
* under failures the arena actually exercised redundancy: route-arounds
  occurred and repair links were added; the recovery shape performed
  rejoins (``recoveries > 0``, ``rejoin_links > 0``) and the mid-wave
  shape fired in-flight crashes (``mid_wave_crashes > 0``).

The run writes a ``BENCH_e16_failures.json`` artifact (one ``failure`` row
per shape, recovery and retry counters included) plus a markdown
report into ``benchmarks/artifacts/``, mirrored to the repository root
for the perf-trajectory tooling.

Under ``BENCH_QUICK=1`` the arena shrinks to a 256-node smoke shape.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e16_failures.py -q -s
"""

import time
from pathlib import Path

from conftest import artifact_dir, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, render_comparison
from repro.distributed import run_failure_arena
from repro.simulation.message import congest_budget_bits
from repro.workloads import CrashEvent, RecoveryEvent, RequestEvent, failure_scenario

if quick_mode():
    ARENA = dict(n=256, length=400, k=2, seed=42)
    SHAPES = dict(
        independent=dict(mode="independent", crash_rate=0.02),
        racks=dict(mode="racks", rack_count=16, rack_failures=2),
        flash=dict(mode="flash", flash_size=8),
        recovery=dict(mode="independent", crash_rate=0.02, recovery_fraction=0.6),
        midwave=dict(mode="independent", crash_rate=0.02, mid_wave_fraction=0.03),
    )
else:
    ARENA = dict(n=4096, length=3000, k=3, seed=42)
    SHAPES = dict(
        independent=dict(mode="independent", crash_rate=0.004),
        racks=dict(mode="racks", rack_count=64, rack_failures=3),
        flash=dict(mode="flash", flash_size=48),
        recovery=dict(mode="independent", crash_rate=0.004, recovery_fraction=0.6),
        midwave=dict(mode="independent", crash_rate=0.004, mid_wave_fraction=0.02),
    )
STALE_FRACTION = 0.05
#: The ``FailureArenaReport`` totals each ``failure`` row records.
FAILURE_FIELDS = (
    "crashes", "mid_wave_crashes", "recoveries", "requests", "delivered", "failed",
    "retried", "retried_delivered", "route_arounds", "repair_links", "rejoin_links",
    "tables_refreshed", "rounds", "messages", "congestion_violations",
    "dropped_messages", "integrity_clean",
)


def _stale_requests(scenario) -> int:
    """Requests whose destination crashed earlier in the schedule.

    These are the schedule's *intended* failures — a client holding a
    stale reference — and the arena must fail exactly them: the request
    strands at the hole's edge (or at the nearest survivor, once the hole
    is repaired) and is counted, never delivered and never dropped.  A
    recovered key serves again: a :class:`RecoveryEvent` removes it from
    the crashed set, so later requests to it are expected deliveries.
    """
    crashed = set()
    stale = 0
    for event in scenario.events:
        if isinstance(event, CrashEvent):
            crashed.add(event.key)
        elif isinstance(event, RecoveryEvent):
            crashed.discard(event.key)
        elif isinstance(event, RequestEvent) and event.destination in crashed:
            stale += 1
    return stale


def _recovered_destination_requests(scenario) -> int:
    """Requests targeting a key that crashed and then recovered earlier.

    The recovery shape's headline property — a crashed-then-recovered key
    serves as a fresh identity — is only exercised if the schedule
    actually routes to recovered keys; the gate below demands at least
    one such request, and ``failed == stale`` proves they were delivered.
    """
    recovered = set()
    crashed = set()
    hits = 0
    for event in scenario.events:
        if isinstance(event, CrashEvent):
            crashed.add(event.key)
            recovered.discard(event.key)
        elif isinstance(event, RecoveryEvent):
            crashed.discard(event.key)
            recovered.add(event.key)
        elif isinstance(event, RequestEvent) and event.destination in recovered:
            hits += 1
    return hits


def test_e16_failure_arena(run_once):
    n, k, seed = ARENA["n"], ARENA["k"], ARENA["seed"]
    budget = congest_budget_bits(n)
    scenarios = {
        name: failure_scenario(
            n=n,
            length=ARENA["length"],
            seed=seed,
            stale_fraction=STALE_FRACTION,
            # The k-redundancy tolerance assumption: at most k - 1
            # consecutive keys may fail between repair waves, so every
            # surviving-key request is deliverable by the guarantee.
            adjacent_crash_limit=k - 1,
            name=name,
            **params,
        )
        for name, params in SHAPES.items()
    }

    def arena():
        reports = {}
        for name, scenario in scenarios.items():
            started = time.perf_counter()
            report = run_failure_arena(scenario, k=k, seed=seed)
            reports[name] = (report, time.perf_counter() - started)
        return reports

    reports = run_once(arena)

    rows = []
    checks = {}
    for name, (report, wall) in reports.items():
        stale = _stale_requests(scenarios[name])
        checks[f"{name}_requests_conserved"] = report.conserved
        # failed == stale <=> every surviving-key request was delivered
        # (on the first pass or by a post-repair retry).
        checks[f"{name}_survivors_all_delivered"] = report.failed == stale
        checks[f"{name}_integrity_clean_every_wave"] = report.integrity_clean
        checks[f"{name}_zero_congestion_violations"] = report.congestion_violations == 0
        if SHAPES[name].get("mid_wave_fraction"):
            # Mid-wave crashes drop in-flight messages by design; the
            # drops must be confined to waves that actually fired one,
            # and every casualty must have been re-injected.
            checks[f"{name}_midwave_exercised"] = report.mid_wave_crashes > 0
            checks[f"{name}_drops_only_in_midwave_waves"] = all(
                wave.dropped_messages == 0
                for wave in report.waves
                if wave.mid_wave_crashes == 0
            )
        else:
            checks[f"{name}_zero_message_drops"] = report.dropped_messages == 0
        if SHAPES[name].get("recovery_fraction"):
            checks[f"{name}_recovery_exercised"] = (
                report.recoveries > 0 and report.rejoin_links > 0
            )
            # The schedule routes to crashed-then-recovered keys, and
            # failed == stale (above) proves those requests delivered.
            checks[f"{name}_recovered_keys_serve"] = (
                _recovered_destination_requests(scenarios[name]) > 0
            )
        checks[f"{name}_within_bit_budget"] = report.max_message_bits <= budget
        checks[f"{name}_failures_exercised"] = report.crashes > 0 and report.repair_links > 0
        rows.append({
            "kind": "failure", "name": name, "n": n, "k": k, "waves": len(report.waves),
            **{field: getattr(report, field) for field in FAILURE_FIELDS},
            "wall_seconds": wall,
        })

    total_wall = sum(wall for _, wall in reports.values())
    artifact = BenchmarkArtifact(
        benchmark="e16_failures",
        config=dict(ARENA, stale_fraction=STALE_FRACTION, quick=quick_mode(), budget_bits=budget),
        wall_seconds=total_wall,
        rows=rows,
        checks=checks,
    )
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = Path(artifact_dir()) / "BENCH_e16_failures.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    print(f"[e16] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"failure arena checks failed: {failed}"
