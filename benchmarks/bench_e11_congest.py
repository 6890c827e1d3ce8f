"""Benchmark regenerating experiment E11 at scale: the CONGEST churn arena.

Two measurements:

* ``test_e11_experiment`` — the E11 experiment itself (message-size and
  memory audits on paper-sized instances).
* ``test_e11_congest_arena`` — the headline scale run: a **4096-node** skip
  graph driven by the same churn schedules that drive the DSG comparisons
  (``churn_scenario`` replayed through
  :func:`repro.distributed.replay_scenario`), with the message-passing
  protocols executing *while* members join and leave:

  - **routing** — a batch of greedy route requests racing a live churn
    schedule (joining nodes get router processes and the link rewiring
    happens under the messages in flight; in-flight losses are recorded
    drops, never errors);
  - **broadcast** — a base-list flood racing a second, *leave-only* churn
    schedule (a departed member cuts the wavefront: coverage and drops
    quantify how far the flood got; joins are excluded because a silent
    joiner spliced into the list would sever it regardless of departures,
    which would measure join placement rather than departure resilience);
  - **sum** / **AMF** — convergecast aggregations over the 4096-leaf
    segment tree (churn-free: their tree topology is rebuilt per epoch in
    the paper's model), now measurable at this scale thanks to the
    engine's active-set hot path.

  Every protocol must stay CONGEST-conformant: **zero congestion
  violations** and every message within the ``c * log2 n`` bit budget.
  The run writes a structured ``BENCH_e11_congest.json`` artifact
  (``protocol`` rows: rounds, messages, bits, violations, drops, churn)
  plus a markdown report into ``benchmarks/artifacts/`` (override with
  ``BENCH_ARTIFACT_DIR``).

Under ``BENCH_QUICK=1`` the arena shrinks to a 256-node smoke shape so CI
can gate on "every benchmark completes" without paying the full run.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e11_congest.py -q -s
"""

import time
from pathlib import Path

from conftest import artifact_dir, experiment_params, protocol_row, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, render_comparison
from repro.distributed import (
    install_broadcast,
    install_routing,
    make_router,
    replay_scenario,
    run_amf_protocol,
    run_sum_protocol,
    skip_graph_network,
)
from repro.experiments import run_experiment
from repro.simulation import Simulator, SimulatorConfig
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph
from repro.skiplist import BalancedSkipList
from repro.workloads import JoinEvent, LeaveEvent, Scenario, churn_scenario

PARAMS = experiment_params("E11", sizes=(32, 64, 128))
CRITICAL_CHECKS = ['all_messages_within_congest_budget', 'node_memory_logarithmic']

if quick_mode():
    ARENA = dict(n=256, churn_length=60, route_pairs=4, seed=42)
else:
    ARENA = dict(n=4096, churn_length=400, route_pairs=16, seed=42)

budget_bits = congest_budget_bits


def test_e11_experiment(run_once):
    result = run_once(run_experiment, "E11", **PARAMS)
    print()
    print(result.render())
    for check in CRITICAL_CHECKS:
        assert result.checks.get(check, False), f"E11 check failed: {check}"
    assert result.all_passed, [name for name, ok in result.checks.items() if not ok]


def _shielded_churn(keys, length, seed, protected, next_key=None, joins=True):
    """A churn schedule over ``keys`` whose leave events avoid ``protected``.

    ``next_key`` is the high-water mark for fresh join keys (pass it when
    chaining waves so a second wave cannot re-issue a departed joiner's
    key); ``joins=False`` drops join events entirely (the broadcast phase
    measures departure resilience only).
    """
    scenario = churn_scenario(length=length, seed=seed, churn_rate=0.5,
                              initial_keys=keys, next_key=next_key)
    population = set(keys)
    events = []
    for event in scenario.events:
        if isinstance(event, JoinEvent):
            if not joins:
                continue
        elif isinstance(event, LeaveEvent):
            if event.key in protected:
                continue
            # Without joins, a leave of a key that only joined in the
            # unfiltered schedule would target a node that never existed.
            if not joins and event.key not in population:
                continue
        events.append(event)
    return Scenario(name=scenario.name, initial_keys=scenario.initial_keys,
                    events=events, params=scenario.params)


def test_e11_congest_arena(run_once):
    n, churn_length, seed = ARENA["n"], ARENA["churn_length"], ARENA["seed"]
    budget = budget_bits(n)

    def arena():
        protocols = []
        graph = build_balanced_skip_graph(range(1, n + 1))
        network = skip_graph_network(graph)
        simulator = Simulator(
            network,
            SimulatorConfig(seed=seed, strict_congest=False, strict_links=False,
                            max_rounds=50_000),
        )

        # --- routing under churn -----------------------------------------
        rng = make_rng(seed)
        pairs = []
        while len(pairs) < ARENA["route_pairs"]:
            source, destination = rng.sample(range(1, n + 1), 2)
            pairs.append((source, destination))
        requests = {}
        for source, destination in pairs:
            requests.setdefault(source, []).append(destination)
        protected = {key for pair in pairs for key in pair}
        scenario = _shielded_churn(list(range(1, n + 1)), churn_length, seed, protected)

        started = time.perf_counter()
        install_routing(simulator, graph, requests)
        replay = replay_scenario(
            simulator, scenario,
            process_factory=lambda key: make_router(graph, key),
            graph=graph,
        )
        checkpoint = simulator.round
        simulator.run()
        window = simulator.metrics.window(checkpoint)
        completed = sum(process.completed for process in simulator.processes.values())
        protocols.append(protocol_row(
            "routing", n, budget, window,
            joins=replay.joins, leaves=replay.leaves,
            wall_seconds=time.perf_counter() - started,
        ))

        # --- broadcast under leave-only churn (same engine, next generation)
        simulator.retire_all()
        members = graph.keys  # the base list after the first churn wave
        initiator = members[len(members) // 2]
        # High-water mark: the first wave issued keys up to n + its joins.
        next_key = max(max(members), n + replay.joins) + 1
        broadcast_scenario = _shielded_churn(
            members, churn_length, seed + 1, {initiator},
            next_key=next_key, joins=False,
        )
        started = time.perf_counter()
        broadcast_processes = install_broadcast(simulator, members, initiator)
        broadcast_replay = replay_scenario(
            simulator, broadcast_scenario, graph=graph,
        )
        checkpoint = simulator.round
        simulator.run()
        window = simulator.metrics.window(checkpoint)
        coverage = sum(1 for process in broadcast_processes.values() if process.received)
        protocols.append(protocol_row(
            "broadcast", len(members), budget, window,
            joins=broadcast_replay.joins, leaves=broadcast_replay.leaves,
            wall_seconds=time.perf_counter() - started,
        ))

        # --- sum / AMF convergecasts at full scale ------------------------
        items = list(range(1, n + 1))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(seed))
        started = time.perf_counter()
        sum_result = run_sum_protocol(skiplist, {item: 1.0 for item in items}, seed=seed)
        protocols.append(protocol_row(
            "sum", n, budget, sum_result.metrics, wall_seconds=time.perf_counter() - started,
        ))
        assert sum_result.total == float(n) and sum_result.received_by_all

        value_rng = make_rng(seed)
        values = {i: float(value_rng.random()) for i in items}
        started = time.perf_counter()
        amf = run_amf_protocol(values, a=4, seed=seed)
        protocols.append(protocol_row(
            "amf", n, budget, amf.metrics, wall_seconds=time.perf_counter() - started,
        ))
        assert amf.satisfies_lemma1(list(values.values()), a=4)

        return protocols, completed, coverage

    protocols, completed, coverage = run_once(arena)

    by_name = {p["name"]: p for p in protocols}
    checks = {
        "zero_congestion_violations": all(p["congestion_violations"] == 0 for p in protocols),
        "all_messages_within_budget": all(
            p["max_message_bits"] <= p["budget_bits"] for p in protocols
        ),
        "churn_applied_to_message_protocols": (
            by_name["routing"]["joins"] > 0
            and by_name["routing"]["leaves"] > 0
            and by_name["broadcast"]["leaves"] > 0
        ),
        "routes_completed_under_churn": completed >= 1,
        "broadcast_made_progress_under_churn": coverage >= 2,
        "aggregations_lossless_without_churn": all(
            by_name[name]["dropped_messages"] == 0 for name in ("sum", "amf")
        ),
    }

    artifact = BenchmarkArtifact(
        benchmark="e11_congest",
        config=dict(ARENA, quick=quick_mode(), budget_bits=budget),
        wall_seconds=sum(p["wall_seconds"] for p in protocols),
        rows=protocols,
        checks=checks,
    )
    out_dir = Path(artifact_dir())
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = out_dir / "BENCH_e11_congest.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    print(f"[e11-arena] routes completed={completed}/{ARENA['route_pairs']} "
          f"broadcast coverage={coverage}")
    print(f"[e11-arena] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"congest arena checks failed: {failed}"
