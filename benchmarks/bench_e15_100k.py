"""E15 benchmark: the 100k-node arena on the incremental churn path.

PR-5 broke the three O(n) scans on the churn path — membership-bit draws
now consult the graph's prefix-count index, a-balance repair rescans only
the lists each local op dirtied, and the CONGEST network is patched by
op-driven deltas instead of full rebuilds.  This benchmark is the cap: one
arena function exercising all three at 100,000 nodes, with the equivalence
contracts (index == scan, dirty-repair == full-repair, delta network ==
rebuilt network) asserted *inside* the run:

* **scale mix** — ``scale_scenario`` at 100k nodes / >= 100k requests with
  steady join/leave churn, served end to end by ``run_scenario``;
* **churn wave** — a second fresh 100k instance under ~20x the churn rate
  (the shape the incremental indexes exist for);
* **equivalence replay** — one 4096-node churn schedule served twice, on
  the shipping kernel and on the reference kernel of
  ``tests/reference/kernel_reference.py`` (op-by-op application, seed
  O(n)-scan join bits, full a-balance rescans); total cost, final topology
  and dummy population must be identical;
* **kernel parity** — a second churn schedule on both kernels with costs
  kept: identical request by request (routing and adjustment), identical
  final topology;
* **network delta** — a 100k-node ``skip_graph_network`` carried across a
  join/leave wave by :func:`~repro.distributed.routing_protocol.apply_network_delta`,
  then compared link-for-link (labels included) against a from-scratch
  rebuild of the final topology — and the delta maintenance must beat the
  rebuild wall-clock at full size;
* **routing under churn** — a live-simulator generation (4096 nodes) with
  route requests racing a replayed churn schedule over the delta-patched
  links: zero congestion violations.

The run writes ``BENCH_e15_100k.json`` (``algorithm`` rows, a routing
``protocol`` row, per-workload ``plan-size`` distributions) plus a
markdown report via ``publish_artifact``.  Under ``BENCH_QUICK=1`` every
shape shrinks so CI can gate on completion.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e15_100k.py -q -s
"""

import time
from pathlib import Path

from conftest import artifact_dir, ledger_row, publish_artifact, quick_mode, routing_under_churn
from reference.kernel_reference import ReferenceDynamicSkipGraph

from repro.analysis.artifacts import BenchmarkArtifact, plan_size_fields, render_comparison
from repro.baselines.adapter import DSGAdapter
from repro.core.dsg import DSGConfig
from repro.core.local_ops import NodeJoinOp, NodeLeaveOp
from repro.distributed import apply_network_delta, networks_equal, skip_graph_network
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph
from repro.skipgraph.build import draw_membership_bits
from repro.workloads import churn_scenario, run_scenario, scale_scenario

if quick_mode():
    SCALE = dict(n=512, length=3_000, seed=42, hot_pair_count=16, cross_pair_count=2,
                 flash_count=1, crowd_size=8, churn_rate=0.004)
    MIN_REQUESTS = 2_500
    WAVE = dict(n=512, length=800, seed=9, hot_pair_count=16, cross_pair_count=0,
                flash_count=0, crowd_size=8, churn_rate=0.02)
    EQUIV = dict(n=256, length=600, seed=7, churn_rate=0.02)
    PARITY = dict(n=128, length=400, seed=5, churn_rate=0.02)
    NET_N, NET_CHURN = 2_048, 60
    REPLAY = dict(n=256, churn_length=60, route_pairs=4, seed=42)
else:
    SCALE = dict(n=100_000, length=101_000, seed=42, hot_pair_count=64, cross_pair_count=2,
                 flash_count=2, crowd_size=12, churn_rate=0.0005)
    MIN_REQUESTS = 100_000
    WAVE = dict(n=100_000, length=6_000, seed=9, hot_pair_count=64, cross_pair_count=0,
                flash_count=0, crowd_size=12, churn_rate=0.01)
    EQUIV = dict(n=4_096, length=4_000, seed=7, churn_rate=0.01)
    PARITY = dict(n=1_024, length=2_000, seed=5, churn_rate=0.01)
    NET_N, NET_CHURN = 100_000, 200
    REPLAY = dict(n=4_096, churn_length=400, route_pairs=16, seed=42)


def _serve_workload(name, scenario):
    adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=1))
    report = run_scenario(scenario, algorithm=adapter)
    row = ledger_row(name, report, report.working_set_bound, adapter.phase_seconds())
    plans = {"kind": "plan-size", "name": name, **plan_size_fields(adapter.plan_size_histogram())}
    return report, row, plans


def _network_delta_phase(seed):
    """Carry a built network across a churn wave by op deltas; time a rebuild."""
    graph = build_balanced_skip_graph(range(1, NET_N + 1))
    started = time.perf_counter()
    network = skip_graph_network(graph)
    build_seconds = time.perf_counter() - started

    rng = make_rng(seed)
    next_key = NET_N + 1
    started = time.perf_counter()
    applied = 0
    for index in range(NET_CHURN):
        if index % 2 == 0:
            bits = draw_membership_bits(graph, next_key, rng)
            apply_network_delta(network, graph, [NodeJoinOp(next_key, tuple(bits))])
            next_key += 1
        else:
            victim = rng.choice(graph.keys)
            apply_network_delta(network, graph, [NodeLeaveOp(victim)])
        applied += 1
    delta_seconds = time.perf_counter() - started

    started = time.perf_counter()
    rebuilt = skip_graph_network(graph)
    rebuild_seconds = time.perf_counter() - started
    return {
        "ops": applied,
        "build_seconds": build_seconds,
        "delta_seconds": delta_seconds,
        "rebuild_seconds": rebuild_seconds,
        "equal": networks_equal(network, rebuilt),
    }


def test_e15_100k_arena(run_once):
    def arena():
        outcome = {}

        # ---- the 100k centralized arena: scale mix, then a churn wave ----
        scale = scale_scenario(**SCALE)
        assert scale.request_count >= MIN_REQUESTS
        assert scale.join_count > 0 and scale.leave_count > 0
        scale_report, scale_row, scale_plans = _serve_workload("scale-mix", scale)

        wave = scale_scenario(**WAVE)
        assert wave.join_count + wave.leave_count > 0
        wave_report, wave_row, wave_plans = _serve_workload("churn-wave", wave)
        outcome["reports"] = {"scale-mix": scale_report, "churn-wave": wave_report}
        outcome["rows"] = [scale_row, wave_row]
        outcome["plans"] = [scale_plans, wave_plans]

        # ---- equivalence replay: incremental path == full-scan path -----
        equiv = churn_scenario(**EQUIV)
        incremental = DSGAdapter(keys=equiv.initial_keys, config=DSGConfig(seed=3))
        incremental_report = run_scenario(equiv, algorithm=incremental)
        reference = DSGAdapter(
            dsg=ReferenceDynamicSkipGraph(keys=equiv.initial_keys, config=DSGConfig(seed=3))
        )
        reference_report = run_scenario(equiv, algorithm=reference)
        outcome["equivalence"] = {
            "total_cost": incremental_report.costs.total_cost == reference_report.costs.total_cost,
            "topology": (
                incremental.dsg.graph.membership_table()
                == reference.dsg.graph.membership_table()
            ),
            "dummies": incremental_report.dummy_count == reference_report.dummy_count,
            "incremental_seconds": incremental_report.elapsed_seconds,
            "reference_seconds": reference_report.elapsed_seconds,
        }

        # ---- bulk adjustment kernel == reference kernel, cost for cost --
        started = time.perf_counter()
        parity = churn_scenario(**PARITY)
        shipping = DSGAdapter(keys=parity.initial_keys, config=DSGConfig(seed=2))
        shipping_report = run_scenario(parity, algorithm=shipping, keep_costs=True)
        kernel_off = DSGAdapter(
            dsg=ReferenceDynamicSkipGraph(keys=parity.initial_keys, config=DSGConfig(seed=2))
        )
        kernel_off_report = run_scenario(parity, algorithm=kernel_off, keep_costs=True)
        outcome["kernel_parity"] = (
            shipping_report.costs.total_cost == kernel_off_report.costs.total_cost
            and shipping_report.costs.costs == kernel_off_report.costs.costs
            and shipping.dsg.graph.membership_table() == kernel_off.dsg.graph.membership_table()
        )
        outcome["parity_seconds"] = time.perf_counter() - started

        # ---- op-driven network deltas at 100k + routing under churn -----
        outcome["network"] = _network_delta_phase(SCALE["seed"])
        outcome["routing"], outcome["routes_completed"], _, _ = routing_under_churn(**REPLAY)
        return outcome

    outcome = run_once(arena)

    reports = outcome["reports"]
    network = outcome["network"]
    equivalence = outcome["equivalence"]
    routing = outcome["routing"]
    checks = {
        "scale_mix_served_full_schedule": reports["scale-mix"].costs.requests >= MIN_REQUESTS,
        "churn_absorbed_by_both_workloads": all(
            report.final_nodes == report.initial_nodes + report.joins - report.leaves
            for report in reports.values()
        ),
        "incremental_equals_full_rescan_cost": equivalence["total_cost"],
        "incremental_equals_full_rescan_topology": equivalence["topology"],
        "incremental_equals_full_rescan_dummies": equivalence["dummies"],
        "batched_kernel_cost_equals_reference_kernel": outcome["kernel_parity"],
        "delta_network_equals_rebuild": network["equal"],
        "delta_beats_rebuild_wall_clock": (
            quick_mode() or network["delta_seconds"] < network["rebuild_seconds"]
        ),
        "routing_zero_congestion_violations": routing["congestion_violations"] == 0,
        "routing_within_bit_budget": routing["max_message_bits"] <= routing["budget_bits"],
        "routes_completed_under_churn": outcome["routes_completed"] >= 1,
    }

    artifact = BenchmarkArtifact(
        benchmark="e15_100k",
        config=dict(
            scale=SCALE, wave=WAVE, equivalence=EQUIV, parity=PARITY,
            net_n=NET_N, net_churn=NET_CHURN, quick=quick_mode(),
            network_build_seconds=round(network["build_seconds"], 3),
            network_delta_seconds=round(network["delta_seconds"], 3),
            network_rebuild_seconds=round(network["rebuild_seconds"], 3),
            working_set_bound=reports["scale-mix"].working_set_bound,
        ),
        wall_seconds=sum(report.elapsed_seconds for report in reports.values())
        + equivalence["incremental_seconds"]
        + equivalence["reference_seconds"]
        + outcome["parity_seconds"]
        + network["delta_seconds"]
        + routing["wall_seconds"],
        rows=outcome["rows"] + [routing] + outcome["plans"],
        checks=checks,
    )
    out_dir = Path(artifact_dir())
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    md_path = out_dir / "BENCH_e15_100k.md"
    md_path.write_text(report_md)

    print()
    print(report_md)
    for name, report in reports.items():
        print(
            f"[e15-100k] {name:<12} n={report.initial_nodes} requests={report.costs.requests} "
            f"joins={report.joins} leaves={report.leaves} "
            f"elapsed={report.elapsed_seconds:.1f}s "
            f"throughput={report.requests_per_second:.0f} req/s "
            f"avg_cost={report.costs.average_cost:.1f} dummies={report.dummy_count}"
        )
    print(
        f"[e15-100k] equivalence replay: incremental "
        f"{equivalence['incremental_seconds']:.1f}s vs full-scan "
        f"{equivalence['reference_seconds']:.1f}s"
    )
    print(
        f"[e15-100k] network n={NET_N}: build {network['build_seconds']:.1f}s, "
        f"{network['ops']} churn ops via deltas {network['delta_seconds']:.2f}s, "
        f"rebuild {network['rebuild_seconds']:.1f}s"
    )
    print(f"[e15-100k] artifact={json_path} report={md_path}")

    assert json_path.exists() and md_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"e15 arena checks failed: {failed}"
