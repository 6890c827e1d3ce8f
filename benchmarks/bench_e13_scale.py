"""E13 scale benchmark: a 10k-node, 100k+-request scenario with churn.

Two measurements:

* ``test_e13_scale_scenario`` — the headline run: 10,000 nodes, >= 100,000
  requests (heavy-hitter pairs, far-pair trickle, two flash crowds, steady
  join/leave churn) executed end to end by ``run_scenario``, working-set
  tracking on.
* ``test_e13_routing_fastpath_speedup`` — the cached O(expected hops)
  ``route()`` against the scan-based executable specification
  ``route_reference()`` (the seed implementation) on a 10k-node graph.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_e13_scale.py -q

Under ``BENCH_QUICK=1`` the shapes shrink (512 nodes / 3k requests; routing
comparison at 2048 nodes) so CI can gate on completion.
"""

import time

from conftest import quick_mode

from repro.core.dsg import DSGConfig
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph
from repro.skipgraph.routing import route, route_reference
from repro.workloads import run_scenario, scale_scenario

if quick_mode():
    N = 512
    REQUESTS = 3_000
    MIN_SERVED = 2_500
    ROUTING_N = 2_048
    MIN_SPEEDUP = 2.0
else:
    N = 10_000
    REQUESTS = 101_000  # schedule slots; > 100k remain requests after churn slots
    MIN_SERVED = 100_000
    ROUTING_N = 10_000
    MIN_SPEEDUP = 5.0


def test_e13_scale_scenario(run_once):
    scenario = scale_scenario(
        n=N,
        length=REQUESTS,
        seed=42,
        hot_pair_count=64,
        cross_pair_count=2,
        flash_count=2,
        crowd_size=12,
        churn_rate=0.0003 if not quick_mode() else 0.004,
    )
    assert scenario.request_count >= MIN_SERVED
    report = run_once(run_scenario, scenario, DSGConfig(seed=1))
    assert report.costs.requests >= MIN_SERVED
    assert report.final_nodes == report.initial_nodes + report.joins - report.leaves
    assert report.joins > 0 and report.leaves > 0
    assert report.costs.average_cost > 0
    print(
        f"\n[e13-scale] n={report.initial_nodes} requests={report.costs.requests} "
        f"joins={report.joins} leaves={report.leaves} "
        f"elapsed={report.elapsed_seconds:.1f}s "
        f"throughput={report.requests_per_second:.0f} req/s "
        f"avg_cost={report.costs.average_cost:.1f} max_height={report.max_height} "
        f"dummies={report.dummy_count}"
    )


def test_e13_routing_fastpath_speedup(benchmark):
    graph = build_balanced_skip_graph(range(1, ROUTING_N + 1))
    rng = make_rng(7)
    pairs = [tuple(rng.sample(range(1, ROUTING_N + 1), 2)) for _ in range(64)]

    def fast():
        return sum(route(graph, u, v).distance for u, v in pairs)

    total_fast = benchmark(fast)

    started = time.perf_counter()
    total_reference = sum(route_reference(graph, u, v).distance for u, v in pairs)
    reference_elapsed = time.perf_counter() - started

    assert total_fast == total_reference
    fast_elapsed = benchmark.stats.stats.mean
    speedup = reference_elapsed / fast_elapsed
    print(f"\n[e13-routing] fast={fast_elapsed*1e3:.2f}ms reference={reference_elapsed*1e3:.0f}ms speedup={speedup:.0f}x")
    assert speedup >= MIN_SPEEDUP
