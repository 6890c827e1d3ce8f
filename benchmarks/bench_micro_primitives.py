"""Micro-benchmarks of the core primitives (true pytest-benchmark timings).

Unlike the experiment benches (which execute once and report the reproduced
rows), these measure the steady-state performance of the primitives a
downstream user calls in a tight loop: skip graph routing, one DSG request,
one AMF execution and one SplayNet request.

``test_routing_fastpath_speedup`` is also a gate: the cached O(expected
hops) ``route()`` must beat the scan-based executable specification
``route_reference()`` (the seed implementation) by at least 5x on a
10 000-node graph, and by at least 2x at 2 048 nodes under ``BENCH_QUICK=1``.
"""

import random
import time

import pytest
from conftest import quick_mode

from repro.baselines import SplayNetBaseline
from repro.core.amf import approximate_median
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph, route
from repro.skipgraph.routing import route_reference
from repro.workloads import generate_workload

N = 128
KEYS = list(range(1, N + 1))

if quick_mode():
    ROUTING_N = 2_048
    MIN_SPEEDUP = 2.0
else:
    ROUTING_N = 10_000
    MIN_SPEEDUP = 5.0


@pytest.fixture(scope="module")
def balanced_graph():
    return build_balanced_skip_graph(KEYS)


def test_skip_graph_routing(benchmark, balanced_graph):
    rng = random.Random(1)
    pairs = [tuple(rng.sample(KEYS, 2)) for _ in range(64)]

    def run():
        total = 0
        for source, destination in pairs:
            total += route(balanced_graph, source, destination).distance
        return total

    total = benchmark(run)
    assert total >= 0


def test_routing_fastpath_speedup(benchmark):
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
    print(f"\n[routing] fast={fast_elapsed*1e3:.2f}ms reference={reference_elapsed*1e3:.0f}ms speedup={speedup:.0f}x")
    assert speedup >= MIN_SPEEDUP


def test_dsg_single_request(benchmark):
    requests = generate_workload("temporal", KEYS, 400, seed=3, working_set_size=8)
    dsg = DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=3))
    dsg.run_sequence(requests[:100])  # warm up the grouping
    remaining = iter(requests[100:])

    def run():
        u, v = next(remaining)
        return dsg.request(u, v).cost

    cost = benchmark.pedantic(run, rounds=30, iterations=1)
    assert cost >= 1


def test_amf_median(benchmark):
    rng = make_rng(5)
    values = {i: float(rng.random()) for i in range(256)}

    def run():
        return approximate_median(values, a=4, rng=make_rng(7)).median

    median = benchmark(run)
    assert 0.0 <= median <= 1.0


def test_splaynet_request(benchmark):
    requests = generate_workload("hot-pairs", KEYS, 2000, seed=9)
    net = SplayNetBaseline(KEYS)
    iterator = iter(requests)

    def run():
        u, v = next(iterator)
        return net.request(u, v).total

    cost = benchmark.pedantic(run, rounds=200, iterations=1)
    assert cost >= 1
