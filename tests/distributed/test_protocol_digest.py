"""The message-level protocols' observable output, pinned as SHA-256 digests.

The routing, list-broadcast, distributed-sum and AMF protocols are what
E5, E6, E11 and E12 run on the CONGEST simulator.  This test runs each of
them over a fixed seeded sweep at small ``n`` and hashes everything a
caller can observe: the outcome (route path, broadcast coverage, sum total,
AMF median and its Lemma 1 verdict) and the six traffic counters (rounds,
messages, total bits, largest message, congestion violations, drops).  The
AMF sweep includes inputs with many tied values.  A second schedule
installs one generation of every protocol on a shared engine, retires it
and reruns the next generation on the reused engine (after churn, for
routing), hashing every process's outcome and the rerun's own counters
(``Simulator.reset_metrics`` installs a fresh collector before it).

A refactor of the protocols (or of the structural code they call) must
reproduce the pins bit for bit.  Everything hashed is ``repr`` of ints,
floats, strings, booleans and tuples of them, so the digests do not depend
on the Python version or on hash seeds.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.local_ops import NodeLeaveOp
from repro.distributed import (
    apply_join,
    apply_local_op,
    install_amf,
    install_broadcast,
    install_routing,
    install_sum,
    run_amf_protocol,
    run_list_broadcast,
    run_routing_protocol,
    run_sum_protocol,
    segment_network,
    skip_graph_network,
    trace_route,
)
from repro.simulation import Network, Simulator, SimulatorConfig
from repro.simulation.rng import make_rng
from repro.skipgraph import build_skip_graph
from repro.skiplist import BalancedSkipList

pytestmark = pytest.mark.protocols

#: Final digest per schedule, recorded before the protocols were refactored.
PINNED = {
    "one-shot": "391b224c91091a341feb4741bb9a4e8a7fcfda12c3bc0be188df8c369917cd2c",
    "reused-engine": "658c775336a42e49a4c825105bc62174c688e0238b2b809a7f6613a4e1eddf23",
}

#: The six traffic counters, by their names on ``MetricsCollector``.
TRAFFIC = ("rounds", "messages", "total_bits", "max_message_bits",
           "congestion_violations", "dropped_messages")


def _traffic(source) -> tuple:
    """The counters of ``source.metrics``: a ``run_*`` result's, or a reused
    simulator's since its ``reset_metrics()``."""
    return tuple(getattr(source.metrics, name) for name in TRAFFIC)


def _amf_values(n: int, seed: int, tied: bool) -> dict:
    rng = make_rng(seed)
    if tied:  # a handful of distinct values, each held by many nodes
        return {i: float(rng.randrange(3)) for i in range(1, n + 1)}
    return {i: float(rng.randrange(10 * n)) for i in range(1, n + 1)}


def _one_shot():
    """Records of one-shot ``run_*`` calls over a seeded sweep."""
    for n in (2, 3, 9, 24, 57):
        graph = build_skip_graph(range(1, n + 1), make_rng(n))
        rng = make_rng(100 + n)
        for _ in range(3):
            source, destination = rng.randrange(1, n + 1), rng.randrange(1, n + 1)
            result = run_routing_protocol(graph, source, destination, seed=n)
            yield ("routing", n, source, destination, tuple(result.path), _traffic(result))

    for n, initiator in ((1, 1), (2, 2), (17, 1), (17, 9), (40, 40)):
        result = run_list_broadcast(list(range(1, n + 1)), initiator, seed=n)
        yield ("broadcast", n, initiator, tuple(result.reached), _traffic(result))

    for n in (1, 2, 11, 48, 130):
        for a in (2, 3, 4):
            items = list(range(1, n + 1))
            skiplist = BalancedSkipList(items, a=a, rng=make_rng(n + a))
            rng = make_rng(n * a)
            values = {item: float(rng.randrange(100)) for item in items}
            result = run_sum_protocol(skiplist, values, seed=n)
            yield ("sum", n, a, result.total, result.received_by_all, _traffic(result))

    for n in (2, 3, 5, 16, 41, 97, 160):
        for a in (2, 3, 4, 8):
            for tied in (False, True):
                values = _amf_values(n, seed=7 * n + a, tied=tied)
                result = run_amf_protocol(values, a=a, seed=n + a)
                lemma1 = result.satisfies_lemma1(list(values.values()), a)
                yield ("amf", n, a, tied, result.median, result.n, lemma1, _traffic(result))


def _reused_engine():
    """Two generations of every protocol on one engine, ``retire_all()`` between."""
    graph = build_skip_graph(range(1, 41), make_rng(3))
    sim = Simulator(skip_graph_network(graph), SimulatorConfig(seed=3))
    install_routing(sim, graph, {1: [40], 7: [22]})
    sim.run()
    sim.retire_all()
    rng = make_rng(4)
    apply_local_op(sim, graph, NodeLeaveOp(22))
    apply_join(sim, graph, 100, rng)
    sim.reset_metrics()
    routers = install_routing(sim, graph, {2: [39, 100], 100: [5]})
    sim.run()
    paths = tuple(tuple(trace_route(routers, s, d)) for s, d in ((2, 39), (2, 100), (100, 5)))
    results = tuple(
        (key, "reached" if process.completed else None) for key, process in routers.items()
    )
    yield ("routing", paths, results, _traffic(sim))

    members = list(range(1, 31))
    network = Network()
    for key in members:
        network.add_node(key)
    for left, right in zip(members, members[1:]):
        network.add_link(left, right, label="list")
    sim = Simulator(network, SimulatorConfig(seed=5))
    install_broadcast(sim, members, 12)
    sim.run()
    sim.retire_all()
    sim.reset_metrics()
    processes = install_broadcast(sim, members, 30)
    sim.run()
    reached = tuple(key for key, process in processes.items() if process.received)
    yield ("broadcast", reached, _traffic(sim))

    for n, a in ((64, 2), (90, 4)):
        items = list(range(1, n + 1))
        skiplist = BalancedSkipList(items, a=a, rng=make_rng(n))
        sim = Simulator(segment_network(skiplist), SimulatorConfig(seed=n))
        install_sum(sim, skiplist, {item: 1.0 for item in items})
        sim.run()
        sim.retire_all()
        sim.reset_metrics()
        processes = install_sum(sim, skiplist, {item: float(item) for item in items})
        sim.run()
        totals = tuple((key, process.total) for key, process in processes.items())
        yield ("sum", n, a, totals, _traffic(sim))

        for tied in (False, True):
            sim = Simulator(segment_network(skiplist), SimulatorConfig(seed=n))
            install_amf(sim, skiplist, _amf_values(n, seed=n, tied=not tied), a=a)
            sim.run()
            sim.retire_all()
            sim.reset_metrics()
            processes = install_amf(sim, skiplist, _amf_values(n, seed=n + 1, tied=tied), a=a)
            sim.run()
            medians = tuple((key, process.median) for key, process in processes.items())
            yield ("amf", n, a, tied, medians, _traffic(sim))


SCHEDULES = {"one-shot": _one_shot, "reused-engine": _reused_engine}


def digest(name: str) -> str:
    hasher = hashlib.sha256()
    for record in SCHEDULES[name]():
        hasher.update(repr(record).encode())
    return hasher.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_protocol_output_matches_the_pinned_digest(name):
    assert digest(name) == PINNED[name]


if __name__ == "__main__":  # re-record: python tests/distributed/test_protocol_digest.py
    for schedule in sorted(PINNED):
        print(f'    "{schedule}": "{digest(schedule)}",')
