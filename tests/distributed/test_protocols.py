"""Tests for the message-level protocols (CONGEST conformance, E11)."""

import math

import pytest

from repro.core.amf import approximate_median
from repro.core.local_ops import NodeLeaveOp
from repro.distributed import (
    apply_join,
    apply_local_op,
    install_amf,
    install_routing,
    install_sum,
    make_router,
    run_amf_protocol,
    run_list_broadcast,
    run_routing_protocol,
    run_sum_protocol,
    segment_network,
    skip_graph_network,
    trace_route,
)
from repro.distributed.sum_protocol import segment_tree
from repro.simulation import Simulator, SimulatorConfig
from repro.simulation.message import WORD_BITS
from repro.simulation.rng import make_rng
from repro.skipgraph import build_balanced_skip_graph, route
from repro.skiplist import BalancedSkipList


def congest_budget(n: int, words: int = 8) -> int:
    """A generous c * log2(n) message-size budget in bits."""
    return words * WORD_BITS * max(1, math.ceil(math.log2(max(n, 2))))


class TestRoutingProtocol:
    def test_path_matches_structural_routing(self):
        graph = build_balanced_skip_graph(range(1, 33))
        for source, destination in [(1, 32), (17, 4), (8, 9)]:
            protocol = run_routing_protocol(graph, source, destination, seed=1)
            structural = route(graph, source, destination)
            assert protocol.path == structural.path
            assert protocol.distance == structural.distance

    def test_rounds_equal_hops(self):
        graph = build_balanced_skip_graph(range(1, 65))
        protocol = run_routing_protocol(graph, 1, 64, seed=2)
        assert protocol.rounds == protocol.hops

    def test_congest_conformance(self):
        graph = build_balanced_skip_graph(range(1, 65))
        protocol = run_routing_protocol(graph, 3, 62, seed=3)
        assert protocol.congestion_violations == 0
        assert protocol.max_message_bits <= congest_budget(64)

    def test_self_route(self):
        graph = build_balanced_skip_graph(range(1, 9))
        protocol = run_routing_protocol(graph, 5, 5, seed=4)
        assert protocol.path == [5]
        assert protocol.distance == 0

    def test_concurrent_routes_trace_independently(self):
        """Routes to distinct destinations crossing shared nodes keep their
        own forwarding records, so each trace matches the structural path."""
        graph = build_balanced_skip_graph(range(1, 33))
        sim = Simulator(skip_graph_network(graph), SimulatorConfig(seed=4, max_rounds=1_000))
        processes = install_routing(sim, graph, {1: [32], 2: [31], 16: [3]})
        metrics = sim.run()
        assert metrics.congestion_violations == 0
        for source, destination in [(1, 32), (2, 31), (16, 3)]:
            assert trace_route(processes, source, destination) == route(
                graph, source, destination
            ).path
            assert processes[destination].result == "reached"


class TestBroadcastProtocol:
    def test_everyone_reached(self):
        members = list(range(1, 41))
        result = run_list_broadcast(members, initiator=17)
        assert sorted(result.reached) == members

    def test_rounds_bounded_by_list_span(self):
        members = list(range(1, 41))
        result = run_list_broadcast(members, initiator=1)
        assert result.rounds <= len(members) + 2

    def test_initiator_must_be_member(self):
        with pytest.raises(ValueError):
            run_list_broadcast([1, 2, 3], initiator=9)

    def test_congest_conformance(self):
        result = run_list_broadcast(list(range(1, 60)), initiator=30)
        assert result.congestion_violations == 0
        assert result.max_message_bits <= congest_budget(60)

    def test_single_member_list(self):
        result = run_list_broadcast([5], initiator=5)
        assert result.reached == [5]


class TestSumProtocol:
    def test_segment_tree_structure(self):
        skiplist = BalancedSkipList(list(range(50)), a=4, rng=make_rng(1))
        parents = segment_tree(skiplist)
        assert parents[skiplist.root] is None
        # Every non-root node has a parent that appears earlier in list order.
        for child, parent in parents.items():
            if parent is not None:
                assert parent < child or parent == skiplist.root

    def test_total_is_exact(self):
        items = list(range(1, 81))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(2))
        result = run_sum_protocol(skiplist, {item: item for item in items}, seed=2)
        assert result.total == sum(items)
        assert result.received_by_all

    def test_missing_value_rejected(self):
        items = list(range(10))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(3))
        with pytest.raises(ValueError):
            run_sum_protocol(skiplist, {item: 1 for item in items[:-1]})

    def test_congest_conformance_and_rounds(self):
        items = list(range(1, 200))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(4))
        result = run_sum_protocol(skiplist, {item: 1.0 for item in items}, seed=4)
        assert result.congestion_violations == 0
        assert result.max_message_bits <= congest_budget(len(items))
        # Convergecast + broadcast over a tree of logarithmic depth.
        assert result.rounds <= 6 * skiplist.height + 10


def _window_of(sim, checkpoint):
    return sim.metrics.window(checkpoint)


class TestChurnSafeRestarts:
    """Lifecycle correctness under engine reuse (the PR's acceptance property):
    running a protocol, churning the topology, and rerunning on the *same*
    engine must reproduce a fresh simulator on the post-churn topology."""

    KEYS = range(1, 33)

    def _churn(self, sim, graph, rng):
        apply_local_op(sim, graph, NodeLeaveOp(7))
        apply_local_op(sim, graph, NodeLeaveOp(20))
        apply_join(sim, graph, 100, rng)
        apply_join(sim, graph, 101, rng)

    def test_routing_rerun_after_churn_matches_fresh_simulator(self):
        graph = build_balanced_skip_graph(self.KEYS)
        sim = Simulator(skip_graph_network(graph), SimulatorConfig(seed=5))
        install_routing(sim, graph, {1: [32]})
        sim.run()
        pre_churn = _window_of(sim, 0)
        assert pre_churn["congestion_violations"] == 0 and pre_churn["rounds"] > 0

        sim.retire_all()
        self._churn(sim, graph, make_rng(13))

        # Post-churn rerun on the reused engine...
        checkpoint = sim.round
        reused_processes = install_routing(sim, graph, {2: [31]})
        sim.run()
        reused_window = _window_of(sim, checkpoint)
        reused_path = trace_route(reused_processes, 2, 31)

        # ...must equal a fresh simulator built on the post-churn topology.
        fresh_sim = Simulator(skip_graph_network(graph), SimulatorConfig(seed=5))
        fresh_processes = install_routing(fresh_sim, graph, {2: [31]})
        fresh_sim.run()
        fresh_window = _window_of(fresh_sim, 0)
        fresh_path = trace_route(fresh_processes, 2, 31)

        assert reused_path == fresh_path
        assert reused_window == fresh_window
        assert reused_processes[31].result == fresh_processes[31].result == "reached"

    def test_rewired_network_matches_rebuilt_network(self):
        graph = build_balanced_skip_graph(self.KEYS)
        sim = Simulator(skip_graph_network(graph), SimulatorConfig(seed=5))
        self._churn(sim, graph, make_rng(13))
        rebuilt = skip_graph_network(graph)
        assert set(sim.network.nodes) == set(rebuilt.nodes)
        assert {frozenset(edge) for edge in sim.network.edges()} == {
            frozenset(edge) for edge in rebuilt.edges()
        }
        for u, v in rebuilt.edges():
            assert sim.network.labels(u, v) == rebuilt.labels(u, v)

    def test_sum_rerun_on_reused_engine_matches_fresh(self):
        items = list(range(1, 65))
        skiplist = BalancedSkipList(items, a=4, rng=make_rng(6))
        values = {item: float(item) for item in items}

        sim = Simulator(segment_network(skiplist), SimulatorConfig(seed=6))
        install_sum(sim, skiplist, values)
        sim.run()
        first = _window_of(sim, 0)

        sim.retire_all()
        checkpoint = sim.round
        processes = install_sum(sim, skiplist, values)
        sim.run()
        second = _window_of(sim, checkpoint)

        assert second == first
        assert processes[skiplist.root].total == sum(values.values())

    def test_amf_rerun_on_reused_engine_matches_fresh(self):
        rng = make_rng(8)
        values = {i: float(rng.random()) for i in range(1, 65)}
        skiplist = BalancedSkipList(list(values), a=4, rng=make_rng(8))

        sim = Simulator(segment_network(skiplist), SimulatorConfig(seed=8))
        first_gen = install_amf(sim, skiplist, values, a=4)
        sim.run()
        first = _window_of(sim, 0)
        first_median = first_gen[skiplist.root].median

        sim.retire_all()
        checkpoint = sim.round
        second_gen = install_amf(sim, skiplist, values, a=4)
        sim.run()
        second = _window_of(sim, checkpoint)

        assert second == first
        assert second_gen[skiplist.root].median == first_median

    def test_router_joiner_routes_after_initialization(self):
        graph = build_balanced_skip_graph(self.KEYS)
        sim = Simulator(
            skip_graph_network(graph),
            SimulatorConfig(seed=9, strict_links=False, max_rounds=1_000),
        )
        install_routing(sim, graph)

        def join(s):
            apply_join(s, graph, 200, make_rng(3))
            s.add_process(make_router(graph, 200, requests=[1]))

        sim.schedule(2, join)
        sim.run()
        assert sim.process(1).result == "reached"
        assert sim.metrics.congestion_violations == 0


class TestAMFProtocol:
    def test_matches_structural_amf_quality(self):
        rng = make_rng(5)
        values = {i: float(rng.randrange(1000)) for i in range(1, 129)}
        protocol = run_amf_protocol(values, a=4, seed=5)
        assert protocol.satisfies_lemma1(list(values.values()), a=4)
        structural = approximate_median(values, a=4, rng=make_rng(5))
        assert structural.satisfies_lemma1(4)

    def test_small_input_rejected(self):
        with pytest.raises(ValueError):
            run_amf_protocol({1: 1.0}, a=4)
        with pytest.raises(ValueError):
            run_amf_protocol({1: 1.0, 2: 2.0}, a=1)

    def test_congest_conformance(self):
        rng = make_rng(6)
        values = {i: float(rng.random()) for i in range(1, 200)}
        protocol = run_amf_protocol(values, a=4, seed=6)
        assert protocol.congestion_violations == 0
        assert protocol.max_message_bits <= congest_budget(len(values))

    def test_rounds_scale_gently_with_n(self):
        rounds = {}
        for n in (64, 256):
            rng = make_rng(n)
            values = {i: float(rng.random()) for i in range(n)}
            rounds[n] = run_amf_protocol(values, a=4, seed=n).rounds
        assert rounds[256] <= rounds[64] * 4

    def test_median_is_an_input_value(self):
        values = {i: float(i * 3 % 17) for i in range(1, 50)}
        protocol = run_amf_protocol(values, a=4, seed=7)
        assert protocol.median in set(values.values())
