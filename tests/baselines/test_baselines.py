"""Tests for the comparison baselines."""

import math
import random

import pytest

from repro.baselines import (
    BaselineRun,
    DirectLinkOracle,
    OfflineStaticBaseline,
    RequestCost,
    SplayNetBaseline,
    StaticSkipGraphBaseline,
)
from repro.simulation.rng import make_rng
from repro.workloads import generate_workload

KEYS = list(range(1, 33))


class TestRequestCostAndRun:
    def test_total_follows_equation_1(self):
        cost = RequestCost(source=1, destination=2, routing=4, adjustment=10)
        assert cost.total == 15

    def test_run_aggregates(self):
        run = BaselineRun(name="x")
        run.record(RequestCost(1, 2, routing=3))
        run.record(RequestCost(2, 3, routing=5, adjustment=2))
        assert run.requests == 2
        assert run.total_routing == 8
        assert run.total_adjustment == 2
        assert run.total_cost == 8 + 2 + 2
        assert run.average_routing == 4.0
        assert run.routing_series() == [3, 5]

    def test_empty_run_averages_are_zero(self):
        run = BaselineRun(name="x")
        assert run.average_cost == 0.0
        assert run.average_routing == 0.0


class TestStaticSkipGraph:
    def test_topology_choices(self):
        random_baseline = StaticSkipGraphBaseline(KEYS, topology="random", rng=make_rng(1))
        balanced_baseline = StaticSkipGraphBaseline(KEYS, topology="balanced")
        assert balanced_baseline.height() == math.ceil(math.log2(len(KEYS))) + 1
        assert random_baseline.graph.is_valid()
        with pytest.raises(ValueError):
            StaticSkipGraphBaseline(KEYS, topology="weird")

    def test_serve_records_every_request(self):
        baseline = StaticSkipGraphBaseline(KEYS, topology="balanced")
        requests = generate_workload("uniform", KEYS, 50, seed=1)
        run = baseline.serve(requests)
        assert run.requests == 50
        assert run.total_adjustment == 0
        assert all(cost.routing >= 0 for cost in run.costs)

    def test_static_costs_are_stable_under_repetition(self):
        baseline = StaticSkipGraphBaseline(KEYS, topology="balanced")
        pair = (1, 30)
        first = baseline.routing_cost(*pair)
        again = baseline.routing_cost(*pair)
        assert first == again

    def test_logarithmic_worst_case(self):
        baseline = StaticSkipGraphBaseline(range(1, 129), topology="balanced")
        worst = max(baseline.routing_cost(1, d) for d in range(2, 129))
        assert worst <= 2 * 7  # 2 log2 n


class TestOracle:
    def test_every_request_costs_one(self):
        oracle = DirectLinkOracle()
        run = oracle.serve([(1, 2), (3, 4)])
        assert run.total_cost == 2
        assert run.total_routing == 0


class TestOfflineStatic:
    def test_respects_height_bound(self):
        requests = generate_workload("hot-pairs", KEYS, 200, seed=2)
        baseline = OfflineStaticBaseline(KEYS, requests, rng=make_rng(3))
        assert baseline.height() == math.ceil(math.log2(len(KEYS))) + 1
        baseline.graph.validate()

    def test_beats_random_static_on_skewed_traffic(self):
        requests = generate_workload("hot-pairs", KEYS, 300, seed=5, hot_fraction=1.0)
        offline = OfflineStaticBaseline(KEYS, requests, rng=make_rng(3))
        static = StaticSkipGraphBaseline(KEYS, topology="random", rng=make_rng(4))
        offline_cost = offline.serve(requests).total_routing
        static_cost = static.serve(requests).total_routing
        assert offline_cost <= static_cost

    def test_handles_tiny_population(self):
        baseline = OfflineStaticBaseline([1, 2], [(1, 2)], rng=make_rng(1))
        run = baseline.serve([(1, 2), (2, 1)])
        assert run.total_routing == 0

    def test_missing_networkx_names_the_extra(self, monkeypatch):
        import sys

        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError, match="baselines"):
            OfflineStaticBaseline(KEYS, [(1, 2)], rng=make_rng(1))


class TestSplayNet:
    def test_initial_tree_is_balanced_bst(self):
        net = SplayNetBaseline(KEYS)
        assert net.is_valid_bst()
        assert net.height() <= math.ceil(math.log2(len(KEYS))) + 1

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            SplayNetBaseline([])

    def test_unknown_endpoint_rejected(self):
        net = SplayNetBaseline(KEYS)
        with pytest.raises(KeyError):
            net.request(1, 999)

    def test_request_preserves_bst_property(self):
        net = SplayNetBaseline(KEYS)
        rng = random.Random(1)
        for _ in range(200):
            u, v = rng.sample(KEYS, 2)
            net.request(u, v)
            assert net.is_valid_bst()

    def test_repeated_pair_becomes_adjacent(self):
        net = SplayNetBaseline(KEYS)
        net.request(5, 29)
        cost = net.request(5, 29)
        assert cost.routing == 0  # adjacent: path length 1, no intermediates

    def test_adjustment_counts_rotations(self):
        net = SplayNetBaseline(KEYS)
        cost = net.request(1, 32)
        assert cost.adjustment == net.rotations
        assert cost.adjustment > 0

    def test_static_variant_never_rotates(self):
        net = SplayNetBaseline(KEYS, adjust=False)
        before = net.height()
        run = net.serve(generate_workload("uniform", KEYS, 50, seed=7))
        assert net.rotations == 0
        assert run.total_adjustment == 0
        assert net.height() == before

    def test_self_request_costs_zero_routing(self):
        net = SplayNetBaseline(KEYS)
        cost = net.request(4, 4)
        assert cost.routing == 0
        assert cost.adjustment == 0

    def test_lca_and_distance(self):
        net = SplayNetBaseline(range(1, 8))  # balanced: root 4
        assert net.lowest_common_ancestor(1, 3) == 2
        assert net.tree_distance(1, 3) == 2
        assert net.tree_distance(1, 1) == 0

    def test_splaynet_adapts_to_skew(self):
        requests = generate_workload("hot-pairs", KEYS, 400, seed=9, pairs=2, hot_fraction=1.0)
        adaptive = SplayNetBaseline(KEYS).serve(requests)
        static = SplayNetBaseline(KEYS, adjust=False).serve(requests)
        assert adaptive.total_routing < static.total_routing
