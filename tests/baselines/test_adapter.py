"""Tests for the unified algorithm adapter layer (baselines.adapter).

Covers the two properties the adapter refactor promises:

* **Streaming == retained.** Every aggregate a streaming
  (``keep_costs=False``) run reports equals the sum over the retained
  per-request costs of an identical retained run — for the raw
  :class:`BaselineRun` counters (hypothesis property) and for every
  algorithm end to end.
* **Cache == scan.** The static baselines' cached per-pair routing
  distances equal the scan-based executable specification
  (``route_reference``) on randomized graphs, including across
  join/leave cache invalidations.

Plus the churn-capable driving contract: all five algorithms replay the
same churn schedule — and the same crash/recovery schedule — through
``run_scenario`` with consistent accounting, and SplayNet's single-walk
serving fast path agrees with its reference tree helpers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BaselineRun,
    DSGAdapter,
    DirectLinkOracle,
    OfflineStaticBaseline,
    RequestCost,
    SplayNetBaseline,
    StaticSkipGraphBaseline,
    make_comparison_algorithms,
)
from repro.core.dsg import DSGConfig
from repro.simulation.rng import make_rng
from repro.skipgraph.routing import route_reference
from repro.workloads import (
    churn_scenario,
    failure_scenario,
    generate_workload,
    run_scenario,
    scenario_requests,
)

KEYS = list(range(1, 33))

cost_lists = st.lists(
    st.builds(
        RequestCost,
        source=st.integers(1, 50),
        destination=st.integers(1, 50),
        routing=st.integers(0, 40),
        adjustment=st.integers(0, 25),
    ),
    max_size=60,
)


class TestBaselineRunStreaming:
    @given(costs=cost_lists)
    @settings(max_examples=60, deadline=None)
    def test_streaming_counters_equal_retained_sums(self, costs):
        retained = BaselineRun(name="r", keep_costs=True)
        streaming = BaselineRun(name="s", keep_costs=False)
        for cost in costs:
            retained.record(cost)
            streaming.record(cost)

        assert retained.costs == costs
        assert streaming.costs == []
        # The retained list is the ground truth; both counter sets must match it.
        for run in (retained, streaming):
            assert run.requests == len(costs)
            assert run.total_routing == sum(c.routing for c in costs)
            assert run.total_adjustment == sum(c.adjustment for c in costs)
            assert run.total_cost == sum(c.total for c in costs)
            assert run.max_routing == max((c.routing for c in costs), default=0)

    @given(costs=cost_lists)
    @settings(max_examples=30, deadline=None)
    def test_prefilled_cost_list_seeds_counters(self, costs):
        run = BaselineRun(name="x", costs=list(costs))
        assert run.requests == len(costs)
        assert run.total_cost == sum(c.total for c in costs)

    def test_empty_streaming_run(self):
        run = BaselineRun(name="x", keep_costs=False)
        assert run.average_cost == 0.0
        assert run.routing_series() == []


def build_algorithms(requests, seed=11):
    return make_comparison_algorithms(KEYS, requests, seed=seed)


class TestStreamingEqualsRetained:
    @pytest.mark.parametrize("workload", ["hot-pairs", "temporal", "uniform"])
    def test_every_algorithm_streams_exactly(self, workload):
        requests = generate_workload(workload, KEYS, 120, seed=7)
        retained_algos = build_algorithms(requests)
        streaming_algos = build_algorithms(requests)
        for retained_algo, streaming_algo in zip(retained_algos, streaming_algos):
            retained = retained_algo.serve(requests, keep_costs=True)
            streaming = streaming_algo.serve(requests, keep_costs=False)
            assert retained.name == streaming.name
            assert streaming.costs == []
            assert streaming.requests == retained.requests == len(requests)
            assert streaming.total_routing == sum(c.routing for c in retained.costs)
            assert streaming.total_adjustment == sum(c.adjustment for c in retained.costs)
            assert streaming.total_cost == sum(c.total for c in retained.costs)

    def test_lifetime_counters_accumulate_across_serves(self):
        requests = generate_workload("hot-pairs", KEYS, 60, seed=3)
        algo = StaticSkipGraphBaseline(KEYS, topology="balanced")
        first = algo.serve(requests)
        second = algo.serve(requests)
        assert algo.requests_served == 120
        assert algo.total_cost == first.total_cost + second.total_cost


class TestCachedRoutingEqualsScanReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_static_random_graphs(self, seed):
        baseline = StaticSkipGraphBaseline(KEYS, topology="random", rng=make_rng(seed))
        rng = make_rng(100 + seed)
        pairs = [tuple(rng.sample(KEYS, 2)) for _ in range(40)]
        for source, destination in pairs:
            expected = route_reference(baseline.graph, source, destination).distance
            assert baseline.routing_cost(source, destination) == expected
            # Second lookup hits the cache and must agree.
            assert baseline.routing_cost(source, destination) == expected

    def test_offline_static_graph(self):
        requests = generate_workload("hot-pairs", KEYS, 150, seed=5)
        baseline = OfflineStaticBaseline(KEYS, requests, rng=make_rng(9))
        rng = make_rng(77)
        for source, destination in [tuple(rng.sample(KEYS, 2)) for _ in range(25)]:
            expected = route_reference(baseline.graph, source, destination).distance
            assert baseline.routing_cost(source, destination) == expected

    def test_cache_invalidated_on_churn(self):
        baseline = StaticSkipGraphBaseline(KEYS, topology="random", rng=make_rng(4))
        rng = make_rng(42)
        pairs = [tuple(rng.sample(KEYS, 2)) for _ in range(20)]
        for pair in pairs:
            baseline.routing_cost(*pair)  # warm the cache
        baseline.join(100)
        baseline.leave(KEYS[5])
        survivors = [p for p in pairs if KEYS[5] not in p]
        for source, destination in survivors:
            expected = route_reference(baseline.graph, source, destination).distance
            assert baseline.routing_cost(source, destination) == expected
        assert baseline.population() == len(KEYS)  # +1 join, -1 leave


class TestChurnCapableAdapters:
    def test_all_five_absorb_a_churn_schedule(self):
        scenario = churn_scenario(n=32, length=300, seed=13, base="temporal", churn_rate=0.05)
        requests = scenario_requests(scenario)
        expected_population = 32 + scenario.join_count - scenario.leave_count
        for algorithm in make_comparison_algorithms(scenario.initial_keys, requests, seed=13):
            report = run_scenario(scenario, algorithm=algorithm, keep_costs=True)
            assert report.requests == scenario.request_count
            assert algorithm.population() == expected_population
            assert report.total_cost >= report.requests  # Equation 1: >= 1 each
        # churn_scenario with this seed must actually churn for the test to bite
        assert scenario.join_count > 0

    def test_all_five_absorb_a_crash_and_recovery_schedule(self):
        # A crash plays as a leave and a recovery as a join, on every
        # algorithm (routing a RecoveryEvent to ``leave`` is a KeyError on
        # the already-crashed key).
        scenario = failure_scenario(
            n=32, length=300, seed=7, crash_rate=0.03, stale_fraction=0.0,
            recovery_fraction=0.7, recovery_delay=(4, 24),
        )
        assert scenario.crash_count > 0 and scenario.recovery_count > 0
        requests = scenario_requests(scenario)
        expected_population = 32 - scenario.crash_count + scenario.recovery_count
        for algorithm in make_comparison_algorithms(scenario.initial_keys, requests, seed=7):
            report = run_scenario(scenario, algorithm=algorithm, keep_costs=True)
            assert report.requests == scenario.request_count == len(report.costs)
            assert report.crashes == scenario.crash_count
            assert report.recoveries == scenario.recovery_count
            assert report.joins == report.leaves == 0
            assert report.final_nodes == algorithm.population() == expected_population

    def test_run_scenario_with_baseline_algorithm(self):
        scenario = churn_scenario(n=32, length=200, seed=31, base="hot-pairs", churn_rate=0.03)
        algorithm = SplayNetBaseline(scenario.initial_keys)
        report = run_scenario(scenario, algorithm=algorithm, keep_costs=True)
        assert report.algorithm == "splaynet"
        assert report.requests == scenario.request_count
        assert report.total_cost == sum(cost.total for cost in report.costs)
        assert report.working_set_bound == 0.0  # only DSG tracks it
        assert algorithm.is_valid_bst()

    def test_run_scenario_rejects_config_with_explicit_algorithm(self):
        scenario = churn_scenario(n=32, length=50, seed=1, churn_rate=0.0)
        with pytest.raises(ValueError):
            run_scenario(scenario, DSGConfig(seed=1), algorithm=DirectLinkOracle(KEYS))

    def test_reused_adapter_reports_per_scenario_ws_bound(self):
        # working_set_bound (like every other report field) must cover only
        # the scenario just served, even when one adapter serves several.
        first = churn_scenario(n=32, length=120, seed=5, base="temporal", churn_rate=0.0)
        second = churn_scenario(n=32, length=120, seed=6, base="temporal", churn_rate=0.0)
        adapter = DSGAdapter(keys=first.initial_keys, config=DSGConfig(seed=3))
        report_one = run_scenario(first, algorithm=adapter)
        report_two = run_scenario(second, algorithm=adapter)
        lifetime_bound = adapter.working_set_bound()
        assert report_one.working_set_bound > 0
        assert report_two.working_set_bound > 0
        assert report_one.working_set_bound + report_two.working_set_bound == pytest.approx(lifetime_bound)
        assert report_two.requests == second.request_count

    def test_oracle_tracks_population(self):
        oracle = DirectLinkOracle(KEYS)
        oracle.join(100)
        oracle.leave(1)
        assert oracle.population() == len(KEYS)
        with pytest.raises(ValueError):
            oracle.join(100)
        with pytest.raises(KeyError):
            oracle.leave(999)


class TestSplayNetFastPathAndChurn:
    def test_fast_path_agrees_with_reference_helpers(self):
        net = SplayNetBaseline(KEYS)
        rng = make_rng(17)
        for _ in range(150):
            u, v = rng.sample(KEYS, 2)
            expected_routing = max(0, net.tree_distance(u, v) - 1)
            cost = net.request(u, v)
            assert cost.routing == expected_routing
            assert net.is_valid_bst()

    def test_join_inserts_as_leaf_and_keeps_bst(self):
        net = SplayNetBaseline(KEYS)
        net.join(100)
        assert net.population() == len(KEYS) + 1
        assert net.is_valid_bst()
        assert net.request(100, 1).routing >= 0
        with pytest.raises(ValueError):
            net.join(100)

    @pytest.mark.parametrize("victim_picker", ["leaf", "root", "inner"])
    def test_leave_handles_every_node_shape(self, victim_picker):
        net = SplayNetBaseline(KEYS)
        net.request(5, 20)  # deform the tree a bit first
        if victim_picker == "root":
            victim = net.root.key
        elif victim_picker == "leaf":
            node = net.root
            while node.left is not None or node.right is not None:
                node = node.left if node.left is not None else node.right
            victim = node.key
        else:
            victim = 13
        net.leave(victim)
        assert net.population() == len(KEYS) - 1
        assert net.is_valid_bst()
        assert victim not in net.in_order()
        with pytest.raises(KeyError):
            net.leave(victim)

    def test_leave_refuses_to_empty_the_tree(self):
        net = SplayNetBaseline([7])
        with pytest.raises(ValueError):
            net.leave(7)

    def test_structure_walks_survive_degenerate_spines(self):
        # Splay trees degenerate to Θ(n)-deep spines; height()/in_order()
        # must stay iterative so scale runs cannot hit the recursion limit.
        import sys

        depth = sys.getrecursionlimit() + 500
        net = SplayNetBaseline([1], adjust=False)
        for key in range(2, depth + 2):
            net.join(key)  # sorted inserts build a right spine
        assert net.height() == depth + 1
        assert net.in_order() == list(range(1, depth + 2))
        assert net.is_valid_bst()
