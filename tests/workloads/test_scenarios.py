"""Tests for the churn-capable scenario layer (workloads.scenarios)."""

import pytest

from repro.baselines import DSGAdapter
from repro.core.dsg import DSGConfig
from repro.distributed import replay_scenario
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    churn_scenario,
    run_scenario,
    scale_scenario,
)


def replay_validity(scenario):
    """Every request references peers alive at that point of the schedule."""
    alive = set(scenario.initial_keys)
    for event in scenario.events:
        if isinstance(event, RequestEvent):
            assert event.source in alive and event.destination in alive
            assert event.source != event.destination
        elif isinstance(event, JoinEvent):
            assert event.key not in alive
            alive.add(event.key)
        else:
            assert event.key in alive
            alive.remove(event.key)
    return alive


class TestChurnScenario:
    @pytest.mark.parametrize("base", ["temporal", "hot-pairs", "uniform"])
    def test_schedule_is_valid_and_deterministic(self, base):
        first = churn_scenario(n=48, length=400, seed=7, base=base, churn_rate=0.05)
        second = churn_scenario(n=48, length=400, seed=7, base=base, churn_rate=0.05)
        assert first.events == second.events
        assert len(first.events) == 400
        replay_validity(first)
        assert first.join_count > 0

    def test_unknown_base_rejected(self):
        with pytest.raises(KeyError):
            churn_scenario(n=48, length=10, seed=1, base="nope")

    def test_run_scenario_accounting(self):
        scenario = churn_scenario(n=48, length=400, seed=3, base="temporal", churn_rate=0.04)
        report = run_scenario(scenario, DSGConfig(seed=5), keep_costs=True)
        assert report.requests == scenario.request_count
        assert report.joins == scenario.join_count
        assert report.leaves == scenario.leave_count
        assert report.final_nodes == report.initial_nodes + report.joins - report.leaves
        assert report.algorithm == "dsg"
        assert len(report.costs) == report.requests
        assert report.total_cost == sum(cost.total for cost in report.costs)
        assert report.total_routing_cost == sum(cost.routing for cost in report.costs)
        assert report.average_cost == pytest.approx(report.total_cost / report.requests)
        assert report.elapsed_seconds > 0
        assert report.max_height >= report.final_height

    def test_runner_matches_a_hand_loop_over_the_dsg(self):
        # The runner's specification: run_scenario == dsg.request /
        # add_node / remove_node called by hand, crash as a leave and
        # recovery as a join included.
        from repro.core.dsg import DynamicSkipGraph

        scenario = churn_scenario(n=32, length=250, seed=11, base="temporal", churn_rate=0.06)
        touched = {key for event in scenario.events for key in vars(event).values()}
        victim = next(key for key in scenario.initial_keys if key not in touched)
        scenario.events.insert(80, CrashEvent(victim))
        scenario.events.insert(160, RecoveryEvent(victim))
        adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=13))
        report = run_scenario(scenario, algorithm=adapter, keep_costs=True)

        dsg = DynamicSkipGraph(keys=scenario.initial_keys, config=DSGConfig(seed=13))
        by_hand = []
        for event in scenario.events:
            if isinstance(event, RequestEvent):
                by_hand.append(dsg.request(event.source, event.destination))
            elif isinstance(event, (JoinEvent, RecoveryEvent)):
                dsg.add_node(event.key)
            else:
                dsg.remove_node(event.key)
        assert (report.crashes, report.recoveries) == (1, 1)
        assert [cost.total for cost in report.costs] == [result.cost for result in by_hand]
        assert [cost.routing for cost in report.costs] == [r.routing_cost for r in by_hand]
        assert report.total_cost == dsg.total_cost()
        assert adapter.dsg.graph.membership_table() == dsg.graph.membership_table()


class TestScaleScenario:
    def test_schedule_shape(self):
        scenario = scale_scenario(
            n=512, length=1200, seed=19, hot_pair_count=8, cross_pair_count=2,
            flash_count=2, crowd_size=6, churn_rate=0.01,
        )
        assert len(scenario.events) == 1200
        alive = replay_validity(scenario)
        assert scenario.request_count + scenario.join_count + scenario.leave_count == 1200
        assert len(alive) == 512 + scenario.join_count - scenario.leave_count

    def test_warmup_prologue_touches_hot_pairs_first(self):
        scenario = scale_scenario(
            n=512, length=600, seed=23, hot_pair_count=8, cross_pair_count=2,
            flash_count=1, crowd_size=6, churn_rate=0.0,
        )
        prologue = scenario.events[:8]
        assert all(isinstance(event, RequestEvent) for event in prologue)
        seen_pairs = {frozenset((e.source, e.destination)) for e in prologue}
        assert len(seen_pairs) == 8

    def test_deterministic(self):
        first = scale_scenario(n=512, length=500, seed=29, hot_pair_count=8, crowd_size=6)
        second = scale_scenario(n=512, length=500, seed=29, hot_pair_count=8, crowd_size=6)
        assert first.events == second.events

    def test_runs_to_completion_small(self):
        scenario = scale_scenario(
            n=256, length=600, seed=31, hot_pair_count=8, cross_pair_count=1,
            flash_count=1, crowd_size=6, churn_rate=0.005,
        )
        report = run_scenario(scenario, DSGConfig(seed=7))
        assert report.requests == scenario.request_count
        assert report.requests_per_second > 0
        assert report.final_nodes == report.initial_nodes + report.joins - report.leaves


class TestReplayScenario:
    """The bridge from scenario schedules to the CONGEST simulator."""

    def _arena(self, n=32, seed=5):
        from repro.distributed import skip_graph_network
        from repro.simulation import Simulator, SimulatorConfig
        from repro.skipgraph import build_balanced_skip_graph

        graph = build_balanced_skip_graph(range(1, n + 1))
        network = skip_graph_network(graph)
        simulator = Simulator(
            network,
            SimulatorConfig(seed=seed, strict_links=False, strict_congest=False,
                            max_rounds=10_000),
        )
        return graph, simulator

    def test_join_and_leave_events_rewire_the_network(self):
        from repro.distributed import skip_graph_network

        graph, simulator = self._arena()
        scenario = churn_scenario(n=32, length=40, seed=11, churn_rate=0.5)
        replay = replay_scenario(simulator, scenario, graph=graph)
        assert replay.joins > 0 and replay.leaves > 0
        simulator.run()
        # The incrementally rewired network equals one rebuilt from scratch
        # off the mirrored skip graph (links and per-level labels).
        rebuilt = skip_graph_network(graph)
        assert set(simulator.network.nodes) == set(rebuilt.nodes)
        assert {frozenset(e) for e in simulator.network.edges()} == {
            frozenset(e) for e in rebuilt.edges()
        }
        for u, v in rebuilt.edges():
            assert simulator.network.labels(u, v) == rebuilt.labels(u, v)
        expected = 32 + replay.joins - replay.leaves
        assert len(simulator.network) == expected

    def test_joiner_process_factory_receives_on_start(self):
        from repro.simulation import NodeProcess

        started = []

        class Recorder(NodeProcess):
            def __init__(self, key):
                super().__init__(key)
                self.done = True

            def on_start(self, ctx):
                started.append((self.node_id, ctx.round))

            def on_round(self, ctx, inbox):
                pass

        graph, simulator = self._arena()
        scenario = Scenario(
            name="one-join", initial_keys=list(range(1, 33)),
            events=[JoinEvent(40)], params={"seed": 3},
        )
        replay = replay_scenario(simulator, scenario, process_factory=Recorder, graph=graph)
        simulator.run()
        assert started == [(40, replay.first_round)]
        assert 40 in simulator.processes

    def test_leaving_node_process_is_retired(self):
        from repro.distributed import install_routing

        graph, simulator = self._arena()
        install_routing(simulator, graph)  # every node runs a (passive) router
        scenario = Scenario(
            name="one-leave", initial_keys=list(range(1, 33)),
            events=[LeaveEvent(5)], params={"seed": 3},
        )
        replay_scenario(simulator, scenario, graph=graph)
        simulator.run()
        assert 5 not in simulator.processes
        assert 5 in simulator.retired
        assert not simulator.network.has_node(5)

    def test_requests_need_a_handler_and_churn_needs_a_graph(self):
        graph, simulator = self._arena()
        seen = []
        scenario = Scenario(
            name="requests", initial_keys=list(range(1, 33)),
            events=[RequestEvent(1, 2), RequestEvent(3, 4)], params={},
        )
        replay = replay_scenario(
            simulator, scenario,
            on_request=lambda sim, event: seen.append((event.source, event.destination)),
        )
        simulator.run()
        assert seen == [(1, 2), (3, 4)]
        assert replay.requests == 2

        churny = Scenario(
            name="churny", initial_keys=list(range(1, 33)),
            events=[JoinEvent(50)], params={},
        )
        with pytest.raises(ValueError):
            replay_scenario(simulator, churny)  # no graph mirror given

    def test_second_wave_joins_do_not_collide_with_first_wave(self):
        first = churn_scenario(n=32, length=60, seed=1, churn_rate=0.5)
        alive = replay_validity(first)
        second = churn_scenario(length=60, seed=2, churn_rate=0.5,
                                initial_keys=sorted(alive))
        assert set(second.initial_keys) == alive
        first_joins = {e.key for e in first.events if isinstance(e, JoinEvent)}
        second_joins = {e.key for e in second.events if isinstance(e, JoinEvent)}
        assert not (first_joins & second_joins)
        replay_validity(second)
