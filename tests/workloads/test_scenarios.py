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
    failure_scenario,
    run_scenario,
    scale_scenario,
)
from repro.workloads.scenarios import PLAYS, replay_population


class TestChurnScenario:
    @pytest.mark.parametrize("base", ["temporal", "hot-pairs", "uniform"])
    def test_schedule_is_valid_and_deterministic(self, base):
        first = churn_scenario(n=48, length=400, seed=7, base=base, churn_rate=0.05)
        second = churn_scenario(n=48, length=400, seed=7, base=base, churn_rate=0.05)
        assert first.events == second.events
        assert len(first.events) == 400
        replay_population(first, "run_scenario")
        assert first.join_count > 0

    def test_unknown_base_rejected(self):
        with pytest.raises(KeyError):
            churn_scenario(n=48, length=10, seed=1, base="nope")

    def test_run_scenario_accounting(self):
        scenario = churn_scenario(n=48, length=400, seed=3, base="temporal", churn_rate=0.04)
        report = run_scenario(scenario, DSGConfig(seed=5), keep_costs=True)
        costs = report.costs
        assert costs.requests == scenario.request_count
        assert report.joins == scenario.join_count
        assert report.leaves == scenario.leave_count
        assert report.final_nodes == report.initial_nodes + report.joins - report.leaves
        assert costs.name == "dsg"
        assert len(costs.costs) == costs.requests
        assert costs.total_cost == sum(cost.total for cost in costs.costs)
        assert costs.total_routing == sum(cost.routing for cost in costs.costs)
        assert costs.average_cost == pytest.approx(costs.total_cost / costs.requests)
        assert report.elapsed_seconds > 0

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
        assert [cost.total for cost in report.costs.costs] == [result.cost for result in by_hand]
        assert [cost.routing for cost in report.costs.costs] == [r.routing_cost for r in by_hand]
        assert report.costs.total_cost == dsg.total_cost()
        assert adapter.dsg.graph.membership_table() == dsg.graph.membership_table()


class TestScaleScenario:
    def test_schedule_shape(self):
        scenario = scale_scenario(
            n=512, length=1200, seed=19, hot_pair_count=8, cross_pair_count=2,
            flash_count=2, crowd_size=6, churn_rate=0.01,
        )
        assert len(scenario.events) == 1200
        alive = replay_population(scenario, "run_scenario")
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
        assert report.costs.requests == scenario.request_count
        assert report.requests_per_second > 0
        assert report.final_nodes == report.initial_nodes + report.joins - report.leaves


class TestRunScenarioBoundary:
    """``run_scenario`` rejects a schedule that does not fit its population
    before it builds or serves anything."""

    def test_a_stale_destination_raises_before_any_request_is_served(self):
        scenario = failure_scenario(n=32, length=300, seed=7, crash_rate=0.03)
        down, stale = set(), None
        for index, event in enumerate(scenario.events):
            if isinstance(event, CrashEvent):
                down.add(event.key)
            elif isinstance(event, RecoveryEvent):
                down.discard(event.key)
            elif event.destination in down:
                stale = index
                break
        # Requests come before it, so a late check would serve some first.
        assert stale is not None and any(isinstance(e, RequestEvent) for e in scenario.events[:stale])
        adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=7))
        with pytest.raises(ValueError, match=f"event {stale} .* is down"):
            run_scenario(scenario, algorithm=adapter)
        assert adapter.requests_served == 0

    @pytest.mark.parametrize(
        "events, state",
        [
            ([RequestEvent(1, 2), RequestEvent(99, 2)], "not a member"),
            ([RequestEvent(1, 2), RequestEvent(1, 99)], "not a member"),
            ([LeaveEvent(5), RequestEvent(5, 2)], "not a member"),
            ([RequestEvent(1, 2), JoinEvent(5)], "alive"),
            ([RequestEvent(1, 2), LeaveEvent(99)], "not a member"),
            ([CrashEvent(5), CrashEvent(5)], "down"),
            ([CrashEvent(5), JoinEvent(5)], "down"),
            ([RequestEvent(1, 2), RecoveryEvent(5)], "alive"),
            ([RequestEvent(1, 2), RequestEvent(3, 3)], "a self-loop"),
        ],
        ids=["unknown-source", "unknown-destination", "departed-source", "join-of-a-member",
             "leave-of-a-stranger", "crash-of-a-down-key", "join-of-a-down-key", "recovery-of-a-live-key",
             "self-loop"],
    )
    def test_a_misfit_event_raises_naming_its_index(self, events, state):
        scenario = Scenario(name="misfit", initial_keys=list(range(1, 17)), events=events)
        adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=1))
        with pytest.raises(ValueError, match=f"event 1 .* is {state}"):
            run_scenario(scenario, algorithm=adapter)
        assert adapter.requests_served == 0 and adapter.population() == 16


@pytest.mark.engine
class TestReplayScenario:
    """The bridge from join/leave schedules to the CONGEST simulator."""

    @staticmethod
    def _arena(n=32, seed=5):
        from repro.distributed import skip_graph_network
        from repro.simulation import Simulator, SimulatorConfig
        from repro.skipgraph import build_balanced_skip_graph

        graph = build_balanced_skip_graph(range(1, n + 1))
        network = skip_graph_network(graph)
        simulator = Simulator(
            network,
            SimulatorConfig(seed=seed, strict=False, max_rounds=10_000),
        )
        return graph, simulator

    def test_join_and_leave_events_rewire_the_network(self):
        from repro.distributed import skip_graph_network

        graph, simulator = self._arena()
        scenario = churn_scenario(n=32, length=40, seed=11, churn_rate=0.5)
        replay_scenario(simulator, scenario, graph=graph)
        assert scenario.join_count > 0 and scenario.leave_count > 0
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
        expected = 32 + scenario.join_count - scenario.leave_count
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
        first = simulator.round
        replay_scenario(simulator, scenario, process_factory=Recorder, graph=graph)
        simulator.run()
        assert started == [(40, first)]
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
        assert not simulator.network.has_node(5)

    def test_requests_are_skipped_and_churn_needs_a_graph(self):
        """Requests are the caller's and go unchecked: one naming a key that
        never joined (e11's join-free broadcast wave keeps those) replays."""
        graph, simulator = self._arena()
        scenario = Scenario(
            name="requests", initial_keys=list(range(1, 33)),
            events=[RequestEvent(1, 2), JoinEvent(40), RequestEvent(3, 99), LeaveEvent(5)],
            params={"seed": 3},
        )
        replay_scenario(simulator, scenario, graph=graph)
        simulator.run()
        # One round per membership event; requests consume none.
        assert simulator.round == 2
        assert simulator.network.has_node(40) and not simulator.network.has_node(5)

        churny = Scenario(
            name="churny", initial_keys=list(range(1, 33)),
            events=[JoinEvent(50)], params={},
        )
        with pytest.raises(ValueError):
            replay_scenario(simulator, churny)  # no graph mirror given

    @pytest.mark.parametrize("failure", [CrashEvent(5), RecoveryEvent(5)], ids=["crash", "recovery"])
    def test_crash_and_recovery_events_raise_before_anything_is_scheduled(self, failure):
        """Crash-stop schedules belong to the failure arena: the replay
        rejects them up front, so not even the join ahead of them lands."""
        graph, simulator = self._arena()
        scenario = Scenario(
            name="failure", initial_keys=list(range(1, 33)),
            events=[JoinEvent(40), failure, RequestEvent(1, 2)], params={"seed": 3},
        )
        with pytest.raises(ValueError, match="run_failure_arena"):
            replay_scenario(simulator, scenario, graph=graph)
        simulator.run()
        assert simulator.round == 0
        assert 40 not in graph and not simulator.network.has_node(40)
        assert 5 not in simulator.crashed and simulator.network.has_node(5)

    def test_a_misfit_membership_event_raises_before_anything_is_scheduled(self):
        """The leave of a stranger is rejected up front, so the join ahead of
        it does not land either."""
        graph, simulator = self._arena()
        scenario = Scenario(
            name="misfit", initial_keys=list(range(1, 33)),
            events=[JoinEvent(40), LeaveEvent(99)], params={"seed": 3},
        )
        with pytest.raises(ValueError, match="event 1 .* is not a member"):
            replay_scenario(simulator, scenario, graph=graph)
        simulator.run()
        assert simulator.round == 0
        assert 40 not in graph and not simulator.network.has_node(40)

    def test_second_wave_joins_do_not_collide_with_first_wave(self):
        first = churn_scenario(n=32, length=60, seed=1, churn_rate=0.5)
        alive = replay_population(first, "run_scenario")
        second = churn_scenario(length=60, seed=2, churn_rate=0.5,
                                initial_keys=sorted(alive))
        assert set(second.initial_keys) == alive
        first_joins = {e.key for e in first.events if isinstance(e, JoinEvent)}
        second_joins = {e.key for e in second.events if isinstance(e, JoinEvent)}
        assert not (first_joins & second_joins)
        replay_population(second, "run_scenario")


#: One event of each kind that fits keys 1..16 where it stands.
SAMPLES = {
    RequestEvent: RequestEvent(1, 2),
    JoinEvent: JoinEvent(40),
    LeaveEvent: LeaveEvent(5),
    CrashEvent: CrashEvent(5),
    RecoveryEvent: RecoveryEvent(5),
}

UNPLAYED = [
    pytest.param(runner, kind, id=f"{runner}-{kind.__name__}")
    for runner, (kinds, _) in PLAYS.items()
    for kind in SAMPLES
    if kind is not RequestEvent and kind not in kinds
]


class TestPlaysTable:
    """Each runner rejects, before it builds, schedules or serves anything, a
    kind its row of ``PLAYS`` does not play, and names the runners that do."""

    def test_every_kind_has_a_player(self):
        assert set().union(*(kinds for kinds, _ in PLAYS.values())) == set(SAMPLES)

    @pytest.mark.parametrize("runner, kind", UNPLAYED)
    def test_an_unplayed_kind_raises_at_the_boundary(self, runner, kind, monkeypatch):
        kinds, _ = PLAYS[runner]
        scenario = Scenario(
            name="unplayed", initial_keys=list(range(1, 17)),
            events=[SAMPLES[kinds[0]], SAMPLES[kind]], params={"seed": 3},
        )
        error = getattr(self, runner)(scenario, monkeypatch)
        assert f"event 1 ({SAMPLES[kind]!r}): {runner} does not play" in str(error)
        players = [name for name, (played, _) in PLAYS.items() if kind in played]
        assert players and all(name in str(error) for name in players)

    def run_scenario(self, scenario, monkeypatch):
        adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=1))
        with pytest.raises(ValueError) as raised:
            run_scenario(scenario, algorithm=adapter)
        assert adapter.requests_served == 0 and adapter.population() == 16
        return raised.value

    def run_failure_arena(self, scenario, monkeypatch):
        import repro.distributed.failover as failover

        built = []
        monkeypatch.setattr(failover, "Simulator", lambda *args, **kwargs: built.append(args))
        with pytest.raises(ValueError) as raised:
            failover.run_failure_arena(scenario, k=2, seed=1)
        assert built == []
        return raised.value

    def replay_scenario(self, scenario, monkeypatch):
        graph, simulator = TestReplayScenario._arena(n=16)
        with pytest.raises(ValueError) as raised:
            replay_scenario(simulator, scenario, graph=graph)
        simulator.run()
        assert simulator.round == 0 and len(simulator.network) == len(graph) == 16
        return raised.value
