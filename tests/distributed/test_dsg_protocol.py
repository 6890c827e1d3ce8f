"""Property tests for the distributed DSG protocol (repro.distributed.dsg_protocol).

The keystone guarantee of the local-op kernel refactor: on the same
request sequence — with and without churn — the message-passing protocol
reaches the **same topology** and charges the **same total cost** as the
centralized :class:`~repro.core.dsg.DynamicSkipGraph`, with zero CONGEST
violations and every message within the ``c * log2 n`` bit budget.

PR 10 adds failure-aware adjustment: a crash *between* a plan's route
and execute phases (``crash_dark`` fired through ``mid_request_fault``)
must never apply a stale op — the driver repairs the hole structurally
and either re-anchors the plan against the post-repair topology or
abandons it with explicit accounting, and the planner-equivalence
invariants hold again afterwards.  PR 16 made the sequential driver the
``window=1`` case of the one serve loop, so the failure-aware tests run at
window 1 and 4: an armed fault hook or an open dark hole is a pipeline
barrier at every depth.
"""

import math

import pytest

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed import DistributedDSG, skip_graph_network
from repro.simulation.engine import SimulationError
from repro.simulation.message import congest_budget_bits
from repro.skipgraph import verify_skip_graph_integrity
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    churn_scenario,
    scenario_requests,
    workload_scenario,
)


def _assert_matches_centralized(driver, report):
    assert driver.topology_matches_planner()
    assert driver.network_matches_topology()
    for outcome in report.outcomes:
        assert outcome.measured_distance == outcome.planned_distance, (
            outcome.source,
            outcome.destination,
        )
    assert report.matches_planner
    assert report.congestion_violations == 0
    assert report.dropped_messages == 0


class TestDistributedMatchesCentralized:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_without_churn(self, seed):
        keys = list(range(1, 33))
        scenario = workload_scenario("temporal", keys, 50, seed=seed, working_set_size=6)
        driver = DistributedDSG(keys, config=DSGConfig(seed=seed), seed=1, strict=True)
        report = driver.run_scenario(scenario)
        assert report.requests == 50
        _assert_matches_centralized(driver, report)

        # The same schedule on a stand-alone centralized instance lands on
        # the identical topology and total cost (the planner is not special).
        reference = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
        for u, v in scenario_requests(scenario):
            reference.request(u, v, keep_result=False)
        assert reference.graph.membership_table() == driver.topology.membership_table()
        assert reference.total_cost() == report.total_cost

    @pytest.mark.parametrize("seed", [7, 19])
    def test_with_churn(self, seed):
        scenario = churn_scenario(
            n=32, length=70, seed=seed, churn_rate=0.12, base="temporal", working_set_size=6
        )
        assert scenario.join_count > 0 and scenario.leave_count > 0
        driver = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=seed), seed=2, strict=True
        )
        report = driver.run_scenario(scenario)
        assert report.joins == scenario.join_count
        assert report.leaves == scenario.leave_count
        assert report.final_nodes == 32 + report.joins - report.leaves
        _assert_matches_centralized(driver, report)

    def test_membership_bits_are_message_driven(self):
        """Every surviving process ends with the topology's bit vector while
        the driver never pushes bits — only op arrivals rewrite them."""
        scenario = churn_scenario(
            n=24, length=50, seed=5, churn_rate=0.1, base="temporal", working_set_size=5
        )
        driver = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=5), seed=3, strict=True
        )
        driver.run_scenario(scenario)
        for key, process in driver.processes.items():
            assert process.bits == driver.topology.membership(key).bits, key

    def test_repeated_request_costs_one_round_trip(self):
        """The steady state survives the wire: a repeated pair routes over
        zero intermediate nodes, exactly like the centralized fast path."""
        driver = DistributedDSG(range(1, 33), config=DSGConfig(seed=4), seed=1, strict=True)
        first = driver.request(5, 21)
        second = driver.request(5, 21)
        assert second.measured_distance == 0
        assert second.cost < first.cost


class TestCongestConformance:
    def test_budget_and_violation_counters(self):
        """In lenient mode the counters agree with strict mode's silence:
        zero violations, zero drops, all messages within c * log2 n bits."""
        scenario = churn_scenario(
            n=32, length=60, seed=13, churn_rate=0.1, base="temporal", working_set_size=6
        )
        driver = DistributedDSG(scenario.initial_keys, config=DSGConfig(seed=13), seed=4, strict=False)
        report = driver.run_scenario(scenario)
        assert report.congestion_violations == 0
        assert report.dropped_messages == 0
        assert report.max_message_bits <= congest_budget_bits(32)
        assert report.messages > 0 and report.total_bits > 0

    def test_quiescent_memory_is_logarithmic(self):
        """Once drained, each process holds O(log n) words: neighbour table,
        bit vector and constants — no queue residue."""
        n = 64
        driver = DistributedDSG(range(1, n + 1), config=DSGConfig(seed=8), seed=1, strict=True)
        for u, v in [(3, 60), (17, 44), (3, 60)]:
            driver.request(u, v)
        bound = 8 * math.ceil(math.log2(n)) + 16
        for process in driver.processes.values():
            assert not process.outgoing
            assert process.memory_words() <= bound

    def test_rounds_cover_route_and_dissemination(self):
        driver = DistributedDSG(range(1, 17), config=DSGConfig(seed=2), seed=1, strict=True)
        outcome = driver.request(1, 16)
        # At least one round per routing hop and one per dissemination wave.
        assert outcome.rounds >= outcome.measured_distance + 1
        assert outcome.ops_executed > 0  # a first contact always restructures


class TestDriverLifecycle:
    def test_dummy_processes_are_installed_and_destroyed(self):
        """Dummies created by plans get processes (they relay and destroy
        themselves on notification); removed dummies leave the population."""
        scenario = churn_scenario(
            n=32, length=80, seed=23, churn_rate=0.15, base="temporal", working_set_size=6
        )
        driver = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=23), seed=5, strict=True
        )
        driver.run_scenario(scenario)
        # The process population tracks the executed topology exactly
        # (real nodes and surviving dummies alike).
        assert set(driver.processes) == set(driver.topology.keys)
        assert set(driver.topology.dummy_keys()) == set(driver.planner.graph.dummy_keys())
        # Only dummies receive self-destruction notices, and any dummy a
        # *request plan* destroyed had flagged itself before retirement.
        destroyed = [
            process for process in driver.sim.retired.values()
            if getattr(process, "destroyed", False)
        ]
        assert all(process.is_dummy for process in destroyed)

    def test_join_installs_a_routable_process(self):
        driver = DistributedDSG(range(1, 17), config=DSGConfig(seed=6), seed=1, strict=True)
        driver.join(100)
        assert 100 in driver.processes
        outcome = driver.request(1, 100)
        assert outcome.measured_distance == outcome.planned_distance

    def test_leave_retires_the_process(self):
        driver = DistributedDSG(range(1, 17), config=DSGConfig(seed=6), seed=1, strict=True)
        driver.leave(9)
        assert 9 not in driver.processes
        assert 9 in driver.sim.retired
        assert not driver.sim.network.has_node(9)

    def test_network_starts_as_rebuilt(self):
        driver = DistributedDSG(range(1, 33), config=DSGConfig(seed=1), seed=1)
        rebuilt = skip_graph_network(driver.topology)
        assert {frozenset(e) for e in driver.sim.network.edges()} == {
            frozenset(e) for e in rebuilt.edges()
        }


def _assert_consistent(driver):
    assert driver.topology_matches_planner()
    assert driver.network_matches_topology()
    assert not verify_skip_graph_integrity(driver.topology, driver.sim.network)


@pytest.fixture(params=[1, 4], ids=["window1", "window4"])
def make_driver(request):
    def make(seed=9, n=32):
        return DistributedDSG(
            range(1, n + 1),
            config=DSGConfig(seed=seed),
            seed=seed,
            strict=True,
            window=request.param,
        )

    return make


class TestRejectedEvent:
    """``run_scenario`` checks the schedule against the driver's own
    population (its ``PLAYS`` row) before it plans anything; a misfit the
    check cannot see — one a ``mid_request_fault`` hook makes mid-run —
    is still deferred until the plans made before it have been served."""

    @pytest.mark.parametrize(
        "misfit",
        [RequestEvent(3, 3), JoinEvent(5), RecoveryEvent(5)],
        ids=["self-loop", "join-of-a-live-key", "recovery-of-a-live-key"],
    )
    def test_a_misfit_schedule_is_rejected_before_anything_is_served(self, misfit):
        driver = DistributedDSG(keys=range(1, 17), seed=1)
        start = driver.sim.round
        with pytest.raises(ValueError, match=r"^event 1 "):
            driver.run_scenario(Scenario("misfit", [], [RequestEvent(1, 2), misfit]))
        assert driver.costs.requests == 0
        assert driver.sim.round == start
        assert not driver.outcomes

    def test_the_population_checked_is_the_drivers_own(self):
        driver = DistributedDSG(keys=range(1, 17), seed=1)
        driver.join(100)
        driver.crash(7)
        with pytest.raises(ValueError, match=r"^event 0 .* key 7 is down"):
            driver.run_scenario(Scenario("stale", [], [RequestEvent(1, 7)]))
        schedule = [RequestEvent(100, 3), RecoveryEvent(7), RequestEvent(7, 2)]
        report = driver.run_scenario(Scenario("continued", [], schedule))
        assert report.requests == 2 and report.recoveries == 1
        _assert_consistent(driver)

    @pytest.mark.parametrize("window", [2, 4])
    def test_a_hook_crash_of_a_later_endpoint_defers_the_rejection(self, window):
        """The fault hook crashes 33 while (5, 60) is in flight; (9, 20) is
        planned next, then the planner rejects (11, 33).  (9, 20) is served
        before the rejection propagates; (11, 33) and (12, 50) are not."""
        driver = DistributedDSG(
            range(1, 65), config=DSGConfig(seed=1), seed=1, strict=True, window=window
        )
        driver.request(3, 42)
        driver.mid_request_fault = lambda: driver.crash_dark(33)
        schedule = [RequestEvent(5, 60), RequestEvent(9, 20), RequestEvent(11, 33), RequestEvent(12, 50)]
        with pytest.raises(KeyError):
            driver.run_scenario(Scenario("hook", [], schedule))
        assert [(o.source, o.destination) for o in driver.outcomes] == [(3, 42), (5, 60), (9, 20)]
        _assert_consistent(driver)
        assert driver.report().matches_planner
        outcome = driver.request(9, 20)
        assert outcome.measured_distance == outcome.planned_distance == 0
        _assert_consistent(driver)


class TestFailureAwareAdjustment:
    @pytest.fixture(autouse=True)
    def _bind(self, make_driver):
        self._driver = make_driver

    def test_crash_dark_defers_repair_to_the_next_request(self):
        driver = self._driver()
        driver.crash_dark(16)
        assert driver.dark_keys == {16}
        outcome = driver.request(3, 30)
        assert not driver.dark_keys  # repaired at request entry
        assert driver.crashes == 1
        assert not driver.topology.has_node(16)
        assert outcome.measured_distance == outcome.planned_distance
        _assert_consistent(driver)

    def test_mid_request_crash_reanchors_the_plan(self):
        """A victim untouched by the plan's ops dies between route and
        execute: the hole is closed structurally and the plan re-anchors
        against the post-repair topology — no stale op is ever applied.
        The pair is warmed first so the plan is local to it: a cold first
        contact restructures half the arena and any victim is a stale
        subject, which is the abandon path tested below."""
        driver = self._driver()
        driver.request(3, 30)
        driver.request(3, 30)
        driver.mid_request_fault = lambda: driver.crash_dark(16)
        outcome = driver.request(3, 30)
        assert driver.reanchored_plans == 1
        assert driver.abandoned_plans == 0
        assert outcome.ops_executed > 0  # the salvaged plan still landed
        assert not driver.dark_keys
        assert driver.mid_request_fault is None  # one-shot hook
        _assert_consistent(driver)
        # The reseated planner keeps serving equivalently.
        follow_up = driver.request(5, 28)
        assert follow_up.measured_distance == follow_up.planned_distance
        report = driver.report()
        assert report.congestion_violations == 0 and report.dropped_messages == 0
        assert report.matches_planner

    def test_mid_request_crash_of_the_source_abandons_the_plan(self):
        driver = self._driver()
        driver.mid_request_fault = lambda: driver.crash_dark(3)
        outcome = driver.request(3, 30)
        assert driver.abandoned_plans == 1
        assert driver.reanchored_plans == 0
        assert outcome.ops_executed == 0
        assert outcome.transformation_rounds == 0
        _assert_consistent(driver)
        assert driver.report().matches_planner  # abandoned cost was refunded

    def test_mid_request_crash_of_an_op_subject_abandons_the_plan(self):
        """A first-contact plan restructures around its endpoints; killing
        the destination makes its ops stale-subject and the plan must be
        dropped, never applied against the repaired graph."""
        driver = self._driver()
        driver.mid_request_fault = lambda: driver.crash_dark(30)
        outcome = driver.request(3, 30)
        assert driver.abandoned_plans == 1
        assert outcome.ops_executed == 0
        assert not driver.topology.has_node(30)
        _assert_consistent(driver)
        assert driver.report().matches_planner

    def test_crash_then_recover_rejoins_as_fresh_identity(self):
        driver = self._driver()
        before = driver.topology.membership(16).bits
        driver.crash_dark(16)
        driver.recover(16)
        assert driver.recoveries == 1
        assert driver.topology.has_node(16)
        assert 16 in driver.processes and 16 not in driver.sim.crashed
        _assert_consistent(driver)
        # The fresh identity serves in both directions.
        outcome = driver.request(16, 27)
        assert outcome.measured_distance == outcome.planned_distance
        back = driver.request(2, 16)
        assert back.measured_distance == back.planned_distance
        # Identity is fresh: bits are drawn anew, not restored (they may
        # coincide by chance at low heights, so only document the draw).
        assert driver.topology.membership(16).bits is not before

    def test_crash_dark_rejects_unknown_keys(self):
        driver = self._driver()
        with pytest.raises(SimulationError):
            driver.crash_dark(999)

    def test_crash_of_an_unknown_key_is_rejected_before_anything_mutates(self):
        """``crash(999)`` used to kill 999 in the engine and only then fail
        in the planner, banning the key from ever joining."""
        driver = self._driver()
        with pytest.raises(SimulationError):
            driver.crash(999)
        assert driver.sim.crashed == frozenset() and driver.crashes == 0
        assert not driver.dark_keys
        _assert_consistent(driver)
        driver.join(999)  # the key was never banned
        assert 999 in driver.processes
        _assert_consistent(driver)

    def test_crash_of_a_dummy_is_rejected_before_anything_mutates(self):
        """``crash(<dummy>)`` used to kill the dummy's process and links
        before the planner refused, leaving the network off the topology."""
        driver = self._driver(seed=23)
        for u, v in [(1, 30), (5, 21), (9, 17), (2, 31), (12, 27), (7, 19), (3, 25)]:
            driver.request(u, v)
            if driver.topology.dummy_keys():
                break
        dummy = next(iter(driver.topology.dummy_keys()))
        with pytest.raises(SimulationError):
            driver.crash(dummy)
        assert driver.sim.crashed == frozenset() and driver.crashes == 0
        assert not driver.dark_keys
        assert dummy in driver.processes
        _assert_consistent(driver)

    def test_a_dark_key_cannot_leave_and_its_hole_is_settled(self):
        """``crash_dark(16); leave(16)`` used to succeed and keep 16 dark,
        so the *next* request died repairing a node that was gone.  Every
        event now settles open holes first: the leave finds no such peer
        and says so at once, and the driver keeps serving."""
        driver = self._driver()
        driver.crash_dark(16)
        with pytest.raises(KeyError):
            driver.leave(16)
        assert not driver.dark_keys and driver.leaves == 0
        assert not driver.topology.has_node(16)
        _assert_consistent(driver)
        outcome = driver.request(3, 30)
        assert outcome.measured_distance == outcome.planned_distance
        _assert_consistent(driver)

    def test_a_fault_armed_before_a_schedule_is_a_barrier(self):
        """Multi-event variant: the hook is armed before a 6-request
        ``run_scenario``.  It fires inside the first request, which is
        alone in flight (nothing older, nothing younger admitted before it
        applied); the rest of the schedule then serves normally."""
        driver = self._driver()
        driver.request(3, 30)
        driver.request(3, 30)
        driver.mid_request_fault = lambda: driver.crash_dark(16)
        pairs = [(3, 30), (5, 28), (7, 26), (9, 24), (3, 30), (11, 22)]
        scenario = Scenario(
            name="armed",
            initial_keys=list(range(1, 33)),
            events=[RequestEvent(u, v) for u, v in pairs],
        )
        report = driver.run_scenario(scenario)
        assert report.requests == 8
        assert report.reanchored_plans == 1 and report.abandoned_plans == 0
        assert driver.mid_request_fault is None and not driver.dark_keys
        trace = report.admission_trace
        assert [record.index for record in trace] == list(range(8))
        fenced = trace[2]  # the two warm-ups came first
        assert fenced.in_flight == 1
        assert fenced.admit_round >= trace[1].apply_round
        assert all(record.admit_round >= fenced.apply_round for record in trace[3:])
        if report.window > 1:
            assert report.max_in_flight > 1  # overlap resumed behind the barrier
        assert report.matches_planner
        assert report.congestion_violations == 0 and report.dropped_messages == 0
        _assert_consistent(driver)

    def test_scenario_events_drive_crash_and_recovery(self):
        events = [
            RequestEvent(1, 30),
            CrashEvent(17),
            RequestEvent(2, 29),
            RecoveryEvent(17),
            RequestEvent(17, 30),
        ]
        scenario = Scenario(name="crash-recover", initial_keys=list(range(1, 33)), events=events)
        driver = self._driver()
        report = driver.run_scenario(scenario)
        assert report.crashes == 1 and report.recoveries == 1
        assert report.requests == 3
        assert report.matches_planner
        assert report.congestion_violations == 0 and report.dropped_messages == 0
        _assert_consistent(driver)
