"""Differential tests for the distributed driver's one serve loop.

:class:`repro.distributed.DistributedDSG` may overlap up to ``window``
requests on the simulator, but the sequential two-phase driver of
``tests/reference/sequential_driver_reference.py`` is the executable spec:
on every tested schedule — at every conflict density, through crashes,
recoveries and mid-request faults — the shipped loop must land on the
byte-identical final topology, the same per-request routing cost, the same
total Equation-1 cost and the same messages, with zero congestion
violations and zero drops; at ``window=1`` also on the same rounds, per
request and in total.  The suite also proves the two lemmas the scheduler
rests on:

* **soundness** — the write sets fed to the conflict detector
  (:func:`repro.core.local_ops.apply_op_touched`) equal the affected
  neighbourhoods :func:`~repro.distributed.routing_protocol.patch_network`
  rewires for the same ops, and detector-disjoint plans commute under
  :func:`~repro.core.local_ops.apply_ops` (Hypothesis, random plans);
* **liveness** — an all-conflict storm degrades to exactly the sequential
  round count with the window draining FIFO (no deadlock, no starvation).

Run alone with ``-m pipeline`` (the CI lane).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import apply_op_touched, apply_ops, apply_ops_touched
from repro.distributed import (
    ConflictSet,
    DistributedDSG,
    apply_network_delta,
    networks_equal,
    patch_network,
    skip_graph_network,
)
from repro.simulation.rng import make_rng
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    churn_scenario,
    workload_scenario,
)

from reference.sequential_driver_reference import SequentialReferenceDSG

pytestmark = pytest.mark.pipeline


# ------------------------------------------------------------------ helpers
def _sequential(scenario, config_seed, sim_seed, **config_kwargs):
    driver = SequentialReferenceDSG(
        scenario.initial_keys,
        config=DSGConfig(seed=config_seed, **config_kwargs),
        seed=sim_seed,
        strict=True,
    )
    report = driver.run_scenario(scenario)
    return driver, report


def _pipelined(scenario, config_seed, sim_seed, window, **config_kwargs):
    driver = DistributedDSG(
        scenario.initial_keys,
        config=DSGConfig(seed=config_seed, **config_kwargs),
        seed=sim_seed,
        strict=True,
        window=window,
    )
    report = driver.run_scenario(scenario)
    return driver, report


def _signature(report, with_rounds):
    return [
        (o.source, o.destination, o.measured_distance, o.ops_executed, o.transformation_rounds)
        + ((o.rounds,) if with_rounds else ())
        for o in report.outcomes
    ]


def _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report):
    """The differential property: shipped loop == reference, observably.

    At ``window=1`` the shipped loop *is* the sequential schedule, so the
    rounds — per request and in total — must match as well.
    """
    assert pipe_driver.topology.membership_table() == seq_driver.topology.membership_table()
    assert pipe_driver.topology_matches_planner()
    assert pipe_driver.network_matches_topology()
    sequential = pipe_report.window == 1
    # Per-request routing cost, in arrival order.
    assert _signature(pipe_report, sequential) == _signature(seq_report, sequential)
    assert pipe_report.total_cost == seq_report.total_cost
    assert pipe_report.matches_planner
    assert pipe_report.congestion_violations == 0
    assert pipe_report.dropped_messages == 0
    assert (pipe_report.abandoned_plans, pipe_report.reanchored_plans) == (
        seq_report.abandoned_plans,
        seq_report.reanchored_plans,
    )
    assert (pipe_report.messages, pipe_report.total_bits) == (
        seq_report.messages,
        seq_report.total_bits,
    )
    if sequential:
        assert pipe_report.rounds == seq_report.rounds


def _disjoint_hot_scenario(n=128, pairs=8, body=60, seed=42):
    """All-hot disjoint keys: pairs in distinct deepest-stride subtrees."""
    rng = make_rng(seed)
    top_stride = 1 << ((n - 1).bit_length() - 1)
    starts = rng.sample(range(n - top_stride), pairs)
    hot = [(start + 1, start + top_stride + 1) for start in starts]
    events = [RequestEvent(u, v) for u, v in hot]
    for _ in range(body):
        events.append(RequestEvent(*hot[rng.randrange(len(hot))]))
    return Scenario(
        name="pipeline-disjoint-hot", initial_keys=list(range(1, n + 1)), events=events
    )


def _storm_scenario(n=64, length=20):
    """Adversarial same-subtree storm: every consecutive plan collides.

    Alternating requests from one source force every transformation into
    the same region; each plan's write set contains the shared endpoint
    (it is an ``l_alpha`` member) and every route's read set starts there,
    so any two events conflict — the schedule admits no overlap at all.
    """
    a, b, c = 1, 17, 33
    events = [RequestEvent(a, b if i % 2 == 0 else c) for i in range(length)]
    return Scenario(name="pipeline-storm", initial_keys=list(range(1, n + 1)), events=events)


# --------------------------------------------------------- conflict detector
class TestConflictSet:
    def test_read_read_overlap_is_free(self):
        left = ConflictSet(reads=frozenset({1, 2, 3}))
        right = ConflictSet(reads=frozenset({3, 4}))
        assert not left.conflicts_with(right)
        assert not right.conflicts_with(left)

    def test_write_collisions_conflict_symmetrically(self):
        writer = ConflictSet(reads=frozenset({9}), writes=frozenset({1, 2}))
        reader = ConflictSet(reads=frozenset({2}))
        other_writer = ConflictSet(writes=frozenset({2, 7}))
        assert writer.conflicts_with(reader) and reader.conflicts_with(writer)
        assert writer.conflicts_with(other_writer) and other_writer.conflicts_with(writer)

    def test_disjoint_writers_do_not_conflict(self):
        left = ConflictSet(reads=frozenset({1, 5}), writes=frozenset({1, 5}))
        right = ConflictSet(reads=frozenset({9, 13}), writes=frozenset({9, 13}))
        assert not left.conflicts_with(right)
        assert not right.conflicts_with(left)


class TestTargetSetExtraction:
    def test_touched_equals_patch_network_affected(self):
        """Soundness of the extractor: op for op, the touched set equals
        the affected neighbourhood the live-network rewiring reports."""
        keys = list(range(1, 33))
        planner = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=9))
        shadow = planner.graph.copy()
        mirror = planner.graph.copy()
        network = skip_graph_network(mirror)
        rng = make_rng(4)
        checked = 0
        for _ in range(25):
            u, v = rng.sample(keys, 2)
            plan = planner.request(u, v, keep_result=False)
            for op in plan.ops or []:
                expected = patch_network(network, mirror, op)
                assert apply_op_touched(shadow, op) == expected
                checked += 1
        assert checked > 100  # the workload genuinely exercised the extractor

    def test_bulk_extraction_matches_network_delta(self):
        keys = list(range(1, 25))
        planner = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=2))
        shadow = planner.graph.copy()
        mirror = planner.graph.copy()
        network = skip_graph_network(mirror)
        plan = planner.request(3, 20, keep_result=False)
        ops = list(plan.ops or [])
        assert ops
        touched = apply_ops_touched(shadow, ops)
        affected = apply_network_delta(network, mirror, ops)
        assert touched == affected
        assert shadow.membership_table() == mirror.membership_table()


# ------------------------------------------------------------- commutativity
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_detector_disjoint_plans_commute(seed):
    """The soundness lemma: consecutive plans the detector declares
    disjoint produce the identical topology (and identical rewired
    network) when applied via ``apply_ops`` in either order."""
    rng = make_rng(seed)
    keys = list(range(1, 25))
    planner = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
    previous = None  # (pre_graph, ops, conflict) of the previous request
    for _ in range(30):
        u, v = rng.sample(keys, 2)
        pre = planner.graph.copy()
        shadow = planner.graph.copy()
        plan = planner.request(u, v, keep_result=False)
        ops = list(plan.ops or [])
        writes = frozenset(apply_ops_touched(shadow, ops)) if ops else frozenset()
        conflict = ConflictSet(reads=frozenset(plan.routing.path), writes=writes)
        if previous is not None:
            pre_graph, first_ops, first_conflict = previous
            if not first_conflict.conflicts_with(conflict):
                forward = pre_graph.copy()
                apply_ops(forward, first_ops)
                apply_ops(forward, ops)
                backward = pre_graph.copy()
                apply_ops(backward, ops)
                apply_ops(backward, first_ops)
                assert forward.membership_table() == backward.membership_table()
                net_forward = skip_graph_network(pre_graph.copy())
                graph_forward = pre_graph.copy()
                apply_network_delta(net_forward, graph_forward, first_ops + ops)
                net_backward = skip_graph_network(pre_graph.copy())
                graph_backward = pre_graph.copy()
                apply_network_delta(net_backward, graph_backward, ops + first_ops)
                assert networks_equal(net_forward, net_backward)
        previous = (pre, ops, conflict)


def test_commutativity_lemma_is_not_vacuous():
    """The disjoint-heavy mix contains genuinely disjoint consecutive
    plans with ops on both sides — the lemma above has real witnesses."""
    scenario = _disjoint_hot_scenario(n=64, pairs=6, body=30, seed=7)
    planner = DynamicSkipGraph(keys=scenario.initial_keys, config=DSGConfig(seed=7))
    witnesses = 0
    previous = None
    for event in scenario.events:
        shadow = planner.graph.copy()
        plan = planner.request(event.source, event.destination, keep_result=False)
        ops = list(plan.ops or [])
        writes = frozenset(apply_ops_touched(shadow, ops)) if ops else frozenset()
        conflict = ConflictSet(reads=frozenset(plan.routing.path), writes=writes)
        if previous is not None and ops and previous[0]:
            if not previous[1].conflicts_with(conflict):
                witnesses += 1
        previous = (ops, conflict)
    assert witnesses > 0


# ------------------------------------------------- differential equivalence
class TestDifferentialEquivalence:
    @pytest.mark.parametrize("window", [1, 2, 8])
    def test_all_hot_disjoint_keys(self, window):
        scenario = _disjoint_hot_scenario()
        seq_driver, seq_report = _sequential(scenario, 42, 1, track_working_set=False)
        pipe_driver, pipe_report = _pipelined(
            scenario, 42, 1, window, track_working_set=False
        )
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)

    @pytest.mark.parametrize("window", [1, 3, 8])
    def test_temporal_working_set(self, window):
        keys = list(range(1, 33))
        scenario = workload_scenario("temporal", keys, 50, seed=11, working_set_size=6)
        seq_driver, seq_report = _sequential(scenario, 11, 1)
        pipe_driver, pipe_report = _pipelined(scenario, 11, 1, window)
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)

    @pytest.mark.parametrize("window", [1, 4])
    def test_uniform_traffic(self, window):
        keys = list(range(1, 33))
        scenario = workload_scenario("uniform", keys, 40, seed=3)
        seq_driver, seq_report = _sequential(scenario, 3, 2)
        pipe_driver, pipe_report = _pipelined(scenario, 3, 2, window)
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)

    @pytest.mark.parametrize("window", [1, 2, 6])
    def test_mixed_churn(self, window):
        scenario = churn_scenario(
            n=32, length=70, seed=5, churn_rate=0.12, base="temporal", working_set_size=6
        )
        assert scenario.join_count > 0 and scenario.leave_count > 0
        seq_driver, seq_report = _sequential(scenario, 5, 3)
        pipe_driver, pipe_report = _pipelined(scenario, 5, 3, window)
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)
        assert pipe_report.joins == scenario.join_count
        assert pipe_report.leaves == scenario.leave_count

    def test_overlap_actually_happens_and_saves_rounds(self):
        """The disjoint-heavy mix pipelines: strictly fewer rounds than
        sequential and real in-flight depth, with equivalence intact."""
        scenario = _disjoint_hot_scenario()
        seq_driver, seq_report = _sequential(scenario, 42, 1, track_working_set=False)
        pipe_driver, pipe_report = _pipelined(
            scenario, 42, 1, window=8, track_working_set=False
        )
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)
        assert pipe_report.max_in_flight >= 4
        assert pipe_report.rounds < seq_report.rounds

    def test_membership_bits_stay_message_driven(self):
        """Pipelined overlap preserves the message-driven bit invariant:
        every surviving process ends with the topology's bit vector."""
        scenario = churn_scenario(
            n=24, length=50, seed=5, churn_rate=0.1, base="temporal", working_set_size=5
        )
        driver, _ = _pipelined(scenario, 5, 3, window=6)
        for key, process in driver.processes.items():
            assert process.bits == driver.topology.membership(key).bits, key

    @pytest.mark.parametrize("window", [1, 8])
    def test_single_call_api_matches_sequential(self, window):
        """request()/join()/leave() behave exactly like the reference at
        any window (each call drains the pipeline)."""
        seq = SequentialReferenceDSG(range(1, 17), config=DSGConfig(seed=6), seed=1, strict=True)
        pipe = DistributedDSG(
            range(1, 17), config=DSGConfig(seed=6), seed=1, strict=True, window=window
        )
        for u, v in [(1, 16), (1, 16), (3, 12)]:
            a, b = seq.request(u, v), pipe.request(u, v)
            assert (a.measured_distance, a.cost, a.rounds) == (b.measured_distance, b.cost, b.rounds)
        seq.join(100)
        pipe.join(100)
        seq.leave(9)
        pipe.leave(9)
        assert pipe.topology.membership_table() == seq.topology.membership_table()
        assert 100 in pipe.processes and 9 not in pipe.processes


# ------------------------------------------------- adversarial serialization
class TestAdversarialSerialization:
    def test_all_conflict_storm_degrades_to_sequential_rounds(self):
        scenario = _storm_scenario()
        seq_driver, seq_report = _sequential(scenario, 21, 4)
        pipe_driver, pipe_report = _pipelined(scenario, 21, 4, window=8)
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)
        # Premise: every request genuinely restructures (writes non-empty),
        # so every pair of events collides on the shared endpoint.
        assert all(outcome.ops_executed > 0 for outcome in pipe_report.outcomes)
        # Exact sequential degradation: no overlap ever, same round count.
        assert pipe_report.max_in_flight == 1
        assert pipe_report.rounds == seq_report.rounds
        # Every event after the first stalled exactly once at the head.
        assert pipe_report.conflict_stalls == len(scenario.events) - 1

    def test_storm_window_drains_fifo(self):
        _, pipe_report = _pipelined(_storm_scenario(length=12), 21, 4, window=8)
        trace = pipe_report.admission_trace
        assert [record.index for record in trace] == sorted(record.index for record in trace)
        assert all(record.in_flight == 1 for record in trace)
        for earlier, later in zip(trace, trace[1:]):
            # Head-of-line blocking: nothing is admitted before the
            # previous event has been applied (full serialization).
            assert later.admit_round >= earlier.apply_round
            assert earlier.complete_round <= earlier.apply_round


# ------------------------------------------------- crash/pipeline interplay
class TestCrashBarriers:
    """Crash and recovery events are pipeline *barriers* (PR 10): the
    in-flight window drains cleanly before the failure lands, and the run
    stays observably equivalent to the sequential driver."""

    def _crash_scenario(self, n=32):
        events = [
            RequestEvent(1, 30),
            RequestEvent(2, 29),
            RequestEvent(5, 28),
            CrashEvent(17),
            RequestEvent(3, 26),
            RequestEvent(6, 25),
            RecoveryEvent(17),
            RequestEvent(17, 30),
            RequestEvent(4, 17),
        ]
        return Scenario(
            name="pipeline-crash", initial_keys=list(range(1, n + 1)), events=events
        )

    @pytest.mark.parametrize("window", [1, 4])
    def test_crash_mid_schedule_matches_sequential(self, window):
        scenario = self._crash_scenario()
        seq_driver, seq_report = _sequential(scenario, 9, 9)
        pipe_driver, pipe_report = _pipelined(scenario, 9, 9, window=window)
        _assert_equivalent(seq_driver, seq_report, pipe_driver, pipe_report)
        assert pipe_report.crashes == 1 and pipe_report.recoveries == 1
        assert seq_report.crashes == 1 and seq_report.recoveries == 1
        # The recovered key served as both source and destination.
        served = {(o.source, o.destination) for o in pipe_report.outcomes}
        assert (17, 30) in served and (4, 17) in served

    def test_window_drains_before_the_crash_lands(self):
        """No admission may straddle a barrier: everything admitted before
        the crash is applied before it, everything after admitted after."""
        scenario = self._crash_scenario()
        _, report = _pipelined(scenario, 9, 9, window=4)
        # Requests 0-2 precede the crash, 3-4 the recovery, 5-6 follow it.
        trace = {record.index: record for record in report.admission_trace}
        barrier_free = max(trace[i].apply_round for i in (0, 1, 2))
        assert min(trace[i].admit_round for i in (3, 4)) >= barrier_free
        second_barrier = max(trace[i].apply_round for i in (3, 4))
        assert min(trace[i].admit_round for i in (5, 6)) >= second_barrier

    @pytest.mark.parametrize("window", [1, 4])
    def test_crash_dark_hole_is_settled_by_the_next_event(self, window):
        """``crash_dark`` is legal at every window: the open hole fences the
        pipeline, the first event served settles it (a join and a leave
        included), and the run matches the reference."""
        events = [
            JoinEvent(100),
            RequestEvent(3, 30),
            LeaveEvent(9),
            RequestEvent(5, 28),
            RequestEvent(100, 2),
            RequestEvent(3, 30),
        ]
        scenario = Scenario(name="dark-churn", initial_keys=list(range(1, 33)), events=events)
        seq = SequentialReferenceDSG(range(1, 33), config=DSGConfig(seed=9), seed=9, strict=True)
        pipe = DistributedDSG(
            range(1, 33), config=DSGConfig(seed=9), seed=9, strict=True, window=window
        )
        for driver in (seq, pipe):
            driver.crash_dark(16)
            assert driver.dark_keys == {16}
        seq_report = seq.run_scenario(scenario)
        pipe_report = pipe.run_scenario(scenario)
        assert not pipe.dark_keys and not pipe.topology.has_node(16)
        assert pipe_report.crashes == 1 and pipe_report.joins == 1 and pipe_report.leaves == 1
        _assert_equivalent(seq, seq_report, pipe, pipe_report)
        # The hole's barrier: the join that settled it applied before
        # anything younger was admitted.
        trace = pipe_report.admission_trace
        assert trace[0].kind == "join"
        assert all(record.admit_round >= trace[0].apply_round for record in trace[1:])


# ------------------------------------------------- mid-request fault barriers
class TestFaultBarriers:
    """An armed ``mid_request_fault`` hook fences the pipeline like a crash
    event, so the abandon / re-anchor plan repair runs — and matches the
    reference's independently written fault path — at every window."""

    def _run(self, driver, victim, warm):
        for _ in range(warm):
            driver.request(3, 30)
        driver.mid_request_fault = lambda: driver.crash_dark(victim)
        # The fault lands inside (3, 30); the dead key serves nothing after.
        tail = [(5, 28), (7, 26), (9, 24), (3, 30), (11, 22)]
        pairs = [(3, 30)] + [pair for pair in tail if victim not in pair]
        scenario = Scenario(
            name="fault",
            initial_keys=list(range(1, 33)),
            events=[RequestEvent(u, v) for u, v in pairs],
        )
        return driver.run_scenario(scenario)

    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize(
        "victim, warm, abandoned, reanchored",
        [
            (16, 2, 0, 1),  # bystander dies under a warmed (local) plan: re-anchor
            (3, 0, 1, 0),  # the disseminating source dies: abandon
            (30, 0, 1, 0),  # an op subject dies: abandon (stale_op_keys)
        ],
    )
    def test_fault_schedule_matches_reference(self, window, victim, warm, abandoned, reanchored):
        seq = SequentialReferenceDSG(range(1, 33), config=DSGConfig(seed=9), seed=9, strict=True)
        pipe = DistributedDSG(
            range(1, 33), config=DSGConfig(seed=9), seed=9, strict=True, window=window
        )
        seq_report = self._run(seq, victim, warm)
        pipe_report = self._run(pipe, victim, warm)
        assert (pipe_report.abandoned_plans, pipe_report.reanchored_plans) == (
            abandoned,
            reanchored,
        )
        assert pipe.mid_request_fault is None and not pipe.dark_keys
        _assert_equivalent(seq, seq_report, pipe, pipe_report)


# ----------------------------------------------------- determinism regression
class TestDeterminism:
    def test_same_seed_same_rounds_messages_and_trace(self):
        scenario = churn_scenario(
            n=32, length=60, seed=17, churn_rate=0.1, base="temporal", working_set_size=6
        )

        def run():
            driver = DistributedDSG(
                scenario.initial_keys, config=DSGConfig(seed=17), seed=6, strict=True, window=4
            )
            return driver.run_scenario(scenario)

        first, second = run(), run()
        assert first.rounds == second.rounds
        assert first.messages == second.messages
        assert first.total_bits == second.total_bits
        assert first.admission_trace == second.admission_trace
        assert first.conflict_stalls == second.conflict_stalls
        assert first.max_in_flight == second.max_in_flight

    def test_reused_driver_matches_single_shot(self):
        """Reused-engine rerun == fresh sim: serving a schedule in two
        run_scenario calls lands on the same topology, outcomes and
        Equation-1 cost as one call over the concatenation (the one-call
        run may overlap across the boundary, so only rounds may differ)."""
        scenario = _disjoint_hot_scenario(n=64, pairs=6, body=24, seed=13)
        split = len(scenario.events) // 2
        first_half = Scenario(
            name="half-1", initial_keys=scenario.initial_keys, events=scenario.events[:split]
        )
        second_half = Scenario(
            name="half-2", initial_keys=scenario.initial_keys, events=scenario.events[split:]
        )

        reused = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=13), seed=2, strict=True, window=6
        )
        reused.run_scenario(first_half)
        reused_report = reused.run_scenario(second_half)

        fresh = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=13), seed=2, strict=True, window=6
        )
        fresh_report = fresh.run_scenario(scenario)

        assert reused.topology.membership_table() == fresh.topology.membership_table()
        assert reused_report.total_cost == fresh_report.total_cost
        assert [
            (o.source, o.destination, o.measured_distance) for o in reused_report.outcomes
        ] == [(o.source, o.destination, o.measured_distance) for o in fresh_report.outcomes]
        assert reused_report.congestion_violations == 0
        assert reused_report.dropped_messages == 0
        assert reused.topology_matches_planner() and fresh.topology_matches_planner()
