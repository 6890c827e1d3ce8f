"""Property tests for the three incremental churn-path indexes (PR-5).

Each index replaces an O(n) scan with op-maintained state; each test pins
the equivalence contract that makes the replacement safe:

* the prefix-count index behind ``draw_membership_bits`` consumes the same
  RNG stream and returns the same bits as the ``real_keys``-scanning seed
  implementation, dummies present or not;
* the :class:`~repro.skipgraph.balance.BalanceTracker` reports exactly the
  violations a full rescan finds, after arbitrary kernel op sequences, and
  dirty-list repair drives churn to the same topology and dummy population
  as full-rescan repair;
* a network carried by :func:`~repro.distributed.routing_protocol.patch_network`
  equals a from-scratch ``skip_graph_network`` rebuild after every op — and
  so does one carried by the link writer underneath it at redundancy 2 and 3.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.derived_state_reference import derived_state, derived_state_from_scratch
from reference.kernel_reference import ReferenceDynamicSkipGraph, draw_membership_bits_reference

from repro.baselines.adapter import DSGAdapter
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import (
    DemoteOp,
    DummyInsertOp,
    DummyRemoveOp,
    NodeJoinOp,
    NodeLeaveOp,
    OpRecorder,
    PromoteOp,
    _OP_TAGS,
    apply_op,
)
from repro.distributed.routing_protocol import (
    _rewire,
    apply_network_delta,
    networks_equal,
    patch_network,
    skip_graph_network,
)
from repro.simulation.rng import make_rng
from repro.skipgraph import (
    MembershipVector,
    SkipGraphNode,
    a_balance_violations,
    build_balanced_skip_graph,
    build_skip_graph,
    check_a_balance,
)
from repro.skipgraph.balance import BalanceTracker
from repro.skipgraph.build import draw_membership_bits
from repro.skipgraph.integrity import verify_skip_graph_integrity
from repro.workloads.scenarios import churn_scenario, run_scenario
from repro.workloads.sequences import temporal_locality

pytestmark = pytest.mark.kernel


def _with_dummies(graph, rng, count=6):
    """Insert ``count`` dummy nodes between random neighbours."""
    for _ in range(count):
        keys = graph.keys
        index = rng.randrange(len(keys) - 1)
        lower, upper = keys[index], keys[index + 1]
        dummy_key = float(lower) + (float(upper) - float(lower)) * 0.5
        if graph.has_node(dummy_key):
            continue
        bits = graph.membership(lower).bits
        depth = rng.randint(0, len(bits))
        graph.add_node(
            SkipGraphNode(
                key=dummy_key,
                membership=MembershipVector(bits[:depth] + (rng.randint(0, 1),)),
                is_dummy=True,
            )
        )
    return graph


class TestIndexedMembershipDraw:
    @pytest.mark.parametrize("seed", range(6))
    def test_indexed_draw_matches_reference_bits_and_stream(self, seed):
        rng = make_rng(seed)
        graph = _with_dummies(build_skip_graph(range(1, 48), rng=rng), rng)
        for joiner in (100 + seed, 7, 0.5):
            indexed_rng = make_rng(1000 + seed)
            reference_rng = make_rng(1000 + seed)
            indexed = draw_membership_bits(graph, joiner, indexed_rng)
            reference = draw_membership_bits_reference(graph, joiner, reference_rng)
            assert indexed == reference
            # Byte-identical stream consumption: the next draw agrees too.
            assert indexed_rng.random() == reference_rng.random()

    def test_draw_for_present_key_excludes_itself(self):
        rng = make_rng(3)
        graph = build_skip_graph(range(1, 20), rng=rng)
        key = 7  # already in the graph: the scan skips it, the index must too
        indexed = draw_membership_bits(graph, key, make_rng(5))
        reference = draw_membership_bits_reference(graph, key, make_rng(5))
        assert indexed == reference

    def test_dummies_never_pin_a_prefix(self):
        # A prefix carried only by dummies must not force more draws.
        graph = build_skip_graph(range(1, 16), rng=make_rng(2))
        graph.add_node(
            SkipGraphNode(key=0.5, membership=MembershipVector((1, 1, 1, 1, 1, 1)), is_dummy=True)
        )
        indexed = draw_membership_bits(graph, 100, make_rng(9))
        reference = draw_membership_bits_reference(graph, 100, make_rng(9))
        assert indexed == reference

    def test_real_counts_track_mutations(self):
        graph = build_balanced_skip_graph(range(1, 17))
        assert graph.real_count == 16 and graph.dummy_node_count == 0
        graph.add_node(
            SkipGraphNode(key=1.5, membership=MembershipVector((0, 1)), is_dummy=True)
        )
        assert graph.real_count == 16 and graph.dummy_node_count == 1
        assert graph.real_prefix_count(()) == 16
        graph.remove_node(1.5)
        assert graph.dummy_node_count == 0
        for key in list(graph.keys):
            bits = graph.membership(key).bits
            for level in range(len(bits) + 1):
                prefix = bits[:level]
                expected = sum(
                    1
                    for other in graph.real_keys
                    if len(graph.membership(other)) >= level
                    and graph.membership(other).bits[:level] == prefix
                )
                assert graph.real_prefix_count(prefix) == expected


def _random_kernel_ops(graph, recorder, rng, count, next_key=1000):
    """Apply ``count`` random kernel ops through ``recorder``.

    Returns the next unused join key so successive waves stay collision-free.
    """
    for _ in range(count):
        choice = rng.random()
        keys = graph.keys
        key = rng.choice(keys)
        bits = graph.membership(key).bits
        if choice < 0.35:
            recorder.promote(key, len(bits) + 1, rng.randint(0, 1))
        elif choice < 0.5 and bits:
            recorder.promote(key, rng.randint(1, len(bits)), rng.randint(0, 1))
        elif choice < 0.65 and bits:
            recorder.demote(key, rng.randrange(len(bits)))
        elif choice < 0.8:
            joiner = next_key
            next_key += 1
            recorder.join(joiner, tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6))))
        elif choice < 0.9 and len(keys) > 8:
            recorder.leave(key)
        else:
            index = rng.randrange(len(keys) - 1)
            lower, upper = keys[index], keys[index + 1]
            dummy_key = float(lower) + (float(upper) - float(lower)) * (
                0.25 + 0.5 * rng.random()
            )
            if not graph.has_node(dummy_key):
                recorder.insert_dummy(
                    dummy_key, graph.membership(lower).bits[:1] + (rng.randint(0, 1),)
                )
    return next_key


class TestBalanceTracker:
    @pytest.mark.parametrize("seed", range(8))
    def test_tracker_reports_exactly_the_full_rescan_violations(self, seed):
        rng = make_rng(seed)
        graph = build_balanced_skip_graph(range(1, 40 + seed))
        tracker = BalanceTracker()
        a = 2 + seed % 3
        # First consumption is the full rescan; from a consumed (clean or
        # known) state, dirty marks must cover every later violation.
        assert tracker.violations(graph, a) == a_balance_violations(graph, a)
        graph.tracker = tracker
        recorder = OpRecorder(graph)
        next_key = 1000
        for _ in range(5):
            next_key = _random_kernel_ops(graph, recorder, rng, count=12, next_key=next_key)
            assert derived_state(graph) == derived_state_from_scratch(graph)
            reported = tracker.violations(graph, a)
            assert reported == a_balance_violations(graph, a)
            # Consuming transfers responsibility: a violation left unrepaired
            # must be re-marked (restore_a_balance's failure path does this).
            for violation in reported:
                tracker.mark_list(violation.level, violation.prefix)

    def test_unconsumed_tracker_falls_back_to_full_rescan(self):
        graph = build_skip_graph(range(1, 30), rng=make_rng(4))
        tracker = BalanceTracker()
        assert tracker.violations(graph, 2) == a_balance_violations(graph, 2)

    def test_the_balanced_build_holds_no_violation_at_a_equal_1(self):
        """What lets a tracker start clean over the balanced build: no two
        consecutive members of any list share the next-level bit."""
        for n in range(1, 301):
            assert a_balance_violations(build_balanced_skip_graph(range(n)), 1) == [], n

    @pytest.mark.parametrize("seed", range(6))
    def test_clean_tracker_reports_exactly_the_full_rescan_violations(self, seed):
        """No first full scan: started clean over the balanced build, the
        tracker equals the full rescan after every wave of random kernel
        ops — including the long wave whose marks outgrow the budget and
        send it all-dirty."""
        rng = make_rng(seed)
        graph = build_balanced_skip_graph(range(1, 40 + seed))
        tracker = BalanceTracker(graph)
        graph.tracker = tracker
        a = 2 + seed % 3
        assert not tracker._all_dirty
        recorder = OpRecorder(graph)
        next_key = 1000
        flipped = []
        for count in (12, 12, 300, 12, 12):
            next_key = _random_kernel_ops(graph, recorder, rng, count=count, next_key=next_key)
            flipped.append(tracker._all_dirty)
            reported = tracker.violations(graph, a)
            assert reported == a_balance_violations(graph, a)
            for violation in reported:
                tracker.mark_list(violation.level, violation.prefix)
        assert flipped == [False, False, True, False, False]

    @pytest.mark.parametrize("seed", range(4))
    def test_dirty_repair_matches_full_rescan_repair_under_churn(self, seed):
        scenario = churn_scenario(n=96, length=700, seed=seed, churn_rate=0.03)
        incremental = DSGAdapter(
            keys=scenario.initial_keys, config=DSGConfig(seed=seed, a=3)
        )
        run_scenario(scenario, algorithm=incremental)
        reference = DSGAdapter(
            dsg=ReferenceDynamicSkipGraph(
                keys=scenario.initial_keys, config=DSGConfig(seed=seed, a=3)
            )
        )
        run_scenario(scenario, algorithm=reference)
        assert incremental.total_cost == reference.total_cost
        assert (
            incremental.dsg.graph.membership_table()
            == reference.dsg.graph.membership_table()
        )
        assert incremental.dummy_count() == reference.dummy_count()
        assert check_a_balance(incremental.dsg.graph, 3) == check_a_balance(
            reference.dsg.graph, 3
        )

    def test_restore_converges_to_balance_after_churn(self):
        dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=1, a=2))
        rng = make_rng(7)
        next_key = 200
        for _ in range(30):
            if rng.random() < 0.5:
                dsg.add_node(next_key)
                next_key += 1
            else:
                real = dsg.graph.real_keys
                if len(real) > 8:
                    dsg.remove_node(rng.choice(real))
        assert check_a_balance(dsg.graph, 2)


class TestNetworkDelta:
    @pytest.mark.parametrize("seed", range(4))
    def test_patched_network_equals_rebuild_after_every_op(self, seed):
        dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=seed))
        mirror = dsg.graph.copy()
        network = skip_graph_network(mirror)
        rng = make_rng(seed)

        plans = []
        for _ in range(6):
            u, v = rng.sample(dsg.graph.real_keys, 2)
            plans.append(list(dsg.request(u, v).ops))
        dsg.add_node(100 + seed)
        plans.append(list(dsg.last_churn_ops))
        dsg.remove_node(rng.choice([k for k in dsg.graph.real_keys if k != 100 + seed]))
        plans.append(list(dsg.last_churn_ops))

        for plan in plans:
            for op in plan:
                affected = patch_network(network, mirror, op)
                assert op.key in affected
                assert networks_equal(network, skip_graph_network(mirror))
        assert mirror.membership_table() == dsg.graph.membership_table()

    def test_apply_network_delta_bulk_matches_rebuild(self):
        graph = build_balanced_skip_graph(range(1, 65))
        network = skip_graph_network(graph)
        rng = make_rng(11)
        ops = []
        for index in range(12):
            if index % 2 == 0:
                key = 200 + index
                ops.append(NodeJoinOp(key, tuple(draw_membership_bits(graph, key, rng))))
            else:
                ops.append(NodeLeaveOp(rng.choice(graph.keys)))
            affected = apply_network_delta(network, graph, ops[-1:])
            assert affected
        assert networks_equal(network, skip_graph_network(graph))

    def test_patch_network_handles_every_op_kind(self):
        graph = build_balanced_skip_graph(range(1, 17))
        network = skip_graph_network(graph)
        ops = [
            PromoteOp(3, len(graph.membership(3)) + 1, 1),
            DemoteOp(5, 1),
            DummyInsertOp(6.5, graph.membership(6).bits[:2] + (1,)),
            NodeJoinOp(40, (0, 1, 0)),
            NodeLeaveOp(9),
            DummyRemoveOp(6.5),
        ]
        # The whitelist and the wire format list the same op kinds.
        assert {type(op) for op in ops} == set(_OP_TAGS)
        for op in ops:
            patch_network(network, graph, op)
            assert networks_equal(network, skip_graph_network(graph))
        with pytest.raises(TypeError):
            patch_network(network, graph, object())

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_link_writer_equals_rebuild_for_every_op_kind_at_every_redundancy(self, data):
        """Random sequences over all six op kinds, k in {1, 2, 3}: after every
        op the rewired network is the rebuild and the integrity sweep is
        clean (promote/demote at k > 1 has no other cover)."""
        k = data.draw(st.sampled_from([1, 2, 3]), label="k")
        graph = build_balanced_skip_graph(range(1, 13))
        network = skip_graph_network(graph, k)
        bit_strings = st.lists(st.integers(0, 1), max_size=4).map(tuple)
        new_keys = st.floats(0, 13, allow_nan=False).filter(lambda key: not graph.has_node(key))
        for _ in range(data.draw(st.integers(1, 20), label="ops")):
            kind = data.draw(st.sampled_from(sorted(_OP_TAGS, key=_OP_TAGS.get)))
            key = data.draw(st.sampled_from(graph.keys))
            length = len(graph.membership(key))
            if kind is PromoteOp:
                op = PromoteOp(key, data.draw(st.integers(1, length + 1)), data.draw(st.integers(0, 1)))
            elif kind is DemoteOp:
                op = DemoteOp(key, data.draw(st.integers(0, length)))
            elif kind in (DummyInsertOp, NodeJoinOp):
                op = kind(data.draw(new_keys), data.draw(bit_strings))
            elif graph.node(key).is_dummy == (kind is DummyRemoveOp) and len(graph) > 3:
                op = kind(key)  # a leave takes a real key, a dummy removal a dummy
            else:
                continue
            shadow = graph.copy()
            apply_op(shadow, op)
            if not shadow.is_valid():
                continue  # two real nodes would share a full vector
            affected, _ = _rewire(network, graph, op, k)
            assert op.key in affected
            assert networks_equal(network, skip_graph_network(graph, k))
            assert verify_skip_graph_integrity(graph, network, redundancy=k) == []


def _dsg_past_its_first_scan():
    """64 keys, default ``a = 4``, one join: the tracker started clean over
    the balanced build, so only marked lists are rescanned from here on."""
    dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=1))
    dsg.add_node(100)
    assert check_a_balance(dsg.graph, 4)
    return dsg


def _crowd_one_list_behind_the_dsgs_back(dsg):
    """Six direct ``graph.add_node`` calls into one level-1 list: two runs > 4."""
    bits = dsg.graph.membership(64).bits[:1] + (0,)
    for key in range(200, 206):
        dsg.graph.add_node(SkipGraphNode(key, MembershipVector(bits)))
    assert len(a_balance_violations(dsg.graph, 4)) == 2


# No write to a DSG's graph is invisible to the next repair: the marks are
# emitted by the ``SkipGraph`` mutators, not by whoever calls them.
def test_direct_graph_mutation_is_seen_by_the_next_repair():
    dsg = _dsg_past_its_first_scan()
    _crowd_one_list_behind_the_dsgs_back(dsg)
    assert dsg.restore_a_balance() == 2
    assert check_a_balance(dsg.graph, 4)


def test_direct_set_membership_is_seen_by_the_next_repair():
    dsg = _dsg_past_its_first_scan()
    for key in range(1, 12):  # eleven base-list neighbours, one first bit
        old = dsg.graph.membership(key).bits
        dsg.graph.set_membership(key, MembershipVector((0,) + old[1:]))
    assert not check_a_balance(dsg.graph, 4)
    assert dsg.restore_a_balance() > 0
    assert check_a_balance(dsg.graph, 4)


def test_direct_remove_node_is_seen_by_the_next_repair():
    dsg = _dsg_past_its_first_scan()
    for key in range(2, 14, 2):  # the survivors 1, 3, ..., 13 share a first bit
        dsg.graph.remove_node(key)
        dsg.states.pop(key)
    assert not check_a_balance(dsg.graph, 4)
    assert dsg.restore_a_balance() > 0
    assert check_a_balance(dsg.graph, 4)


def test_request_only_traffic_keeps_the_marks_within_the_budget():
    """Marks that no repair consumes no longer pile up: on 512 keys, one
    join then 3 000 requests left 4 000 dirty lists and 366 561 anchors
    behind.  Past ``len(graph) * graph.height()`` the tracker drops them
    and goes all-dirty, and the next consumption is the full rescan."""
    keys = list(range(1, 129))
    dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=1, track_working_set=False))
    dsg.add_node(10_000)
    tracker = dsg.graph.tracker
    budget = len(dsg.graph) * dsg.graph.height()
    flipped = False
    for u, v in temporal_locality(keys, 200, seed=2):
        dsg.request(u, v, keep_result=False)
        assert sum(len(anchors) for anchors in tracker._dirty.values() if anchors) <= budget
        flipped |= tracker._all_dirty
    assert flipped
    expected = a_balance_violations(dsg.graph, dsg.config.a)
    assert tracker.violations(dsg.graph, dsg.config.a) == expected


class TestStructureOwnsItsMarks:
    """The recorder side of the same contract: any recorder over the DSG's
    graph is tracked, and a failed repair is retried from the marks."""

    def test_a_caller_supplied_recorder_is_tracked_like_any_other(self):
        """The docstring contract of ``restore_a_balance`` lets callers chain
        their own churn plan through a recorder they built themselves."""
        dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=1, a=2))
        dsg.add_node(100)
        assert check_a_balance(dsg.graph, 2)
        own = OpRecorder(dsg.graph)
        victim = dsg.graph.real_keys[10]
        dsg.states.pop(victim, None)
        own.leave(victim)
        dsg.restore_a_balance(own)
        assert check_a_balance(dsg.graph, 2)
        dsg.add_node(101)
        assert check_a_balance(dsg.graph, 2)

    def test_a_recorder_over_another_graph_is_rejected(self):
        dsg = _dsg_past_its_first_scan()
        with pytest.raises(ValueError):
            dsg.restore_a_balance(OpRecorder(dsg.graph.copy()))

    def test_an_unplaceable_dummy_is_retried_by_the_next_repair(self, monkeypatch):
        """A violation whose dummy key could not be drawn re-marks its list,
        so the next call finds it again without a full rescan."""
        import repro.core.dsg as dsg_module

        dsg = _dsg_past_its_first_scan()
        _crowd_one_list_behind_the_dsgs_back(dsg)
        with monkeypatch.context() as patched:
            patched.setattr(dsg_module, "_pick_dummy_key", lambda *args, **kwargs: None)
            assert dsg.restore_a_balance() == 0  # no progress: stops, does not loop
        assert len(a_balance_violations(dsg.graph, 4)) == 2
        assert dsg.restore_a_balance() == 2
        assert check_a_balance(dsg.graph, 4)

    def test_no_tracker_when_balance_not_maintained(self):
        free = DynamicSkipGraph(
            keys=range(1, 33), config=DSGConfig(seed=1, maintain_a_balance=False)
        )
        assert free.graph.tracker is None
        free.request(3, 17)
        free.add_node(50)
        maintained = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=1))
        assert maintained.graph.tracker is not None
        assert maintained.graph.copy().tracker is None  # marks are never copied
