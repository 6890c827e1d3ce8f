"""Tests for the local-operation kernel (repro.core.local_ops).

Covers the op vocabulary itself (application semantics, wire format,
anchors), the planner contract (request and churn plans replay to the
exact post-plan topology on a copy of the pre-plan graph), and the
transformation edge cases reachable through the planner: adjustment at
the height boundaries (alpha = 0 full rebuilds and the deepest
pair-only case), dummy-key exhaustion, and removal of a node that sits
in another node's working set.
"""

import pytest

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
    apply_ops,
    op_anchor,
    op_from_payload,
    op_to_payload,
)
from repro.skipgraph import build_balanced_skip_graph
from repro.workloads import generate_workload

ALL_OPS = [
    PromoteOp(5, 3, 1),
    DemoteOp(5, 1),
    DummyInsertOp(5.5, (0, 1, 1)),
    DummyRemoveOp(5.5),
    NodeJoinOp(9, (1, 0)),
    NodeLeaveOp(9),
]


class TestOpApplication:
    def test_promote_appends_bit(self):
        graph = build_balanced_skip_graph(range(1, 9))
        before = graph.membership(3).bits
        apply_op(graph, PromoteOp(3, len(before) + 1, 1))
        assert graph.membership(3).bits == before + (1,)

    def test_demote_truncates_and_is_idempotent(self):
        graph = build_balanced_skip_graph(range(1, 9))
        apply_op(graph, DemoteOp(3, 1))
        assert len(graph.membership(3)) == 1
        apply_op(graph, DemoteOp(3, 2))  # already shorter: no-op
        assert len(graph.membership(3)) == 1

    def test_dummy_insert_and_remove(self):
        graph = build_balanced_skip_graph(range(1, 9))
        apply_op(graph, DummyInsertOp(3.5, (0, 1)))
        assert graph.has_node(3.5) and graph.node(3.5).is_dummy
        apply_op(graph, DummyRemoveOp(3.5))
        assert not graph.has_node(3.5)

    def test_join_and_leave(self):
        graph = build_balanced_skip_graph(range(1, 9))
        apply_op(graph, NodeJoinOp(100, (1, 1, 0)))
        assert graph.has_node(100) and not graph.node(100).is_dummy
        apply_op(graph, NodeLeaveOp(100))
        assert not graph.has_node(100)

    def test_unknown_op_rejected(self):
        graph = build_balanced_skip_graph(range(1, 5))
        with pytest.raises(TypeError):
            apply_op(graph, ("not", "an", "op"))

    def test_recorder_matches_replay(self):
        """Eager recorder application == apply_ops replay, op for op."""
        recorded = build_balanced_skip_graph(range(1, 17))
        replayed = recorded.copy()
        recorder = OpRecorder(recorded)
        recorder.demote(5, 1)
        recorder.promote(5, 2, 1)
        recorder.promote(5, 3, 0)
        recorder.insert_dummy(5.25, (0, 1))
        recorder.remove_dummy(5.25)
        recorder.join(40, (1, 0, 1))
        recorder.leave(40)
        apply_ops(replayed, recorder.ops)
        assert replayed.membership_table() == recorded.membership_table()


class TestWireFormat:
    @pytest.mark.parametrize(
        "op",
        ALL_OPS + [pytest.param(DummyInsertOp(9, ()), id="DummyInsertOp-no-bits")],
        ids=lambda op: type(op).__name__,
    )
    def test_payload_roundtrip(self, op):
        assert op_from_payload(op_to_payload(op)) == op

    def test_every_op_kind_has_a_tag_and_a_sample(self):
        assert set(_OP_TAGS) == {type(op) for op in ALL_OPS}
        assert sorted(_OP_TAGS.values()) == list(range(6))

    def test_bit_strings_keep_leading_zeros(self):
        op = DummyInsertOp(1.5, (0, 0, 1, 0))
        assert op_from_payload(op_to_payload(op)).bits == (0, 0, 1, 0)

    def test_payloads_are_constant_words(self):
        for op in ALL_OPS:
            payload = op_to_payload(op)
            assert len(payload) <= 4
            assert all(isinstance(key, str) and len(key) == 1 for key in payload)

    def test_unknown_tag_rejected(self):
        # Tag 6 was the multi-bit extension op; it left the wire format.
        for payload in ({"t": 99, "k": 1}, {"t": 6, "k": 5, "l": 7, "n": 3, "b": 0b101}):
            with pytest.raises(ValueError, match="unknown op tag"):
                op_from_payload(payload)

    def test_anchor_rules(self):
        graph = build_balanced_skip_graph(range(1, 9))
        assert op_anchor(PromoteOp(3, 4, 1), graph) == 3
        assert op_anchor(DemoteOp(3, 1), graph) == 3
        assert op_anchor(DummyRemoveOp(3.5), graph) == 3.5
        assert op_anchor(NodeLeaveOp(3), graph) == 3
        # An insertion is executed by the new key's base-list predecessor.
        assert op_anchor(DummyInsertOp(3.5, (0, 1)), graph) == 3
        assert op_anchor(NodeJoinOp(100, (1,)), graph) == 8
        # A key below the minimum anchors at the successor instead.
        assert op_anchor(NodeJoinOp(0.5, (1,)), graph) == 1


class TestPlannerPlans:
    """Request and churn plans are self-contained: replay == reality."""

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_request_plans_replay_to_identical_topology(self, seed):
        keys = list(range(1, 33))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
        shadow = dsg.graph.copy()
        for u, v in generate_workload("temporal", keys, 60, seed=seed, working_set_size=6):
            result = dsg.request(u, v)
            apply_ops(shadow, result.ops)
            assert shadow.membership_table() == dsg.graph.membership_table()

    def test_churn_plans_replay_to_identical_topology(self):
        dsg = DynamicSkipGraph(keys=range(1, 25), config=DSGConfig(seed=5))
        shadow = dsg.graph.copy()
        for key in (100, 101, 102):
            dsg.add_node(key)
            apply_ops(shadow, dsg.last_churn_ops)
            assert shadow.membership_table() == dsg.graph.membership_table()
        for key in (7, 100, 13):
            dsg.remove_node(key)
            apply_ops(shadow, dsg.last_churn_ops)
            assert shadow.membership_table() == dsg.graph.membership_table()

    def test_join_plan_starts_with_the_join(self):
        dsg = DynamicSkipGraph(keys=range(1, 17), config=DSGConfig(seed=2))
        dsg.add_node(50)
        ops = dsg.last_churn_ops
        assert type(ops[0]) is NodeJoinOp and ops[0].key == 50
        assert all(type(op) is DummyInsertOp for op in ops[1:])

    def test_leave_plan_starts_with_the_leave(self):
        dsg = DynamicSkipGraph(keys=range(1, 17), config=DSGConfig(seed=2))
        dsg.remove_node(9)
        ops = dsg.last_churn_ops
        assert type(ops[0]) is NodeLeaveOp and ops[0].key == 9

    def test_plan_recording_leaves_costs_untouched(self):
        """Two identical instances produce identical per-request costs while
        one of them also replays every plan on a shadow — recording and
        replaying are observers, never participants."""
        keys = list(range(1, 33))
        observed = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=13))
        control = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=13))
        shadow = observed.graph.copy()
        for u, v in generate_workload("zipf", keys, 50, seed=8, exponent=1.2):
            first = observed.request(u, v)
            second = control.request(u, v)
            apply_ops(shadow, first.ops)
            assert first.cost == second.cost
            assert first.transformation_rounds == second.transformation_rounds
        assert observed.total_cost() == control.total_cost()


class TestTransformationEdgeCases:
    """Edge cases of the transformation, reached through the op planner."""

    def test_alpha_zero_full_rebuild(self):
        """A first contact between maximally distant keys transforms from
        level 0: every real node is demoted to the root and re-promoted."""
        keys = list(range(1, 33))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=4))
        u, v = 1, 32
        assert dsg.graph.common_level(u, v) == 0
        shadow = dsg.graph.copy()
        result = dsg.request(u, v)
        assert result.alpha == 0
        demoted = {op.key for op in result.ops if type(op) is DemoteOp}
        assert demoted == set(keys)
        apply_ops(shadow, result.ops)
        assert shadow.membership_table() == dsg.graph.membership_table()
        assert dsg.are_adjacent(u, v)

    def test_deepest_pair_request_is_minimal(self):
        """A repeated request finds the pair alone in its deepest list; the
        plan is the two-promote 'pair' split (plus any dummy bookkeeping)."""
        dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=4))
        dsg.request(5, 21)
        result = dsg.request(5, 21)
        assert result.routing.distance == 0
        promotes = [op for op in result.ops if type(op) is PromoteOp]
        assert {op.key for op in promotes} == {5, 21}
        # The pair was already singleton below alpha: one split level each.
        assert result.d_prime == result.alpha

    def test_adjustment_at_graph_height_ceiling(self):
        """Serving every pair of a tiny graph repeatedly keeps the height
        within the Lemma 5 style bound while plans keep replaying."""
        keys = list(range(1, 9))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=6))
        shadow = dsg.graph.copy()
        for _ in range(3):
            for u in keys:
                for v in keys:
                    if u < v:
                        result = dsg.request(u, v)
                        apply_ops(shadow, result.ops)
        assert shadow.membership_table() == dsg.graph.membership_table()
        assert dsg.height() <= dsg.config.a * 6  # a * log2(n) slack

    def test_dummy_key_exhaustion_in_transformation(self, monkeypatch):
        """_pick_dummy_key returning None skips the dummy without corrupting
        the plan: the request completes and the plan still replays."""
        import repro.core.transformation as transformation

        monkeypatch.setattr(transformation, "_pick_dummy_key", lambda *args, **kwargs: None)
        dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=4))
        shadow = dsg.graph.copy()
        result = dsg.request(1, 32)  # alpha = 0: maximal dummy pressure
        assert result.dummies_added == 0
        assert not any(type(op) is DummyInsertOp for op in result.ops)
        apply_ops(shadow, result.ops)
        assert shadow.membership_table() == dsg.graph.membership_table()

    def test_remove_node_in_another_nodes_working_set(self):
        """Removing a peer that an earlier request put in the history: the
        working-set accounting and later plans keep working."""
        keys = list(range(1, 25))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=9))
        shadow = dsg.graph.copy()
        first = dsg.request(3, 10)  # 10 enters 3's working set
        apply_ops(shadow, first.ops)
        dsg.remove_node(10)
        apply_ops(shadow, dsg.last_churn_ops)
        assert not dsg.graph.has_node(10)
        result = dsg.request(3, 17)
        apply_ops(shadow, result.ops)
        # The departed peer still separates (3, 17) in the recency history.
        assert result.working_set_number is not None and result.working_set_number >= 3
        assert shadow.membership_table() == dsg.graph.membership_table()
        assert dsg.graph.is_valid()
