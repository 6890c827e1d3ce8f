"""One test per documented departure from the paper that no other test pins.

Each test is named in ``docs/DEVIATIONS.md`` next to the rule it pins; the
planner digest (``test_planner_digest.py``) never reaches these branches on
realistic traffic, so they are exercised here directly.
"""

import random

from repro.core.local_ops import OpRecorder
from repro.core.state import DSGNodeState
from repro.core.timestamps import TimestampContext, _rule_t1, apply_timestamp_rules
from repro.core.transformation import _fallback_split, _split_by_order, _Transformation
from repro.skipgraph.membership import MembershipVector
from repro.skipgraph.node import SkipGraphNode
from repro.skipgraph.skipgraph import SkipGraph


def triples(priorities):
    """``(priority, group, key)`` order values for keys 1, 2, ... in order."""
    return [(float(priority), 1, key) for key, priority in enumerate(priorities, start=1)]


class TestSplitByOrderProgress:
    def test_a_minimum_median_demotes_the_member_holding_it(self):
        members = [1, 2, 3, 4]
        order = triples([9, 9, 5, 7])  # u = 1, v = 2 hold the top priorities
        to_one = _split_by_order(members, order, order[2], u=1, v=2)
        assert to_one == [False, False, True, False]

    def test_a_median_held_by_the_pair_halves_the_other_members(self):
        members = [1, 2, 3, 4, 5]
        order = triples([1, 2, 3, 4, 5])  # the median is u's own value, the minimum
        to_one = _split_by_order(members, order, order[0], u=1, v=2)
        # u and v stay; the upper half of the rest moves to the 1-subgraph.
        assert to_one == [False, False, False, True, True]


class TestFallbackSplit:
    def test_the_upper_half_of_the_group_moves(self):
        assert _fallback_split([1, 2, 3, 4, 5, 6], {2, 3, 5}) == [False, False, True, False, True, False]

    def test_a_one_member_group_still_moves(self):
        assert _fallback_split([1, 2, 3], {2}) == [False, True, False]


class TestNoDummyBetweenThePair:
    """Keys 1-12 split at level 1: the 0-sublist is exactly {u, v} = {2, 7}."""

    def run_chain_check(self, zero_is_pair: bool):
        graph = SkipGraph()
        members = list(range(1, 13))
        for key in members:
            graph.add_node(SkipGraphNode(key=key, membership=MembershipVector((0,) if key in (2, 7) else (1,))))
        transformation = _Transformation(
            graph=graph, priorities={}, u=2, v=7, uid_u=1, t=1, a=2, rng=random.Random(5),
            use_exact_median=False, maintain_a_balance=True, outcome=None, recorder=OpRecorder(graph),
        )
        to_one = [key not in (2, 7) for key in members]
        return transformation._break_chains(members, to_one, 1, zero_is_pair)

    def test_the_run_between_the_pair_is_left_alone(self):
        dummies = self.run_chain_check(zero_is_pair=True)
        # The run 3..6 would need a 0-dummy between u and v; only the run
        # 8..12, right of the pair, gets its dummies.
        assert len(dummies) == 2
        assert all(dummy > 7 for dummy in dummies)

    def test_without_the_rule_a_dummy_lands_between_them(self):
        dummies = self.run_chain_check(zero_is_pair=False)
        assert any(2 < dummy < 7 for dummy in dummies)


def context(states, **overrides):
    fields = dict(
        u=1, v=2, t=9, alpha=0, d_prime=3, members=[1, 2, 3],
        old_membership={1: MembershipVector("0011"), 2: MembershipVector("1"), 3: MembershipVector("0010")},
        new_membership={1: MembershipVector("0011"), 2: MembershipVector("1"), 3: MembershipVector("0010")},
        received_medians={3: {0: 4.0}},
        old_group_u=states[1].uid, old_group_v=states[2].uid,
        old_group_ids_alpha={1: states[1].uid, 2: states[2].uid, 3: -1},
        old_timestamps={key: dict(states[key].timestamps) for key in states},
    )
    fields.update(overrides)
    return TimestampContext(**fields)


def test_t2_reads_the_common_prefix_not_a_postfix():
    # Node 3 shares the prefix 001 with u and no suffix: only the prefix
    # reading reaches its old level-2 stamp (9 > median 4) for c' = 3.
    states = {key: DSGNodeState(key=key) for key in (1, 2, 3)}
    states[3].set_group_id(0, states[1].uid)
    states[3].set_timestamp(1, 2)
    states[3].set_timestamp(2, 9)
    apply_timestamp_rules(states, context(states))
    assert states[3].timestamp(1) == 9


def test_t1_merges_down_to_the_lower_group_base_only():
    states = {key: DSGNodeState(key=key) for key in (1, 2, 3)}
    for key, stamps in ((1, {0: 5, 1: 3, 2: 4}), (2, {0: 7, 1: 6, 2: 1})):
        for level, stamp in stamps.items():
            states[key].set_timestamp(level, stamp)
    states[1].group_base = 2
    states[2].group_base = 1
    _rule_t1(states, context(states))
    assert [states[1].timestamp(level) for level in range(5)] == [5, 6, 4, 9, 9]
    assert [states[2].timestamp(level) for level in range(5)] == [7, 6, 4, 9, 9]
