"""Tests for DSG node state, priority rules P1-P4 and group management."""


import pytest

from repro.core.groups import (
    assign_group_ids_after_split,
    find_straddled_group,
    glower_update,
    initial_group_base,
    merge_groups_at_alpha,
    update_group_bases_after_transformation,
)
from repro.core.priorities import (
    COMMUNICATING_PRIORITY,
    compute_priorities,
    priority_band,
    recompute_priority_p4,
)
from repro.core.state import DSGNodeState, default_uid


def make_states(keys):
    return {key: DSGNodeState(key=key) for key in keys}


def groups_at(states, members, level):
    return [states[key].group_id(level) for key in members]


class TestDSGNodeState:
    def test_defaults(self):
        state = DSGNodeState(key=5)
        assert state.timestamp(0) == 0
        assert state.timestamp(3) == 0
        assert state.group_id(2) == state.uid
        assert state.is_dominating(1) is False
        assert state.group_base == 0

    def test_uid_is_positive_and_stable(self):
        assert DSGNodeState(key=5).uid == DSGNodeState(key=5).uid
        assert DSGNodeState(key=5).uid > 0
        assert default_uid("anything") > 0

    def test_uid_decorrelated_from_key_order(self):
        uids = [DSGNodeState(key=k).uid for k in range(1, 50)]
        assert uids != sorted(uids)

    def test_setters(self):
        state = DSGNodeState(key=1)
        state.set_timestamp(2, 7)
        state.set_group_id(2, 99)
        state.set_dominating(2, True)
        assert state.timestamp(2) == 7
        assert state.group_id(2) == 99
        assert state.is_dominating(2)

    def test_reset(self):
        state = DSGNodeState(key=1)
        state.set_timestamp(2, 7)
        state.set_group_id(2, 99)
        state.group_base = 3
        state.reset()
        assert state.timestamp(2) == 0
        assert state.group_id(2) == state.uid
        assert state.group_base == 0

    def test_memory_words_scales_with_height(self):
        state = DSGNodeState(key=1)
        assert state.memory_words(height=10) > state.memory_words(height=5)

    def test_snapshot(self):
        state = DSGNodeState(key=1)
        state.set_timestamp(1, 4)
        snap = state.snapshot(height=2)
        assert snap["timestamps"] == [0, 4, 0]
        assert snap["group_base"] == 0


class TestPriorityRules:
    def test_p1_communicating_nodes_infinite(self):
        states = make_states([1, 2, 3])
        priorities = compute_priorities(states, [1, 2, 3], u=1, v=2, alpha=0, t=5, height=3)
        assert priorities[1] == COMMUNICATING_PRIORITY
        assert priorities[2] == COMMUNICATING_PRIORITY

    def test_p2_group_members_get_min_timestamp(self):
        states = make_states([1, 2, 3])
        # Node 3 is in node 1's group at level 0; they share group-id at level 1 too.
        states[3].set_group_id(0, states[1].uid)
        states[3].set_group_id(1, states[1].uid)
        states[1].set_group_id(1, states[1].uid)
        states[3].set_timestamp(1, 4)
        states[1].set_timestamp(1, 9)
        priorities = compute_priorities(states, [1, 2, 3], u=1, v=2, alpha=0, t=10, height=3)
        assert priorities[3] == 4.0  # min(T^3_1, T^1_1)

    def test_p3_other_nodes_negative(self):
        states = make_states([1, 2, 3])
        priorities = compute_priorities(states, [1, 2, 3], u=1, v=2, alpha=0, t=10, height=3)
        assert priorities[3] == -(states[3].uid * 10) + 0
        assert priorities[3] < 0

    def test_p3_respects_band(self):
        states = make_states([1, 2, 3])
        states[3].set_timestamp(1, 6)
        t = 10
        priorities = compute_priorities(states, [1, 2, 3], u=1, v=2, alpha=0, t=t, height=3)
        low, high = priority_band(states[3].group_id(0), t)
        assert low <= priorities[3] < high

    def test_p4_recompute(self):
        state = DSGNodeState(key=7)
        state.set_group_id(2, 13)
        state.set_timestamp(3, 5)
        assert recompute_priority_p4(state, level=2, t=10) == -(13 * 10) + 5

    def test_non_positive_group_id_rejected(self):
        state = DSGNodeState(key=7)
        state.set_group_id(2, 0)
        with pytest.raises(ValueError):
            recompute_priority_p4(state, level=2, t=10)
        with pytest.raises(ValueError):
            priority_band(-3, 10)

    def test_priority_bands_disjoint_for_distinct_groups(self):
        t = 17
        band_a = priority_band(5, t)
        band_b = priority_band(6, t)
        assert band_b[1] <= band_a[0]


class TestGroups:
    def test_merge_groups_at_alpha(self):
        states = make_states([1, 2, 3, 4])
        states[3].set_group_id(0, states[1].uid)   # 3 in u's group
        states[4].set_group_id(0, states[2].uid)   # 4 in v's group
        merged = merge_groups_at_alpha(states, [1, 2, 3, 4], u=1, v=2, alpha=0)
        assert set(merged) == {1, 2, 3, 4}
        assert all(states[k].group_id(0) == states[1].uid for k in (1, 2, 3, 4))

    def test_merge_leaves_other_groups_alone(self):
        states = make_states([1, 2, 3])
        before = states[3].group_id(0)
        merge_groups_at_alpha(states, [1, 2, 3], u=1, v=2, alpha=0)
        assert states[3].group_id(0) == before

    def test_find_straddled_group(self):
        states = make_states([1, 2, 3, 4, 5])
        t = 10
        # Nodes 3, 4 share a group; craft the median inside their band.
        shared = states[3].uid
        states[4].set_group_id(1, shared)
        states[3].set_group_id(1, shared)
        median = -(shared * t) + 1  # inside the band [-G*t, -(G-1)*t)
        members = [1, 2, 3, 4, 5]
        found = find_straddled_group(members, groups_at(states, members, 1), median=median, t=t, exclude=(1, 2))
        assert found == [3, 4]

    def test_find_straddled_group_never_returns_the_pair(self):
        states = make_states([1, 2, 3])
        t = 10
        shared = states[1].uid
        for key in (1, 2, 3):
            states[key].set_group_id(0, shared)
        median = -(shared * t)
        assert find_straddled_group([1, 2, 3], groups_at(states, [1, 2, 3], 0), median, t, exclude=(1, 2)) == [3]
        assert find_straddled_group([1, 2], groups_at(states, [1, 2], 0), median, t, exclude=(1, 2)) is None

    def test_find_straddled_group_none_for_positive_median(self):
        states = make_states([1, 2, 3])
        groups = groups_at(states, [1, 2, 3], 0)
        assert find_straddled_group([1, 2, 3], groups, median=5.0, t=10, exclude=(1, 2)) is None

    def test_find_straddled_group_none_when_no_band_matches(self):
        states = make_states([1, 2, 3])
        t = 10
        median = -0.5  # above every band of positive group ids
        groups = groups_at(states, [1, 2, 3], 0)
        assert find_straddled_group([1, 2, 3], groups, median=median, t=t, exclude=(1, 2)) is None

    def test_assign_group_ids_after_split_uv_list(self):
        states = make_states([1, 2, 3, 4])
        members = [1, 2, 3, 4]
        split = assign_group_ids_after_split(
            [states[k] for k in members], groups_at(states, members, 0), [False, False, False, True],
            level=1, pair_side=False, pair_uid=states[1].uid,
        )
        assert all(states[k].group_id(1) == states[1].uid for k in (1, 2, 3))
        # Node 4 was a singleton group, so nothing was split.
        assert split == []
        assert 1 not in states[4].group_ids

    def test_assign_group_ids_split_group_gets_leftmost_uid(self):
        states = make_states([1, 2, 3, 4, 5, 6])
        shared = 999
        for key in (3, 4, 5, 6):
            states[key].set_group_id(0, shared)
        members = [1, 2, 3, 4, 5, 6]
        split = assign_group_ids_after_split(
            [states[k] for k in members], groups_at(states, members, 0),
            [False, False, False, False, True, True], level=1, pair_side=False, pair_uid=states[1].uid,
        )
        assert split == [shared]
        assert states[5].group_id(1) == states[5].uid
        assert states[6].group_id(1) == states[5].uid
        assert all(states[k].group_id(1) == states[1].uid for k in (1, 2, 3, 4))

    def test_assign_group_ids_separated_pair_adopts_nothing(self):
        states = make_states([1, 2, 3])
        members = [1, 2, 3]
        split = assign_group_ids_after_split(
            [states[k] for k in members], groups_at(states, members, 0), [False, True, False], level=1,
        )
        assert split == []
        assert all(1 not in states[k].group_ids for k in members)

    def test_glower_update_noop_when_groups_agree(self):
        states = make_states([1, 2, 3])
        # u and v already share their level-0 group-id: nothing to align.
        states[2].set_group_id(0, states[1].group_id(0))
        assert glower_update(states, [1, 2, 3], [1, 2, 3], u=1, v=2, alpha=1) == set()

    def test_glower_update_aligns_lower_levels(self):
        states = make_states([1, 2, 3])
        # u and v disagree at level 0; u has the smaller group-base.
        states[1].group_base = 0
        states[2].group_base = 1
        states[1].set_group_id(0, 111)
        states[2].set_group_id(0, 222)
        states[3].set_group_id(1, states[1].group_id(1))
        participants = glower_update(states, [1, 2, 3], [1, 2, 3], u=1, v=2, alpha=1)
        assert 1 in participants or 2 in participants
        assert states[2].group_id(0) == 111 or states[2].group_base == 0

    def test_group_base_updates(self):
        states = make_states([1, 2])
        states[1].group_base = 2
        update_group_bases_after_transformation(states, [1, 2], {1: [2]}, alpha=1)
        assert states[1].group_base == 1

    def test_group_base_update_from_alpha(self):
        states = make_states([1])
        states[1].group_base = 1
        update_group_bases_after_transformation(states, [1], {1: [4]}, alpha=1)
        assert states[1].group_base == 3

    def test_initial_group_base(self):
        assert initial_group_base(3) == 3
        assert initial_group_base(-1) == 0
