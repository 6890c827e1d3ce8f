"""Timestamp rules T1-T6 (paper, Section IV-E).

Timestamps encode how recently a node last "confirmed" its attachment to the
group it belongs to at each level; DSG uses them both to compute priorities
(P2/P3) and to decide, during later transformations, which nodes may be
separated without violating the working set property.

The rules are applied once per request, *after* the structural
transformation, in the order T1 .. T6.  They need a fairly rich view of what
the transformation did, bundled in :class:`TimestampContext`:

* the membership vectors before (``S_t``) and after (``S_{t+1}``) the
  transformation,
* the approximate median received by each node at each level,
* which (old) groups were split, and at which levels, for each node,
* which nodes initialized or received ``G_lower`` (Appendix C),
* the snapshot of all timestamps before the request (several rules refer to
  the *old* values).

Two definitional ambiguities in the paper are resolved as follows (rows 6
and 7 of docs/DEVIATIONS.md): the "longest common postfix" of two membership
vectors is interpreted as the longest common *prefix* (the quantity that
determines the highest shared linked list, which is what the surrounding
text uses it for), and rule T1's downward loop runs to ``min(B_u, B_v)``
(rule T6 zeroes anything below the group-base afterwards, so this choice is
conservative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, List, Mapping, Sequence, Set

from repro.core.state import DSGNodeState
from repro.skipgraph.membership import MembershipVector, common_prefix_length

__all__ = ["TimestampContext", "apply_timestamp_rules"]

Key = Hashable


@dataclass
class TimestampContext:
    """Everything the timestamp rules need to know about one request."""

    u: Key
    v: Key
    t: int
    alpha: int
    #: Level at which ``u`` and ``v`` form a linked list of size two.
    d_prime: int
    #: Members of ``l_alpha`` (the nodes involved in the transformation).
    members: Sequence[Key]
    #: Membership vectors before the transformation (``S_t``).
    old_membership: Mapping[Key, MembershipVector]
    #: Membership vectors after the transformation (``S_{t+1}``).
    new_membership: Mapping[Key, MembershipVector]
    #: ``received_medians[x][d]`` = approximate median received by ``x``
    #: while its level-``d`` list was being split.
    received_medians: Mapping[Key, Mapping[int, float]]
    #: Old group-ids at level ``alpha`` (before the merge), for rule T3.
    old_group_u: Key = None
    old_group_v: Key = None
    old_group_ids_alpha: Mapping[Key, Key] = field(default_factory=dict)
    #: ``split_levels[x]`` = levels at which ``x``'s group was split.
    split_levels: Mapping[Key, List[int]] = field(default_factory=dict)
    #: Nodes that initialized or received ``G_lower`` (rule T4).
    glower_participants: Set[Key] = field(default_factory=set)
    #: Snapshot of every member's timestamps taken before the request.
    old_timestamps: Mapping[Key, Mapping[int, int]] = field(default_factory=dict)


def apply_timestamp_rules(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """Apply rules T1-T6 in order, mutating ``states`` in place."""
    _rule_t1(states, ctx)
    _rule_t2(states, ctx)
    _rule_t3(states, ctx)
    _rule_t4(states, ctx)
    _rule_t5(states, ctx)
    _rule_t6(states, ctx)


def _old_timestamp(ctx: TimestampContext, key: Key, level: int) -> int:
    return ctx.old_timestamps.get(key, {}).get(level, 0)


def _rule_t1(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T1: stamp the communicating pair with the current time."""
    state_u, state_v = states[ctx.u], states[ctx.v]
    for state in (state_u, state_v):
        state.set_timestamp(ctx.d_prime, ctx.t)
        state.set_timestamp(ctx.d_prime + 1, ctx.t)
    floor_level = min(state_u.group_base, state_v.group_base)
    for level in range(ctx.d_prime - 1, floor_level - 1, -1):
        merged = max(_old_timestamp(ctx, ctx.u, level), _old_timestamp(ctx, ctx.v, level))
        state_u.set_timestamp(level, merged)
        state_v.set_timestamp(level, merged)


def _rule_t2(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T2: refresh timestamps of nodes that stay in the merged group.

    ``c'`` is the common prefix of a node with its nearest communicating node
    in ``S_t``.  ``u`` and ``v`` share their first ``shared`` bits, and a node
    can agree with at most one of them on the next bit; that one is the
    nearest (on a tie both prefixes are equal), so one prefix per node is
    computed — and only for a node that received a median at a level where
    it belongs to the merged group.
    """
    u, v, alpha, t = ctx.u, ctx.v, ctx.alpha, ctx.t
    uid_u = states[u].uid
    old_membership = ctx.old_membership
    old_u = old_membership[u]
    old_v = old_membership[v]
    shared = common_prefix_length(old_u, old_v)
    for key in ctx.members:
        if key == u or key == v:
            continue
        medians = ctx.received_medians.get(key)
        if not medians:
            continue
        state = states[key]
        group_ids = state.group_ids
        uid = state.uid
        levels = [level for level in sorted(medians) if level >= alpha and group_ids.get(level, uid) == uid_u]
        if not levels:
            continue
        membership = old_membership[key]
        nearest = old_v if len(membership) > shared < len(old_v) and membership[shared] == old_v[shared] else old_u
        c_prime = common_prefix_length(membership, nearest)
        stamps = ctx.old_timestamps.get(key, {})
        older = [stamps.get(c, 0) for c in range(alpha, max(alpha, c_prime))]
        timestamps = state.timestamps
        for level in levels:
            median = medians[level]
            if median == math.inf:
                # The split was decided by the communicating pair's infinite
                # priority alone; the relevant "time" for rule T2 is then the
                # request's own timestamp.
                median = t
            for stamp in older:
                if stamp > median:
                    break
            else:
                stamp = max(median, 0)
            timestamps[level + 1] = int(stamp)


def _rule_t3(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T3: nodes separated from the pair inherit the timestamp of the old depth."""
    u, v = ctx.u, ctx.v
    endpoints = ((u, ctx.old_group_u), (v, ctx.old_group_v))
    old_membership = ctx.old_membership
    new_membership = ctx.new_membership
    for key in ctx.members:
        if key == u or key == v:
            continue
        old_group = ctx.old_group_ids_alpha.get(key)
        for endpoint, endpoint_group in endpoints:
            if old_group != endpoint_group:
                continue
            c_prime = common_prefix_length(old_membership[key], old_membership[endpoint])
            c_double = common_prefix_length(new_membership[key], new_membership[endpoint])
            if c_prime - 1 > c_double + 1:
                timestamps = states[key].timestamps
                anchor = timestamps.get(c_prime, 0)
                for level in range(c_double + 1, c_prime):
                    timestamps[level] = anchor


def _rule_t4(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T4: nodes touched by the G_lower update clear stale low-level stamps."""
    for key in ctx.glower_participants:
        if key not in states:
            continue
        state = states[key]
        lowest_zero = None
        for level in range(0, ctx.d_prime + 2):
            if state.timestamp(level + 1) == 0:
                lowest_zero = level
                break
        if lowest_zero is None or lowest_zero <= state.group_base:
            continue
        fill = state.timestamp(lowest_zero + 1)
        for level in range(state.group_base, lowest_zero + 1):
            state.set_timestamp(level, fill)


def _rule_t5(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T5: members of a split group backfill a zero timestamp one level down."""
    floor = max(ctx.alpha, 1)
    for key in ctx.members:
        split_levels = ctx.split_levels.get(key)
        if not split_levels:
            continue
        timestamps = states[key].timestamps
        for level in sorted(split_levels):
            if level >= floor and timestamps.get(level - 1, 0) == 0:
                timestamps[level - 1] = timestamps.get(level, 0)


def _rule_t6(states: Mapping[Key, DSGNodeState], ctx: TimestampContext) -> None:
    """T6: zero every timestamp below the node's group-base."""
    for key in ctx.members:
        state = states[key]
        timestamps = state.timestamps
        for level in range(0, state.group_base):
            if timestamps.get(level, 0) != 0:
                timestamps[level] = 0
