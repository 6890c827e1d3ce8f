"""Priority rules P1-P4 (paper, Section IV-C).

Upon a communication request ``(u, v)`` every node ``x`` of the common
linked list ``l_alpha`` computes a priority ``P(x)``:

P1
    The communicating nodes take priority infinity.
P2
    Nodes in the same group as ``u`` (resp. ``v``) at level ``alpha`` take
    ``min(T^x_c, T^u_c)`` where ``c`` is the highest level (in the old skip
    graph) at which ``x`` and ``u`` share a group-id; similarly w.r.t. ``v``.
P3
    Every other node takes ``-(G^x_alpha * t) + T^x_{alpha+1}``.
P4
    After a split, a node that landed in a linked list *not* containing the
    communicating pair recomputes its priority for the next level ``d`` as
    ``-(G^x_d * t) + T^x_{d+1}``.

The rules guarantee that the communicating pair has the highest priority,
the merged group has positive priorities (timestamps are positive), every
non-communicating group has negative priorities, and distinct groups occupy
disjoint priority bands ``(-(G+1)*t, -G*t]`` — which is what the Case 2
split logic relies on.

Group identifiers must be positive integers (the paper requires non-negative
identifiers; we additionally exclude 0 so that the band of group 0 cannot
collide with the non-negative priorities of the merged group — see
docs/DEVIATIONS.md, row 5).
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.core.state import DSGNodeState

__all__ = [
    "COMMUNICATING_PRIORITY",
    "compute_priorities",
    "priority_band",
    "recompute_priority_p4",
]

Key = Hashable

#: Priority assigned to the communicating nodes by rule P1.
COMMUNICATING_PRIORITY = math.inf


def _require_positive_identifier(group_id) -> int:
    if not isinstance(group_id, (int,)) or isinstance(group_id, bool) or group_id <= 0:
        raise ValueError(
            f"DSG requires node identifiers / group-ids to be positive integers, got {group_id!r}"
        )
    return group_id


def priority_band(group_id: int, t: int) -> Tuple[float, float]:
    """Half-open priority band ``[low, high)`` of a non-communicating group.

    Rule P3 assigns ``P(x) = -(G * t) + T`` with ``0 <= T < t``, so every
    member of group ``G`` lands in ``[-G*t, -(G-1)*t)``.  (The paper words
    the range as "between ``-(G*t)`` and ``-(G+1)*t``", which is inconsistent
    with its own formula; the formula is authoritative here.)  Bands of
    distinct groups are disjoint, which lets Case 2 identify the unique group
    straddling a negative median.
    """
    _require_positive_identifier(group_id)
    return (-group_id * t, -(group_id - 1) * t)


def _highest_common_group_level(
    state_x: DSGNodeState, state_ref: DSGNodeState, max_level: int
) -> Optional[int]:
    """Highest level ``c <= max_level`` with ``G^x_c == G^ref_c`` (rule P2)."""
    groups_x = state_x.group_ids
    groups_ref = state_ref.group_ids
    uid_x = state_x.uid
    uid_ref = state_ref.uid
    for level in range(max_level, -1, -1):
        if groups_x.get(level, uid_x) == groups_ref.get(level, uid_ref):
            return level
    return None


def compute_priorities(
    states: Mapping[Key, DSGNodeState],
    members: Iterable[Key],
    u: Key,
    v: Key,
    alpha: int,
    t: int,
    height: int,
) -> Dict[Key, float]:
    """Apply rules P1-P3 to every member of ``l_alpha``.

    Parameters
    ----------
    states:
        The (pre-transformation) DSG state of every node.
    members:
        Keys of the nodes in ``l_alpha`` (any order).
    u, v:
        The communicating pair.
    alpha:
        Highest common level of ``u`` and ``v``.
    t:
        The request's timestamp.
    height:
        Current height of the skip graph (upper bound for the level scan of
        rule P2).
    """
    state_u = states[u]
    state_v = states[v]
    group_u = state_u.group_id(alpha)
    group_v = state_v.group_id(alpha)

    priorities: Dict[Key, float] = {}
    for key in members:
        if key == u or key == v:
            priorities[key] = COMMUNICATING_PRIORITY           # P1
            continue
        state_x = states[key]
        group_x = state_x.group_ids.get(alpha, state_x.uid)
        if group_x == group_u:                                  # P2 (u's side)
            c = _highest_common_group_level(state_x, state_u, height)
            priorities[key] = float(
                min(state_x.timestamps.get(c, 0), state_u.timestamps.get(c, 0))
            )
        elif group_x == group_v:                                # P2 (v's side)
            c = _highest_common_group_level(state_x, state_v, height)
            priorities[key] = float(
                min(state_x.timestamps.get(c, 0), state_v.timestamps.get(c, 0))
            )
        else:                                                   # P3
            if type(group_x) is not int or group_x <= 0:
                _require_positive_identifier(group_x)
            priorities[key] = float(-(group_x * t) + state_x.timestamps.get(alpha + 1, 0))
    return priorities


def recompute_priority_p4(state: DSGNodeState, level: int, t: int) -> float:
    """Rule P4: priority for the next split of a list without ``u`` and ``v``.

    ``level`` is the level of the linked list the node just moved into
    (``d`` in the paper); the priority uses the node's group-id at that level
    and its (old) timestamp one level above.
    """
    group = state.group_ids.get(level, state.uid)
    if type(group) is not int or group <= 0:  # fast path for plain ints
        _require_positive_identifier(group)
    return float(-(group * t) + state.timestamps.get(level + 1, 0))
