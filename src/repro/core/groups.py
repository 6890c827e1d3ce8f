"""Group management: merge, split reassignment, G_lower and group-bases.

Implements the group-id bookkeeping of Sections IV-C/IV-D and Appendix C:

* merging the communicating nodes' groups at level ``alpha`` (all members
  adopt ``u``'s identifier as group-id),
* locating the group ``g_s`` whose priority band straddles a negative
  approximate median (Case 2 of the transformation),
* reassigning group-ids after a split (the sub-group that moves to the
  1-subgraph adopts the identifier of its left-most member; every node whose
  new linked list contains both ``u`` and ``v`` adopts ``u``),
* the ``G_lower`` propagation that aligns group-ids below ``alpha`` when the
  merged groups had different histories (Appendix C),
* group-base maintenance.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.priorities import priority_band
from repro.core.state import DSGNodeState

__all__ = [
    "merge_groups_at_alpha",
    "find_straddled_group",
    "assign_group_ids_after_split",
    "glower_update",
    "update_group_bases_after_transformation",
    "initial_group_base",
]

Key = Hashable


def merge_groups_at_alpha(
    states: Mapping[Key, DSGNodeState],
    members: Iterable[Key],
    u: Key,
    v: Key,
    alpha: int,
) -> List[Key]:
    """Merge ``u``'s and ``v``'s groups at level ``alpha`` (Section IV-C).

    Every member of either group adopts ``u``'s numeric identifier as its
    level-``alpha`` group-id.  Returns the keys of the merged group
    (including ``u`` and ``v``).
    """
    group_u = states[u].group_id(alpha)
    group_v = states[v].group_id(alpha)
    uid_u = states[u].uid
    merged: List[Key] = []
    for key in members:
        state = states[key]
        if state.group_ids.get(alpha, state.uid) in (group_u, group_v):
            state.group_ids[alpha] = uid_u
            merged.append(key)
    return merged


def find_straddled_group(
    members: Sequence[Key],
    groups: Sequence[Key],
    median: float,
    t: int,
    exclude: Tuple[Key, Key],
) -> Optional[List[Key]]:
    """Find the non-communicating group ``g_s`` straddled by a negative median.

    Case 2 of the transformation (Section IV-C): when the approximate median
    ``M`` is negative there may exist a group ``g_s`` whose priority band
    ``(-(G+1)*t, -G*t]`` contains ``M`` (equation 2); splitting by direct
    priority comparison would tear that group apart.  ``groups[i]`` is
    ``members[i]``'s group-id at the level of the list being split; the
    members in ``exclude`` (the communicating pair) never belong to ``g_s``.

    Returns the members of ``g_s`` within ``members`` (in the given order),
    or ``None`` when no group straddles the median.
    """
    if median >= 0:
        return None
    u, v = exclude
    # Bands are disjoint, so at most one group straddles the median: each
    # distinct group-id is tested once, and after the hit only equality with
    # it is checked.
    straddled: Optional[int] = None
    missed = set()
    found: List[Key] = []
    for key, group in zip(members, groups):
        if key == u or key == v:
            continue
        if type(group) is not int and (isinstance(group, bool) or not isinstance(group, int)):
            continue  # only positive integer group-ids have a band
        if group <= 0:
            continue
        if group != straddled:
            if straddled is not None or group in missed:
                continue
            low, high = priority_band(group, t)
            if not low <= median < high:
                missed.add(group)
                continue
            straddled = group
        found.append(key)
    return found or None


def assign_group_ids_after_split(
    member_states: Sequence[DSGNodeState],
    parent_groups: Sequence[Key],
    to_one: Sequence[bool],
    level: int,
    pair_side: Optional[bool] = None,
    pair_uid: Optional[int] = None,
) -> List[Key]:
    """Reassign level-``level`` group-ids after one split (Section IV-D).

    The split list's members are given in key order as three aligned
    sequences: their states, their group-ids at the parent level and whether
    each moved to the 1-subgraph.

    * every (old, parent-level) group that is split between the two new
      lists gives the part that moved to the 1-subgraph a fresh group-id:
      the numeric identifier of that part's left-most member;
    * every node whose new list contains both ``u`` and ``v`` — the side
      ``pair_side`` (``None`` when no new list holds both) — sets its
      group-id to ``u``'s numeric identifier ``pair_uid``;
    * groups that moved intact keep their existing level-``level`` group-ids
      (their internal sub-group structure is preserved, as the analysis of
      Lemma 2 requires).

    Returns the old group-ids that were split by this assignment (used by
    timestamp rule T5 and the group-base updates).
    """
    # Per old group: the state of its left-most member on the 1-side, and
    # whether any member stayed on the 0-side.
    leftmost_one: Dict[Key, DSGNodeState] = {}
    in_zero = set()
    for state, group, moved in zip(member_states, parent_groups, to_one):
        if not moved:
            in_zero.add(group)
        elif group not in leftmost_one:
            leftmost_one[group] = state
    split_groups = [group for group in leftmost_one if group in in_zero]

    if split_groups:
        new_ids = {group: leftmost_one[group].uid for group in split_groups}
        for state, group, moved in zip(member_states, parent_groups, to_one):
            if moved and group in new_ids:
                state.group_ids[level] = new_ids[group]
    if pair_side is not None:
        for state, moved in zip(member_states, to_one):
            if moved == pair_side:
                state.group_ids[level] = pair_uid
    return split_groups


def glower_update(
    states: Mapping[Key, DSGNodeState],
    alpha_members: Sequence[Key],
    wider_members: Sequence[Key],
    u: Key,
    v: Key,
    alpha: int,
) -> set:
    """Appendix C: align group-ids below ``alpha`` after a merge.

    When ``u``'s and ``v``'s groups had different group-ids at level
    ``alpha - 1`` their histories below ``alpha`` disagree; the node with the
    *smaller* group-base donates its lower-level group-ids (the vector
    ``G_lower``) to the other group's members, and every node of the merged
    group at level ``alpha`` adopts ``G_lower`` for levels below ``alpha``.

    Parameters
    ----------
    alpha_members:
        Members of ``l_alpha``.
    wider_members:
        Members of the list at level ``max(B_u, B_v)`` that contains the pair
        (a superset of ``l_alpha``).

    Returns the set of nodes that initialized or received ``G_lower`` (used
    by timestamp rule T4); the set is empty when no update was needed.
    """
    if alpha == 0:
        return set()
    state_u, state_v = states[u], states[v]
    if state_u.group_id(alpha - 1) == state_v.group_id(alpha - 1):
        return set()

    base_u, base_v = state_u.group_base, state_v.group_base
    donor = state_u if base_u <= base_v else state_v
    g_lower = [donor.group_id(level) for level in range(alpha)]
    new_base = min(base_u, base_v)
    wide_level = max(base_u, base_v)
    ref_u = state_u.group_id(wide_level)
    ref_v = state_v.group_id(wide_level)

    participants = set()
    for key in wider_members:
        state = states[key]
        if state.group_id(wide_level) in (ref_u, ref_v):
            state.group_base = new_base
            for level in range(min(alpha, len(g_lower))):
                state.set_group_id(level, g_lower[level])
            participants.add(key)

    for key in alpha_members:
        state = states[key]
        if state.group_id(alpha) == states[u].uid:
            for level in range(min(alpha, len(g_lower))):
                state.set_group_id(level, g_lower[level])
            participants.add(key)
    return participants


def update_group_bases_after_transformation(
    states: Mapping[Key, DSGNodeState],
    members: Sequence[Key],
    split_levels_per_key: Mapping[Key, List[int]],
    alpha: int,
) -> None:
    """Group-base maintenance after a transformation (Appendix C).

    * if a node's group split at some level ``d >= alpha`` and its group-base
      was exactly ``d``, the base drops by one;
    * if its base was ``alpha`` and the lowest level at which its group split
      is ``d > alpha + 1``, the base becomes ``d - 1``.
    """
    for key in members:
        state = states[key]
        split_levels = sorted(split_levels_per_key.get(key, []))
        if not split_levels:
            continue
        if state.group_base in split_levels and state.group_base >= alpha:
            state.group_base = max(0, state.group_base - 1)
        lowest = split_levels[0]
        if state.group_base == alpha and lowest > alpha + 1:
            state.group_base = lowest - 1


def initial_group_base(singleton_level: int) -> int:
    """Initial group-base: the lowest level at which the node is singleton."""
    return max(0, singleton_level)
