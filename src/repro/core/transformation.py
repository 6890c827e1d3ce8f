"""The level-by-level topology transformation (paper, Section IV-C/IV-F).

Starting from the highest common linked list ``l_alpha`` of the
communicating pair, the transformation splits every affected linked list
into its 0-sublist and 1-sublist, level by level, until all involved nodes
are singletons.  Each split:

1. computes the approximate median ``M`` of the members' priorities (AMF);
2. assigns each member to the 0- or 1-subgraph:

   * Case 1 (``M`` positive): by direct priority comparison, which splits
     the merged group and records the *is-dominating-group* flags;
   * Case 2 (``M`` negative): if a non-communicating group ``g_s``
     straddles the median, the 1/3-2/3 rules of the paper decide whether
     ``g_s`` is split (using the dominating flags), moved wholesale to the
     lighter side, or moved wholesale to the 1-subgraph;

3. reassigns group-ids of split groups (Section IV-D);
4. re-checks the a-balance property and inserts *dummy nodes* into the
   sibling sublist to break over-long runs (Section IV-F);
5. recomputes priorities with rule P4 for the sublist that does not contain
   the communicating pair.

Round accounting: every split charges the AMF rounds (skip list
construction, convergecast, broadcast), the distributed-count rounds when
Case 2 needs ``|g_s|``/``|L_low|``/``|L_high|``, the group-id broadcast when
a group splits, the ``<= a``-round neighbour search for building the new
lists, and a constant for the chain detection.  Sibling sublists transform
in parallel, so the transformation cost of a request is the *critical path*
(max over children), while ``total_work_rounds`` accumulates everything for
message-count analyses.

Structurally, :func:`transform` is a *planner* over the local-operation
kernel (:mod:`repro.core.local_ops`): every membership write and dummy
insertion flows through an :class:`~repro.core.local_ops.OpRecorder`, and
the emitted sequence (the recorder's ``ops``) is a self-contained plan —
replaying it with :func:`~repro.core.local_ops.apply_ops` on a copy of the
pre-request graph reproduces the post-request graph, which is how the
distributed protocol (:mod:`repro.distributed.dsg_protocol`) executes the
same transformation as O(log n)-bit messages.

One request's invariants (graph, states, priorities, the pair, ``t``,
``a``, the RNG, the outcome and the recorder) are bound once on a
:class:`_Transformation`; its :meth:`~_Transformation.split` recursion
carries only what changes from one split to the next — ``(members,
level)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, MutableMapping, Optional, Sequence, Set, Tuple

from repro.core.amf import AMFResult, approximate_median, exact_median
from repro.core.groups import assign_group_ids_after_split, find_straddled_group
from repro.core.local_ops import OpRecorder
from repro.core.priorities import _require_positive_identifier
from repro.core.state import DSGNodeState
from repro.skipgraph.skipgraph import SkipGraph
from repro.skiplist.distributed_sum import distributed_sum

__all__ = ["TransformationOutcome", "transform"]

Key = Hashable

#: Rounds charged for the local a-balance chain detection at each split.
CHAIN_CHECK_ROUNDS = 2
#: Rounds charged for placing one dummy node (identifier pick + linking).
DUMMY_PLACEMENT_ROUNDS = 2


@dataclass
class TransformationOutcome:
    """Aggregate result of one transformation.

    The emitted local-operation plan is not carried here: it is the
    ``ops`` list of the :class:`~repro.core.local_ops.OpRecorder` the
    caller passed into :func:`transform`.
    """

    rounds: int                      # critical-path rounds (parallel branches)
    total_work_rounds: int           # sum of the rounds of every split
    amf_calls: int
    received_medians: Dict[Key, Dict[int, float]]
    split_levels: Dict[Key, List[int]]
    alpha: int
    d_prime: int
    deepest_level: int               # deepest level a split assigned a bit at
    dummies_added: List[Key]

    @property
    def levels_rebuilt(self) -> int:
        """Levels below ``alpha`` that at least one split assigned bits at."""
        return self.deepest_level - self.alpha


def transform(
    graph: SkipGraph,
    states: MutableMapping[Key, DSGNodeState],
    members: Sequence[Key],
    priorities: MutableMapping[Key, float],
    u: Key,
    v: Key,
    alpha: int,
    t: int,
    a: int,
    rng: random.Random,
    use_exact_median: bool = False,
    maintain_a_balance: bool = True,
    recorder: Optional[OpRecorder] = None,
) -> TransformationOutcome:
    """Transform the subtree rooted at ``l_alpha`` so that ``u``-``v`` become adjacent.

    Every structural write goes through ``recorder`` (created over ``graph``
    when not supplied), whose ``ops`` are the local-op plan that goes with
    the outcome's cost accounting.
    """
    members = sorted(members)
    if recorder is None:
        recorder = OpRecorder(graph)
    outcome = TransformationOutcome(
        rounds=0,
        total_work_rounds=0,
        amf_calls=0,
        received_medians={key: {} for key in members},
        split_levels={},
        alpha=alpha,
        d_prime=alpha,
        deepest_level=alpha,
        dummies_added=[],
    )

    # The rebuilt subtree replaces whatever was below level ``alpha``: every
    # involved node forgets its deeper membership bits and re-acquires them
    # level by level ("finds their new and complete membership vectors").
    # One run: the members are sorted and share their first ``alpha`` bits,
    # so the recorder truncates the whole subtree in a single pass.
    recorder.demote_run(members, alpha)

    transformation = _Transformation(
        graph=graph, states=states, priorities=priorities, u=u, v=v, t=t, a=a, rng=rng,
        use_exact_median=use_exact_median, maintain_a_balance=maintain_a_balance,
        outcome=outcome, recorder=recorder,
    )
    outcome.rounds = transformation.split(members, alpha + 1)
    return outcome


# --------------------------------------------------------------------------- recursion
@dataclass(slots=True)
class _Transformation:
    """One request's transformation: its invariants, bound once."""

    graph: SkipGraph
    states: MutableMapping[Key, DSGNodeState]
    priorities: MutableMapping[Key, float]
    u: Key
    v: Key
    t: int
    a: int
    rng: random.Random
    use_exact_median: bool
    maintain_a_balance: bool
    outcome: TransformationOutcome
    recorder: OpRecorder

    def split(self, members: List[Key], level: int) -> int:
        """Split ``members`` (a linked list at ``level - 1``) and recurse.

        Returns the critical-path rounds of this branch.
        """
        if len(members) < 2:
            return 0

        u = self.u
        v = self.v
        states = self.states
        priorities = self.priorities
        outcome = self.outcome
        recorder = self.recorder
        contains_pair = u in members and v in members

        # ------------------------------------------------------------ median
        if contains_pair and set(members) == {u, v}:
            amf_result: Optional[AMFResult] = None
            step_rounds = 1
            zero_list, one_list = [u], [v]
            outcome.d_prime = level - 1
        else:
            # Priorities are totally ordered as (priority, finer group-id, key)
            # triples: ties in raw priority (common when rule T2 stamped a whole
            # group with the same value) are broken first by the node's group-id
            # at the level being assigned — so members of the same finer group
            # stay contiguous in the order and are only separated when the median
            # falls inside their block — and finally by key so the order is
            # total.  This keeps the skip graph height bounded (Lemma 5) while
            # preserving the group cohesion the working set property relies on
            # (see DESIGN.md, "Simplifications").
            ordered_values = {}
            for key in members:
                state = states[key]
                group = state.group_ids.get(level, state.uid)
                if type(group) is not int:  # bool / non-int ids take the slow path
                    group = _group_rank(state, level)
                ordered_values[key] = (priorities[key], group, key)
            if self.use_exact_median:
                median_pair = exact_median(list(ordered_values.values()))
                amf_result = None
                step_rounds = 2 * max(1, math.ceil(math.log2(len(members))))
            else:
                # Rank diagnostics (Lemma 1 instrumentation) are skipped on the
                # serving path: two O(n) scans per split that nothing reads.
                amf_result = approximate_median(
                    ordered_values, a=self.a, rng=self.rng, diagnostics=False
                )
                median_pair = amf_result.median
                step_rounds = amf_result.rounds
                outcome.amf_calls += 1
            median = median_pair[0]

            received_medians = outcome.received_medians
            parent_level = level - 1
            for key in members:
                per_key = received_medians.get(key)
                if per_key is None:
                    received_medians[key] = {parent_level: median}
                else:
                    per_key[parent_level] = median

            zero_list, one_list, extra_rounds = self._assign(
                members, ordered_values, median_pair, level, amf_result
            )
            step_rounds += extra_rounds

        # ------------------------------------------------------------ apply bits
        # Each sublist is one commuting run (distinct keys, same level, same
        # bit): the recorder splices the new level list in one pass.
        recorder.promote_run(zero_list, level, 0)
        recorder.promote_run(one_list, level, 1)

        # Finding the new left/right neighbours costs at most ``a`` rounds thanks
        # to the a-balance property (Section IV-C).
        step_rounds += self.a

        # ------------------------------------------------------------ group ids
        split_group_ids = assign_group_ids_after_split(
            states=states,
            zero_list=zero_list,
            one_list=one_list,
            level=level,
            parent_level=level - 1,
            u=u,
            v=v,
        )
        if split_group_ids:
            # New group-id broadcast over the balanced skip list (Section IV-D).
            step_rounds += (
                amf_result.skiplist.broadcast_rounds()
                if amf_result is not None and amf_result.skiplist is not None
                else max(1, math.ceil(math.log2(len(members))))
            )
            split_parent_groups = set(split_group_ids)
            parent = level - 1
            uid_u = states[u].uid
            for key in members:
                state = states[key]
                gid = state.group_ids.get(parent, state.uid)
                if gid in split_parent_groups or (contains_pair and gid == uid_u):
                    outcome.split_levels.setdefault(key, []).append(parent)

        # ------------------------------------------------------------ dummies
        if self.maintain_a_balance:
            dummies = self._break_chains(members, zero_list, one_list, level)
            if dummies:
                step_rounds += CHAIN_CHECK_ROUNDS + DUMMY_PLACEMENT_ROUNDS
            else:
                step_rounds += CHAIN_CHECK_ROUNDS
            outcome.dummies_added.extend(dummies)

        if set(zero_list) == {u, v}:
            outcome.d_prime = level
        if level > outcome.deepest_level:
            outcome.deepest_level = level
        outcome.total_work_rounds += step_rounds

        # ------------------------------------------------------------ P4 + recurse
        child_rounds = 0
        for child in (zero_list, one_list):
            if len(child) < 2:
                continue
            child_has_pair = u in child and v in child
            if not child_has_pair:
                # Rule P4 inlined (see recompute_priority_p4): one dict probe per
                # member on the hottest loop of the recursion.
                t = self.t
                next_level = level + 1
                for key in child:
                    state = states[key]
                    group = state.group_ids.get(level, state.uid)
                    if type(group) is not int or group <= 0:
                        _require_positive_identifier(group)
                    priorities[key] = float(-(group * t) + state.timestamps.get(next_level, 0))
            child_rounds = max(child_rounds, self.split(child, level + 1))
        return step_rounds + child_rounds

    # ----------------------------------------------------------------------- assignment
    def _assign(
        self,
        members: List[Key],
        order: Mapping[Key, Tuple[float, int, Key]],
        median_pair: Tuple[float, int, Key],
        level: int,
        amf_result: Optional[AMFResult],
    ) -> Tuple[List[Key], List[Key], int]:
        """Decide which members move to the 0- and 1-subgraph.

        ``order`` maps every member to its ``(priority, group, key)`` triple
        and ``median_pair`` is the approximate median of those triples; the
        numeric median (used by the Case 2 band test) is ``median_pair[0]``.

        Returns ``(zero_list, one_list, extra_rounds)``.
        """
        u = self.u
        v = self.v
        states = self.states
        median = median_pair[0]
        if median >= 0:
            zero, one = _split_by_order(members, order, median_pair, u, v)
            # Case 1 records the is-dominating-group flags for this level.
            for key in zero:
                states[key].set_dominating(level, True)
            for key in one:
                states[key].set_dominating(level, False)
            return zero, one, 0

        straddled = find_straddled_group(
            states=states, members=members, level=level - 1, median=median, t=self.t, exclude=(u, v)
        )
        if straddled is None:
            zero, one = _split_by_order(members, order, median_pair, u, v)
            return zero, one, 0

        # Case 2 proper: the distributed counts |g_s|, |L_low|, |L_high| cost one
        # aggregation over the balanced skip list built by AMF (Appendix D).
        extra_rounds = _count_rounds(amf_result, members)
        gs = set(straddled)
        size_gs = len(gs)
        size_list = len(members)

        if size_gs * 3 > 2 * size_list:  # |g_s| > 2/3 |l_d|
            one = [key for key in members if key in gs and states[key].is_dominating(level)]
            one_set = set(one)
            zero = [key for key in members if key not in one_set]
            if not one:
                # No member of g_s carries a dominating flag (the group was never
                # formed by a positive median).  Fall back to halving the group
                # so the height bound of Lemma 5 still holds.
                zero, one = _fallback_split(members, gs)
            return sorted(zero), sorted(one), extra_rounds

        if size_gs * 3 < size_list:  # |g_s| < 1/3 |l_d|
            low_count = sum(1 for key in members if order[key] < median_pair)
            high_count = size_list - low_count
            zero = [key for key in members if key not in gs and order[key] >= median_pair]
            one = [key for key in members if key not in gs and order[key] < median_pair]
            if high_count < low_count:
                zero.extend(straddled)
            else:
                one.extend(straddled)
            return sorted(zero), sorted(one), extra_rounds

        # 1/3 |l_d| <= |g_s| <= 2/3 |l_d|
        one = list(straddled)
        zero = [key for key in members if key not in gs]
        return sorted(zero), sorted(one), extra_rounds

    # ----------------------------------------------------------------------- dummies
    def _break_chains(
        self,
        members: List[Key],
        zero_list: List[Key],
        one_list: List[Key],
        level: int,
    ) -> List[Key]:
        """Insert dummy nodes to break runs longer than ``a`` (Section IV-F).

        A run of more than ``a`` consecutive members of the parent list moving to
        the same sublist violates the a-balance property; a dummy node with the
        sibling bit is inserted between the ``a``-th and ``a+1``-th node of the
        run.  The dummy's key is chosen strictly between its neighbours so the
        base-level order stays sorted; its membership vector is the parent-list
        prefix plus the sibling bit (it never descends further and never
        participates in transformations).  A dummy is never placed in a key
        interval containing ``u`` or ``v``: the sibling sublist is where the
        communicating pair lives, and a dummy keyed between them would deny them
        the direct link the model requires.

        The run detection walks the *actual* parent list — real members with
        their freshly assigned bits plus any dummy node already living in that
        list (whose bit, or absence of one, also affects the runs).
        """
        graph = self.graph
        a = self.a
        u = self.u
        v = self.v
        zero_set = set(zero_list)
        one_set = set(one_list)
        dummies: List[Key] = []
        # The placements are collected and landed in one batch at the end of the
        # pass: ``ordered`` is a snapshot, a dummy never changes another node's
        # membership, and the key draws consult ``dummies`` for keys this pass
        # already claimed — so the batch is byte-identical (ops, RNG stream,
        # dirty marks) to inserting at each detection point.
        pending: List[Tuple[Key, Tuple[int, ...]]] = []
        parent_prefix = graph.membership(members[0]).prefix(level - 1)
        ordered = graph.list_members(level - 1, parent_prefix) if level >= 1 else sorted(members)
        run_bit: Optional[int] = None
        run_length = 0
        for index, key in enumerate(ordered):
            if key in zero_set:
                bit: Optional[int] = 0
            elif key in one_set:
                bit = 1
            else:
                membership = graph.membership(key)
                bit = membership.bit(level) if len(membership) >= level else None
            if bit is None:
                run_bit = None
                run_length = 0
                continue
            if bit == run_bit:
                run_length += 1
            else:
                run_bit = bit
                run_length = 1
            if run_length > a:
                previous_key = ordered[index - 1]
                sibling_bit = 1 - bit
                if sibling_bit == 0 and set(zero_list) == {u, v}:
                    # The dummy would join the size-two sublist that realises the
                    # pair's direct link; if its key could land between u and v
                    # it would deny them that link, so the chain is left alone
                    # here (documented deviation, see DESIGN.md).
                    low_uv, high_uv = (u, v) if u < v else (v, u)
                    if not (key <= low_uv or previous_key >= high_uv):
                        continue
                dummy_key = _pick_dummy_key(graph, previous_key, key, self.rng, taken=dummies)
                if dummy_key is None:
                    continue
                prefix = graph.membership(previous_key).prefix(level - 1)
                pending.append((dummy_key, prefix.bits + (1 - bit,)))
                dummies.append(dummy_key)
                run_length = 1
        self.recorder.insert_dummy_run(pending)
        return dummies


def _group_rank(state: DSGNodeState, level: int) -> int:
    """Secondary sort component: the node's group-id at ``level``.

    Group-ids are positive integers uncorrelated with key order, so using
    them as a tie-break keeps members of the same (finer) group adjacent in
    the priority order without biasing which side of the median they land on.
    """
    group = state.group_ids.get(level, state.uid)
    if isinstance(group, bool) or not isinstance(group, int):
        return 0
    return group


def _split_by_order(
    members: List[Key],
    order: Mapping[Key, Tuple[float, int, Key]],
    median_pair: Tuple[float, int, Key],
    u: Key,
    v: Key,
) -> Tuple[List[Key], List[Key]]:
    """Direct comparison split with a progress guarantee.

    The paper's rule sends ``P(x) >= M`` to the 0-subgraph and the rest to
    the 1-subgraph; with the (priority, key) order the comparison is strict
    enough that both sides are non-empty except when the approximate median
    happens to be the minimum, in which case the member holding it is
    demoted (progress guarantee).
    """
    zero = [key for key in members if order[key] >= median_pair]
    one = [key for key in members if order[key] < median_pair]
    if not one:
        demote = [key for key in members if order[key] == median_pair and key not in (u, v)]
        if demote:
            demote_set = set(demote)
            zero = [key for key in members if key not in demote_set]
            one = demote
        else:
            # Everyone is a communicating node or strictly above the median;
            # the caller handles the {u, v} pair case before reaching here.
            keep = [key for key in members if key in (u, v)]
            rest = [key for key in members if key not in (u, v)]
            half = len(rest) // 2
            zero = keep + rest[:half]
            one = rest[half:]
    elif not zero:
        # Degenerate case for P4-only lists (no communicating member).
        promote = [key for key in members if order[key] == median_pair]
        promote_set = set(promote)
        zero = promote
        one = [key for key in members if key not in promote_set]
        if not one:
            half = max(1, len(members) // 2)
            zero, one = members[:half], members[half:]
    return sorted(zero), sorted(one)


def _fallback_split(members: List[Key], gs: Set[Key]) -> Tuple[List[Key], List[Key]]:
    """Split a dominating group with no usable dominating flags (see ``_assign``)."""
    gs_members = [key for key in members if key in gs]
    others = [key for key in members if key not in gs]
    half = max(1, len(gs_members) // 2)
    zero = others + gs_members[:half]
    one = gs_members[half:]
    if not one:
        last = gs_members[-1]
        one = [last]
        zero = [key for key in members if key != last]
    return zero, one


def _count_rounds(amf_result: Optional[AMFResult], members: Sequence[Key]) -> int:
    """Rounds to compute |g_s|, |L_low|, |L_high| with the AMF skip list."""
    if amf_result is not None and amf_result.skiplist is not None:
        ones = {key: 1.0 for key in amf_result.skiplist.levels[0]}
        return distributed_sum(amf_result.skiplist, ones).rounds
    return max(1, math.ceil(math.log2(max(2, len(members)))))


def _pick_dummy_key(
    graph: SkipGraph,
    lower: Key,
    upper: Key,
    rng: random.Random,
    taken: Sequence[Key] = (),
) -> Optional[Key]:
    """A fresh key strictly between ``lower`` and ``upper`` (float interpolation).

    The one dummy-key draw, shared with the churn-path repair
    (:meth:`repro.core.dsg.DynamicSkipGraph.restore_a_balance`).  ``taken``
    holds keys claimed by not-yet-landed placements of the same batch;
    rejecting them reproduces the ``has_node`` answer an immediate insertion
    would have given.
    """
    try:
        low = float(lower)
        high = float(upper)
    except (TypeError, ValueError):
        return None
    if not low < high:
        return None
    for _ in range(16):
        fraction = 0.25 + 0.5 * rng.random()
        candidate = low + (high - low) * fraction
        if (
            candidate != low
            and candidate != high
            and candidate not in taken
            and not graph.has_node(candidate)
        ):
            return candidate
    return None
