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

A request's transient records grow with the lists it splits, not with
members times levels: the plan keeps each sublist a split promotes as one
run record, and each split records its median once, under an integer
code of the split list's prefix (:class:`ReceivedMedians`, the view rule
T2 reads).

One request's invariants (graph, priorities, the pair and ``u``'s
identifier, ``t``, ``a``, the RNG, the outcome and the recorder) are bound
once on a :class:`_Transformation`; its :meth:`~_Transformation.split`
recursion carries only what changes from one split to the next — the
list's members, its level, the members' states and whether the pair is in
it.  A split is one pass over its members' state, then passes over plain
per-member lists (the order triples, the parent-level group-ids and the
``to_one`` flags); nothing downstream of that pass looks a member up again.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress
from operator import not_
from typing import Dict, Hashable, Iterator, List, MutableMapping, Optional, Sequence, Set, Tuple

from repro.core.amf import AMFResult, approximate_median, exact_median
from repro.core.groups import assign_group_ids_after_split, find_straddled_group
from repro.core.local_ops import OpRecorder
from repro.core.priorities import _require_positive_identifier
from repro.core.state import DSGNodeState
from repro.skipgraph.skipgraph import SkipGraph
from repro.skiplist.distributed_sum import distributed_sum

__all__ = ["ReceivedMedians", "TransformationOutcome", "transform"]

Key = Hashable

#: Rounds charged for the local a-balance chain detection at each split.
CHAIN_CHECK_ROUNDS = 2
#: Rounds charged for placing one dummy node (identifier pick + linking).
DUMMY_PLACEMENT_ROUNDS = 2


class ReceivedMedians(Mapping):
    """``medians[x][d]``: the median member ``x`` received while its level-``d`` list split.

    A read-only ``Mapping[key, Mapping[level, median]]`` over the
    transformation's members.  A split records its median once, under its
    list's code — a leading 1, then the bits its members carry below
    ``alpha`` (they all share the first ``alpha``) — rather than once per
    member and level.  A member's entry is read through its vector in the
    graph as the transformation left it: for each level ``d`` from
    ``alpha`` up, the median recorded under the code of its bits from
    ``alpha`` to ``d - 1``, grown one bit per level, if any (the pair step
    records none).
    Read it before the graph next changes.
    """

    __slots__ = ("_graph", "_members", "_alpha", "by_code")

    def __init__(self, graph: SkipGraph, members: List[Key], alpha: int) -> None:
        self._graph = graph
        self._members = members  # sorted
        self._alpha = alpha
        #: Split list code -> the median its split used.
        self.by_code: Dict[int, float] = {}

    def __getitem__(self, key: Key) -> Dict[int, float]:
        members = self._members
        index = bisect_left(members, key)
        if index == len(members) or members[index] != key:
            raise KeyError(key)
        bits = self._graph.membership(key).bits
        by_code = self.by_code
        medians: Dict[int, float] = {}
        code = 1
        for level in range(self._alpha, len(bits)):
            median = by_code.get(code)
            if median is not None:
                medians[level] = median
            code = 2 * code + bits[level]
        return medians

    def __iter__(self) -> Iterator[Key]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)


@dataclass
class TransformationOutcome:
    """Aggregate result of one transformation.

    The emitted local-operation plan is not carried here: it is the
    ``ops`` plan of the :class:`~repro.core.local_ops.OpRecorder` the
    caller passed into :func:`transform`.
    """

    rounds: int                      # critical-path rounds (parallel branches)
    total_work_rounds: int           # sum of the rounds of every split
    amf_calls: int
    received_medians: ReceivedMedians
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
        received_medians=ReceivedMedians(graph, members, alpha),
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
        graph=graph, priorities=priorities, u=u, v=v, uid_u=states[u].uid, t=t, a=a, rng=rng,
        use_exact_median=use_exact_median, maintain_a_balance=maintain_a_balance,
        outcome=outcome, recorder=recorder,
    )
    if len(members) > 1:
        member_states = [states[key] for key in members]
        outcome.rounds = transformation.split(
            members, alpha + 1, member_states, u in members and v in members, 1
        )
    return outcome


# --------------------------------------------------------------------------- recursion
@dataclass(slots=True)
class _Transformation:
    """One request's transformation: its invariants, bound once."""

    graph: SkipGraph
    priorities: MutableMapping[Key, float]
    u: Key
    v: Key
    uid_u: int
    t: int
    a: int
    rng: random.Random
    use_exact_median: bool
    maintain_a_balance: bool
    outcome: TransformationOutcome
    recorder: OpRecorder

    def split(
        self,
        members: List[Key],
        level: int,
        member_states: List[DSGNodeState],
        contains_pair: bool,
        code: int,
    ) -> int:
        """Split ``members`` (a linked list at ``level - 1``, in key order) and recurse.

        ``member_states`` is aligned with ``members``; ``contains_pair`` says
        whether both ``u`` and ``v`` are in the list; ``code`` names the list
        (:class:`ReceivedMedians`).  Every member's state is
        read once, into lists aligned with ``members`` — rule P4 runs in the
        same pass — and the assignment is one ``to_one`` flag per member that
        the group-id reassignment, the chain check and the split-level marks
        consume.  Returns the critical-path rounds of this branch.
        """
        size = len(members)
        u = self.u
        v = self.v
        priorities = self.priorities
        outcome = self.outcome
        parent = level - 1

        # Priorities are totally ordered as (priority, finer group-id, key)
        # triples: ties in raw priority (common when rule T2 stamped a whole
        # group with the same value) are broken first by the node's group-id
        # at the level being assigned — so members of the same finer group
        # stay contiguous in the order and are only separated when the median
        # falls inside their block — and finally by key so the order is
        # total.  This keeps the skip graph height bounded (Lemma 5) while
        # preserving the group cohesion the working set property relies on
        # (docs/DEVIATIONS.md, row 1).  A list a split produced without the pair
        # first recomputes its priorities with rule P4 (see
        # recompute_priority_p4) from the group-ids that split just wrote.
        recompute = not contains_pair and parent > outcome.alpha
        t = self.t
        parent_groups: List[Key] = []
        order: List[Tuple[float, int, Key]] = []
        for key, state in zip(members, member_states):
            group_ids = state.group_ids
            uid = state.uid
            group = group_ids.get(parent, uid)
            parent_groups.append(group)
            if recompute:
                if type(group) is not int or group <= 0:
                    _require_positive_identifier(group)
                priority = float(-(group * t) + state.timestamps.get(level, 0))
                priorities[key] = priority
            else:
                priority = priorities[key]
            group = group_ids.get(level, uid)
            if type(group) is not int:  # bool / non-int ids rank as 0
                group = group if isinstance(group, int) and not isinstance(group, bool) else 0
            order.append((priority, group, key))

        # ------------------------------------------------------------ median
        if contains_pair and size == 2:
            amf_result: Optional[AMFResult] = None
            step_rounds = 1
            to_one = [key == v for key in members]
            outcome.d_prime = parent
        else:
            if self.use_exact_median:
                median_pair = exact_median(order)
                amf_result = None
                step_rounds = 2 * max(1, math.ceil(math.log2(size)))
            else:
                # Rank diagnostics (Lemma 1 instrumentation) are skipped on the
                # serving path: two O(n) scans per split that nothing reads.
                amf_result = approximate_median(
                    dict(zip(members, order)), a=self.a, rng=self.rng, diagnostics=False
                )
                median_pair = amf_result.median
                step_rounds = amf_result.rounds
                outcome.amf_calls += 1
            outcome.received_medians.by_code[code] = median_pair[0]

            to_one, extra_rounds = self._assign(
                members, member_states, order, parent_groups, median_pair, level, amf_result
            )
            step_rounds += extra_rounds

        # ------------------------------------------------------------ apply bits
        # Each sublist is one commuting run (distinct keys, same level, same
        # bit), in key order because ``members`` is: the recorder splices
        # the new level list in one pass and records it as one run.
        to_zero = list(map(not_, to_one))
        zero_list = list(compress(members, to_zero))
        one_list = list(compress(members, to_one))
        recorder = self.recorder
        recorder.promote_run(zero_list, level, 0)
        recorder.promote_run(one_list, level, 1)

        # Finding the new left/right neighbours costs at most ``a`` rounds thanks
        # to the a-balance property (Section IV-C).
        step_rounds += self.a

        # The side holding both u and v (None when the split separates them
        # or they are not in this list).
        pair_side: Optional[bool] = None
        if contains_pair:
            side_u = bool(to_one[members.index(u)])
            if side_u == bool(to_one[members.index(v)]):
                pair_side = side_u
        uid_u = self.uid_u

        # ------------------------------------------------------------ group ids
        split_group_ids = assign_group_ids_after_split(
            member_states, parent_groups, to_one, level, pair_side=pair_side, pair_uid=uid_u
        )
        if split_group_ids:
            # New group-id broadcast over the balanced skip list (Section IV-D).
            step_rounds += (
                amf_result.skiplist.broadcast_rounds()
                if amf_result is not None and amf_result.skiplist is not None
                else max(1, math.ceil(math.log2(size)))
            )
            marked = set(split_group_ids)
            if contains_pair:
                marked.add(uid_u)
            split_levels = outcome.split_levels
            for key, group in zip(members, parent_groups):
                if group in marked:
                    split_levels.setdefault(key, []).append(parent)

        # ------------------------------------------------------------ dummies
        zero_is_pair = pair_side is False and len(zero_list) == 2
        if self.maintain_a_balance:
            dummies = self._break_chains(members, to_one, level, zero_is_pair)
            if dummies:
                step_rounds += CHAIN_CHECK_ROUNDS + DUMMY_PLACEMENT_ROUNDS
            else:
                step_rounds += CHAIN_CHECK_ROUNDS
            outcome.dummies_added.extend(dummies)

        if zero_is_pair:
            outcome.d_prime = level
        if level > outcome.deepest_level:
            outcome.deepest_level = level
        outcome.total_work_rounds += step_rounds

        # ------------------------------------------------------------ recurse
        child_rounds = 0
        for child, side, selected in ((zero_list, False, to_zero), (one_list, True, to_one)):
            if len(child) > 1:
                rounds = self.split(
                    child, level + 1, list(compress(member_states, selected)), side == pair_side,
                    2 * code + side,
                )
                if rounds > child_rounds:
                    child_rounds = rounds
        return step_rounds + child_rounds

    # ----------------------------------------------------------------------- assignment
    def _assign(
        self,
        members: List[Key],
        member_states: List[DSGNodeState],
        order: List[Tuple[float, int, Key]],
        parent_groups: List[Key],
        median_pair: Tuple[float, int, Key],
        level: int,
        amf_result: Optional[AMFResult],
    ) -> Tuple[List[bool], int]:
        """Decide which members move to the 1-subgraph (the rest move to the 0-subgraph).

        ``order[i]`` is ``members[i]``'s ``(priority, group, key)`` triple,
        ``parent_groups[i]`` its group-id at the parent level, and
        ``median_pair`` the approximate median of the triples; the numeric
        median (used by the Case 2 band test) is ``median_pair[0]``.

        Returns ``(to_one, extra_rounds)`` with one flag per member.
        """
        u = self.u
        v = self.v
        median = median_pair[0]
        if median >= 0:
            to_one = _split_by_order(members, order, median_pair, u, v)
            # Case 1 records the is-dominating-group flags for this level.
            for state, moved in zip(member_states, to_one):
                state.dominating[level] = not moved
            return to_one, 0

        straddled = find_straddled_group(members, parent_groups, median, self.t, exclude=(u, v))
        if straddled is None:
            return _split_by_order(members, order, median_pair, u, v), 0

        # Case 2 proper: the distributed counts |g_s|, |L_low|, |L_high| cost one
        # aggregation over the balanced skip list built by AMF (Appendix D).
        extra_rounds = _count_rounds(amf_result, members)
        gs = set(straddled)
        size_gs = len(gs)
        size_list = len(members)

        if size_gs * 3 > 2 * size_list:  # |g_s| > 2/3 |l_d|
            to_one = [
                key in gs and state.dominating.get(level, False)
                for key, state in zip(members, member_states)
            ]
            if True not in to_one:
                # No member of g_s carries a dominating flag (the group was never
                # formed by a positive median).  Fall back to halving the group
                # so the height bound of Lemma 5 still holds.
                to_one = _fallback_split(members, gs)
            return to_one, extra_rounds

        if size_gs * 3 < size_list:  # |g_s| < 1/3 |l_d|
            # Outside g_s the direct comparison decides; g_s moves wholesale
            # to the side the comparison (over the whole list) leaves lighter,
            # ties to the 1-subgraph.
            below = [value < median_pair for value in order]
            low_count = below.count(True)
            gs_to_one = size_list - low_count >= low_count
            return [gs_to_one if key in gs else low for key, low in zip(members, below)], extra_rounds

        # 1/3 |l_d| <= |g_s| <= 2/3 |l_d|: g_s moves wholesale to the 1-subgraph.
        return [key in gs for key in members], extra_rounds

    # ----------------------------------------------------------------------- dummies
    def _break_chains(
        self,
        members: List[Key],
        to_one: List[bool],
        level: int,
        zero_is_pair: bool,
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
        ``zero_is_pair`` says the 0-sublist is exactly ``{u, v}``.
        """
        graph = self.graph
        a = self.a
        parent_bits = graph.membership(members[0]).bits[: level - 1]
        ordered = graph.list_at(level - 1, parent_bits)
        if len(ordered) <= a:
            return []  # no run longer than ``a`` fits: no check, no draw
        if len(ordered) == len(members):
            # No other node lives in the parent list, so its runs are the
            # runs of ``to_one``: without one longer than ``a``, nothing to do.
            flags = bytes(to_one)
            if bytes(a + 1) not in flags and b"\x01" * (a + 1) not in flags:
                return []
        side = dict(zip(members, to_one))
        dummies: List[Key] = []
        # The placements are collected and landed in one batch at the end of the
        # pass: ``ordered`` is a snapshot, a dummy never changes another node's
        # membership, and the key draws consult ``dummies`` for keys this pass
        # already claimed — so the batch is byte-identical (ops, RNG stream,
        # dirty marks) to inserting at each detection point.
        pending: List[Tuple[Key, Tuple[int, ...]]] = []
        run_bit: Optional[int] = None
        run_length = 0
        for index, key in enumerate(ordered):
            bit = side.get(key)
            if bit is None:  # a node that is not being split here (a dummy)
                bits = graph.membership(key).bits
                bit = bits[level - 1] if len(bits) >= level else None
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
                if bit and zero_is_pair:
                    # The dummy would join the size-two sublist that realises the
                    # pair's direct link; if its key could land between u and v
                    # it would deny them that link, so the chain is left alone
                    # here (docs/DEVIATIONS.md, row 4).
                    u, v = self.u, self.v
                    low_uv, high_uv = (u, v) if u < v else (v, u)
                    if not (key <= low_uv or previous_key >= high_uv):
                        continue
                dummy_key = _pick_dummy_key(graph, previous_key, key, self.rng, taken=dummies)
                if dummy_key is None:
                    continue
                pending.append((dummy_key, parent_bits + (1 - bit,)))
                dummies.append(dummy_key)
                run_length = 1
        self.recorder.insert_dummy_run(pending)
        return dummies


def _split_by_order(
    members: List[Key],
    order: List[Tuple[float, int, Key]],
    median_pair: Tuple[float, int, Key],
    u: Key,
    v: Key,
) -> List[bool]:
    """Direct comparison split with a progress guarantee; one ``to_one`` flag per member.

    The paper's rule sends ``P(x) >= M`` to the 0-subgraph and the rest to
    the 1-subgraph; with the (priority, key) order the comparison is strict
    enough that both sides are non-empty except when the approximate median
    happens to be the minimum, in which case the member holding it is
    demoted (progress guarantee, docs/DEVIATIONS.md row 2).
    """
    to_one = [value < median_pair for value in order]
    if True not in to_one:
        demote = [value == median_pair and key != u and key != v for key, value in zip(members, order)]
        if True in demote:
            return demote
        # Everyone is a communicating node or strictly above the median; the
        # caller handles the {u, v} pair case before reaching here.  The
        # upper half of the other members moves to the 1-subgraph.
        rest = len(members) - (u in members) - (v in members)
        cut = rest // 2
        to_one = []
        for key in members:
            if key == u or key == v:
                to_one.append(False)
            else:
                to_one.append(cut <= 0)
                cut -= 1
        return to_one
    if False not in to_one:
        # Degenerate case for P4-only lists (no communicating member).
        to_one = [value != median_pair for value in order]
        if True not in to_one:
            half = max(1, len(members) // 2)
            to_one = [index >= half for index in range(len(members))]
    return to_one


def _fallback_split(members: List[Key], gs: Set[Key]) -> List[bool]:
    """Split a dominating group with no usable dominating flags (docs/DEVIATIONS.md row 3).

    The upper half of ``g_s`` (at least its last member) moves to the
    1-subgraph; everyone else stays in the 0-subgraph.
    """
    cut = min(max(1, len(gs) // 2), len(gs) - 1)
    to_one = []
    for key in members:
        if key in gs:
            to_one.append(cut <= 0)
            cut -= 1
        else:
            to_one.append(False)
    return to_one


def _count_rounds(amf_result: Optional[AMFResult], members: Sequence[Key]) -> int:
    """Rounds to compute |g_s|, |L_low|, |L_high| with the AMF skip list."""
    if amf_result is not None and amf_result.skiplist is not None:
        skiplist = amf_result.skiplist
        return distributed_sum(skiplist, dict.fromkeys(skiplist.levels[0], 1.0)).rounds
    return max(1, (max(2, len(members)) - 1).bit_length())  # ceil(log2(|l_d|)), at least 1


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
