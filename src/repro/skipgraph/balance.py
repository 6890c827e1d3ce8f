"""The a-balance property (paper, Section III) and its incremental tracking.

    "A Skip Graph satisfies the a-balance property if there exists a positive
    integer a, such that among any a + 1 consecutive nodes in any linked list
    l in L_i, at most a nodes can be in a single linked list in L_{i+1}."

Equivalently: in no linked list do ``a + 1`` consecutive nodes all move to
the same sublist at the next level, i.e. the longest run of equal
"next-level bits" within any list is at most ``a``.  The property guarantees
search paths of length at most ``a * log n``.

Two detection paths are provided:

* :func:`a_balance_violations` — the full O(total bits) rescan, one pass per
  level over the keys that still carry a bit at that level, each list named
  by an integer prefix code (a leading 1, then the bits) grown one bit per
  level and grouped by one stable sort, so no prefix tuple is sliced per
  node (also used by :func:`check_a_balance` and the E10 audit; held to the
  tuple-prefix oracle in ``tests/reference/balance_reference.py``);
* :class:`BalanceTracker` — the incremental tracker on the churn path: a
  :class:`~repro.skipgraph.skipgraph.SkipGraph` it is attached to
  (``graph.tracker``) reports every structural change from its own seven
  mutators *before* applying it, the tracker converts it into per-list dirty
  marks — ``(level, prefix)`` plus the key positions whose neighbourhood
  changed — and :meth:`BalanceTracker.violations` rescans only the dirtied
  lists (walking just the runs around each marked position) instead of the
  whole graph on every cascade round of
  :meth:`~repro.core.dsg.DynamicSkipGraph.restore_a_balance`.

The tracker's correctness invariant: between two consumptions, a run longer
than ``a`` can only arise at a position whose membership changed (bit
rewrite, insertion) or next to one (a departure merging its two flanking
runs; an insertion splitting an over-long run into a still-over-long tail),
so every violating run either contains a marked position or is adjacent to
one — and the anchored walk inspects exactly those runs.  Lists whose
violations could not be repaired are re-marked *whole*, and a tracker is
all-dirty (its next consumption is one full rescan) when it starts over a
graph not known to be balanced or once its marks outgrow what a full
rescan reads, so the incremental path reports the same violations in the
same canonical order (level, then list by first member key, then runs
left to right) as the full rescan — which is what keeps dummy placement,
and therefore the RNG stream and the final topology, byte-identical
between the two paths (property-tested, and asserted at scale by
``benchmarks/bench_e15_100k.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.skipgraph.skipgraph import SkipGraph

__all__ = [
    "BalanceTracker",
    "BalanceViolation",
    "a_balance_violations",
    "check_a_balance",
    "longest_run",
]

Prefix = Tuple[int, ...]
DirtyList = Tuple[int, Prefix]


@dataclass(frozen=True)
class BalanceViolation:
    """A run of more than ``a`` consecutive nodes moving to the same sublist."""

    level: int
    prefix: tuple
    bit: int
    run_keys: tuple

    def __str__(self) -> str:
        return (
            f"level {self.level}: {len(self.run_keys)} consecutive nodes "
            f"{list(self.run_keys)} all move to the {self.bit}-sublist"
        )


def longest_run(bits: List[int]) -> int:
    """Length of the longest run of equal values in ``bits``."""
    best = 0
    current = 0
    previous = object()
    for bit in bits:
        if bit == previous:
            current += 1
        else:
            current = 1
            previous = bit
        best = max(best, current)
    return best


def _record_run(
    violations: List["BalanceViolation"],
    level: int,
    prefix: Prefix,
    run_bit: Optional[int],
    run_keys: List,
    a: int,
) -> None:
    """Append the run as a violation if it exceeds ``a`` (single source)."""
    if run_bit is not None and len(run_keys) > a:
        violations.append(
            BalanceViolation(level=level, prefix=prefix, bit=run_bit, run_keys=tuple(run_keys))
        )


def _run_violation(
    entries: List[list], level: int, first: int, start: int, end: int, bit: int
) -> Tuple[object, BalanceViolation]:
    """``entries[start:end]``'s run as a violation, under its list's first key."""
    _, first_key, first_bits = entries[first]
    run_keys = tuple([key for _, key, _ in entries[start:end]])
    return first_key, BalanceViolation(level, first_bits[:level], bit, run_keys)


def a_balance_violations(graph: SkipGraph, a: int) -> List[BalanceViolation]:
    """Return every a-balance violation in ``graph`` (full rescan).

    A violation is reported once per maximal offending run, in list order
    (lists by first member key, runs left to right), level by level.  Each
    level walks only the nodes whose membership vectors still reach it, so
    the whole scan costs O(total membership bits) rather than O(n * height).
    A node's list is named by an integer prefix code (a leading 1, then the
    bits), grown by one bit per level, so no prefix tuple is sliced per node
    and level: one stable sort by code per level puts each list's members
    together, still in key order.  A list's violations are recorded under
    its first key and the level's lists sorted by it; the prefix tuple is
    sliced once per violation.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    violations: List[BalanceViolation] = []
    first_item = itemgetter(0)
    # [prefix code, key, bits] per node in a list at ``level``, grouped by
    # list; each level grows the code in place, so one entry per node lives.
    entries = [[1, node.key, node.membership.bits] for node in graph]
    for level in range(graph.max_list_level() + 1):
        if level:
            entries = [entry for entry in entries if len(entry[2]) >= level]
            for entry in entries:
                entry[0] = 2 * entry[0] + entry[2][level - 1]
            entries.sort(key=first_item)
        found: List[Tuple[object, BalanceViolation]] = []  # (list's first key, violation)
        list_code = run_bit = None
        first = start = 0
        for index, (code, _, bits) in enumerate(entries):
            bit = bits[level] if len(bits) > level else None
            if code == list_code and bit is not None and bit == run_bit:
                continue
            if run_bit is not None and index - start > a:
                found.append(_run_violation(entries, level, first, start, index, run_bit))
            if code != list_code:
                list_code = code
                first = index
            run_bit = bit
            start = index
        if run_bit is not None and len(entries) - start > a:
            found.append(_run_violation(entries, level, first, start, len(entries), run_bit))
        found.sort(key=first_item)
        violations.extend(violation for _, violation in found)
    return violations


def check_a_balance(graph: SkipGraph, a: int) -> bool:
    """``True`` iff ``graph`` satisfies the a-balance property for ``a``."""
    return not a_balance_violations(graph, a)


# ------------------------------------------------------------------ tracker
class BalanceTracker:
    """Per-list dirty marks driving incremental a-balance detection.

    The tracker holds, per dirtied ``(level, prefix)`` list, the set of
    *anchor keys* whose neighbourhood changed since the last consumption —
    or ``None`` when the whole list must be rescanned (unrepairable
    violations).  Anchors are key *values*: a departed node's key still
    bisects to its old position in the (key-ordered) list, so one mark
    scheme covers insertions, departures and bit rewrites alike.

    Feeding happens through the ``mark_*`` primitives, which the skip graph
    the tracker is attached to calls from inside its mutators (single-key
    and bulk alike) *before* each write — the marks for a departure need
    the pre-departure membership vector — so no caller can mutate the
    structure without the tracker hearing of it.  Marking costs O(1)
    dictionary work per affected level and never touches the level lists
    themselves, so the request hot path only pays for the lists it already
    rewrites.

    A tracker given ``balanced`` (a graph known to hold no violation, as
    :func:`~repro.skipgraph.build.build_balanced_skip_graph` builds) starts
    clean; otherwise it starts *all-dirty* — the first consumption is one
    full rescan.  Past ``len(graph) * graph.height()`` anchors (what a full
    rescan reads, as of the last consumption) it drops its marks and goes
    all-dirty again, so memory stays bounded when nothing consumes them.
    """

    __slots__ = ("_all_dirty", "_dirty", "_held", "_budget")

    def __init__(self, balanced: Optional[SkipGraph] = None) -> None:
        self._all_dirty = balanced is None
        #: (level, prefix) -> anchor key set, or None for "whole list".
        self._dirty: Dict[DirtyList, Optional[Set]] = {}
        self._held = 0  # anchors added since the last consumption
        self._budget = 0 if balanced is None else len(balanced) * balanced.height()

    # ------------------------------------------------------------- marking
    def mark_list(self, level: int, prefix: Prefix) -> None:
        """Mark one whole list dirty (used when a repair could not land)."""
        if self._all_dirty:
            return
        self._dirty[(level, prefix)] = None

    def mark_anchor(self, level: int, prefix: Prefix, key) -> None:
        """Mark ``key``'s neighbourhood in the list at ``level``/``prefix``."""
        if self._all_dirty:
            return
        entry = (level, prefix)
        anchors = self._dirty.get(entry, False)
        if anchors is None:
            return  # whole list already dirty
        if anchors is False:
            self._dirty[entry] = {key}
        elif key in anchors:
            return
        else:
            anchors.add(key)
        self._held += 1
        if self._held > self._budget:
            self._all_dirty, self._dirty = True, {}

    def mark_run(self, level: int, prefix: Prefix, keys: Iterable) -> None:
        """Mark a whole run of keys in one list (bulk :meth:`mark_anchor`).

        Emitted by the skip graph's bulk kernel entry points — one call per
        (list, run) instead of one ``mark_anchor`` per key — and equivalent
        to calling :meth:`mark_anchor` for each key.
        """
        if self._all_dirty:
            return
        entry = (level, prefix)
        anchors = self._dirty.get(entry, False)
        if anchors is None:
            return  # whole list already dirty
        if anchors is False:
            anchors = self._dirty[entry] = set()
        held = len(anchors)
        anchors.update(keys)
        self._held += len(anchors) - held
        if self._held > self._budget:
            self._all_dirty, self._dirty = True, {}

    def mark_insert(self, key, bits: Prefix) -> None:
        """Marks for a node insertion (join or dummy) with vector ``bits``."""
        if self._all_dirty:
            return
        for level in range(len(bits) + 1):
            self.mark_anchor(level, bits[:level], key)

    def mark_remove(self, graph: SkipGraph, key) -> None:
        """Marks for a departure — call *before* the node is removed."""
        if self._all_dirty:
            return
        bits = graph.membership(key).bits
        for level in range(len(bits) + 1):
            self.mark_anchor(level, bits[:level], key)

    def mark_rewrite(self, key, old: Prefix, new: Prefix) -> None:
        """Marks for a membership rewrite ``old -> new`` of ``key``."""
        if self._all_dirty:
            return
        if len(new) == len(old) + 1 and new[: len(old)] == old:
            keep = len(old)  # the transformation's per-level append
        elif len(old) > len(new) and old[: len(new)] == new:
            keep = len(new)  # a truncation (demote)
        else:
            keep = 0
            for bit_old, bit_new in zip(old, new):
                if bit_old != bit_new:
                    break
                keep += 1
        # The list at the preserved depth sees the node's bit change; the
        # lists beyond it see the node leave (old) or arrive (new).
        self.mark_anchor(keep, old[:keep], key)
        for level in range(keep + 1, len(old) + 1):
            self.mark_anchor(level, old[:level], key)
        for level in range(keep + 1, len(new) + 1):
            self.mark_anchor(level, new[:level], key)

    # ------------------------------------------------------------ consuming
    def violations(self, graph: SkipGraph, a: int) -> List[BalanceViolation]:
        """Violations in the dirtied lists, in the full-rescan order.

        Consumes the marks: scanned lists become clean (a caller that fails
        to repair a reported violation must re-mark its list).  An all-dirty
        tracker performs one full rescan; otherwise only dirty lists longer
        than ``a`` are read — their sizes come from the graph's prefix-count
        index, so a short list is skipped before it is materialised — and
        within an anchored list, only the runs around each marked position.
        """
        if a < 1:
            raise ValueError("a must be a positive integer")
        self._held = 0
        self._budget = len(graph) * graph.height()
        if self._all_dirty:
            self._all_dirty = False
            self._dirty.clear()
            return a_balance_violations(graph, a)
        dirty, self._dirty = self._dirty, {}
        sizes = graph._prefix_counts  # list size per prefix; the base list is len(graph)
        entries = []
        for (level, prefix), anchors in dirty.items():
            if (sizes.get(prefix, 0) if level else len(graph)) <= a:
                continue  # a run longer than a cannot fit
            members = graph.list_at(level, prefix)
            entries.append((level, members[0], prefix, members, anchors))
        # Full-rescan order: level by level, lists by first member key (the
        # first appearance of the prefix in the key-ordered node walk).
        entries.sort(key=lambda entry: (entry[0], entry[1]))
        violations: List[BalanceViolation] = []
        # Densely anchored lists (a transformation rewrote most of the
        # list) are cheaper — and identically — covered by one linear
        # pass; the anchored walk is for big lists with few changes
        # (the base list after one join, say).
        dense_factor = a + 2
        for level, _, prefix, members, anchors in entries:
            if anchors is None or len(anchors) * dense_factor >= len(members):
                violations.extend(_scan_whole_list(graph, level, prefix, members, a))
            else:
                violations.extend(_scan_anchored(graph, level, prefix, members, anchors, a))
        return violations


def _scan_whole_list(
    graph: SkipGraph, level: int, prefix: Prefix, members: List, a: int
) -> List[BalanceViolation]:
    """Maximal runs longer than ``a`` in one list, left to right."""
    node = graph.node
    violations: List[BalanceViolation] = []
    run_bit: Optional[int] = None
    run_keys: List = []
    for key in members:
        bits = node(key).membership.bits
        bit = bits[level] if len(bits) > level else None
        if bit is not None and bit == run_bit:
            run_keys.append(key)
            continue
        _record_run(violations, level, prefix, run_bit, run_keys, a)
        run_bit = bit
        run_keys = [key]
    _record_run(violations, level, prefix, run_bit, run_keys, a)
    return violations


def _scan_anchored(
    graph: SkipGraph,
    level: int,
    prefix: Prefix,
    members: List,
    anchors: Iterable,
    a: int,
) -> List[BalanceViolation]:
    """Runs around each anchored position that exceed ``a``, left to right.

    For every anchor key: locate its position by bisection (departed keys
    still bisect to their old spot), read the bits at that position and its
    two neighbours once, and walk outward from the ends of that window only
    — recording the maximal runs covering the positions to its left and
    itself, and the run to its right when the run at the position ends
    there: the only runs a change at the position can have grown, merged or
    split (see the class docstring's invariant).  Each walk costs O(run
    length); anchors are processed in position order so anchors falling
    inside an already-walked run are skipped outright.
    """
    # Direct node-map access: this is the churn-path inner loop, and the
    # per-position bit probe must not pay a method call per step.
    nodes = graph._nodes
    size = len(members)
    found: Dict[int, Tuple[int, int]] = {}  # run start -> (run end, bit)
    # A change at position i can only have grown, merged or split the runs
    # covering positions i-1, i and i+1 (for a departed key, bisection
    # points at its old right neighbour, so the flanking runs that may have
    # merged over it sit at i-1 and i).  Positions strictly inside an
    # already-walked run need no new walks: their whole neighbourhood lies
    # within that run.
    last_run_end = -1
    for index in sorted({bisect_left(members, anchor) for anchor in anchors}):
        if index < last_run_end:
            continue
        # None: off the list, or a vector that stops below the next level.
        left = middle = right = None
        if index > 0:
            bits = nodes[members[index - 1]].membership.bits
            if len(bits) > level:
                left = bits[level]
        if index < size:
            bits = nodes[members[index]].membership.bits
            if len(bits) > level:
                middle = bits[level]
            if index + 1 < size:
                bits = nodes[members[index + 1]].membership.bits
                if len(bits) > level:
                    right = bits[level]
        start = index - 1
        if left is not None:  # walk left from index - 2
            while start > 0:
                bits = nodes[members[start - 1]].membership.bits
                if len(bits) <= level or bits[level] != left:
                    break
                start -= 1
        end = index + 1
        if right is not None:  # walk right from index + 2
            while end + 1 < size:
                bits = nodes[members[end + 1]].membership.bits
                if len(bits) <= level or bits[level] != right:
                    break
                end += 1
        joins_left = middle is not None and middle == left
        joins_right = middle is not None and middle == right
        if left is not None and not joins_left and index - start > a:
            found[start] = (index - 1, left)
        if index < size:
            run_start = start if joins_left else index
            last_run_end = end if joins_right else index
            if middle is not None and last_run_end - run_start >= a:
                found[run_start] = (last_run_end, middle)
            if right is not None and not joins_right and end - index > a:
                found[index + 1] = (end, right)
    if not found:
        return []
    return [
        BalanceViolation(level=level, prefix=prefix, bit=bit, run_keys=tuple(members[start : end + 1]))
        for start, (end, bit) in sorted(found.items())
    ]
