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
  level over the keys that still carry a bit at that level (the executable
  specification, also used by :func:`check_a_balance` and the E10 audit);
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
violations could not be repaired are re-marked *whole*, and a tracker
starts with everything dirty (the first consumption is one full rescan), so
the incremental path reports the same violations in the same canonical
order (level, then list by first member key, then runs left to right) as
the full rescan — which is what keeps dummy placement, and therefore the
RNG stream and the final topology, byte-identical between the two paths
(property-tested, and asserted at scale by ``benchmarks/bench_e15_100k.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
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


def _close_run(found: dict, level: int, prefix: Prefix, state: list, a: int) -> None:
    """Record ``state``'s run into the per-prefix ``found`` map."""
    _record_run(found.setdefault(prefix, []), level, prefix, state[0], state[1], a)


def a_balance_violations(graph: SkipGraph, a: int) -> List[BalanceViolation]:
    """Return every a-balance violation in ``graph`` (full rescan).

    A violation is reported once per maximal offending run, in list order
    (lists by first appearance of their prefix in key order, runs left to
    right), level by level.  The per-level pass only walks the keys whose
    membership vectors still reach the level — the survivor list shrinks as
    the levels climb, so the whole scan costs O(total membership bits)
    rather than O(n * height) — and the run-closing helper is hoisted to
    module level instead of being rebound per level.
    """
    if a < 1:
        raise ValueError("a must be a positive integer")
    violations: List[BalanceViolation] = []
    survivors = [(node.key, node.membership.bits) for node in graph]
    max_level = graph.max_list_level()
    for level in range(max_level + 1):
        if level:
            survivors = [entry for entry in survivors if len(entry[1]) >= level]
        # prefix -> [run_bit, run_keys]; the run resets on bit changes.
        runs: dict = {}
        order: List[Prefix] = []
        found: dict = {}
        for key, bits in survivors:
            prefix = bits[:level]
            bit = bits[level] if len(bits) > level else None
            state = runs.get(prefix)
            if state is None:
                runs[prefix] = [bit, [key]]
                order.append(prefix)
                continue
            if bit is not None and bit == state[0]:
                state[1].append(key)
            else:
                _close_run(found, level, prefix, state, a)
                state[0] = bit
                state[1] = [key]
        for prefix in order:
            _close_run(found, level, prefix, runs[prefix], a)
        for prefix in order:
            violations.extend(found.get(prefix, ()))
    return violations


def check_a_balance(graph: SkipGraph, a: int) -> bool:
    """``True`` iff ``graph`` satisfies the a-balance property for ``a``."""
    return not a_balance_violations(graph, a)


# ------------------------------------------------------------------ tracker
class BalanceTracker:
    """Per-list dirty marks driving incremental a-balance detection.

    The tracker holds, per dirtied ``(level, prefix)`` list, the set of
    *anchor keys* whose neighbourhood changed since the last consumption —
    or ``None`` when the whole list must be rescanned (initial state,
    unrepairable violations).  Anchors are key *values*: a departed node's
    key still bisects to its old position in the (key-ordered) list, so one
    mark scheme covers insertions, departures and bit rewrites alike.

    Feeding happens through the ``mark_*`` primitives, which the skip graph
    the tracker is attached to calls from inside its mutators (single-key
    and bulk alike) *before* each write — the marks for a departure need
    the pre-departure membership vector — so no caller can mutate the
    structure without the tracker hearing of it.  Marking costs O(1)
    dictionary work per affected level and never touches the level lists
    themselves, so the request hot path only pays for the lists it already
    rewrites.
    """

    __slots__ = ("_all_dirty", "_dirty")

    def __init__(self) -> None:
        #: Everything is dirty until the first consumption: the graph was
        #: built before the tracker was attached and may hold violations in
        #: lists no later write touches, so the first scan is a full rescan.
        self._all_dirty = True
        #: (level, prefix) -> anchor key set, or None for "whole list".
        self._dirty: Dict[DirtyList, Optional[Set]] = {}

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
        else:
            anchors.add(key)

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
            self._dirty[entry] = set(keys)
        else:
            anchors.update(keys)

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
        to repair a reported violation must re-mark its list).  The first
        call after construction performs one full rescan; every later call
        walks only dirty lists — and within an anchored list, only the runs
        around each marked position.
        """
        if a < 1:
            raise ValueError("a must be a positive integer")
        if self._all_dirty:
            self._all_dirty = False
            self._dirty.clear()
            return a_balance_violations(graph, a)
        dirty, self._dirty = self._dirty, {}
        entries = []
        for (level, prefix), anchors in dirty.items():
            members = graph.list_at(level, prefix)
            if len(members) <= a:
                continue  # a run longer than a cannot fit
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
    still bisect to their old spot), then inspect the maximal run at that
    position plus the runs immediately flanking it — the only runs a change
    at the position can have grown, merged or split (see the class
    docstring's invariant).  Each walk costs O(run length); anchors are
    processed in position order so anchors falling inside an already-walked
    run are skipped outright.
    """
    # Direct node-map access: this is the churn-path inner loop, and the
    # per-position bit probe must not pay a method call per step.
    nodes = graph._nodes
    size = len(members)

    def bit_at(index: int) -> Optional[int]:
        bits = nodes[members[index]].membership.bits
        return bits[level] if len(bits) > level else None

    def run_span(index: int) -> Tuple[int, int, Optional[int]]:
        bit = bit_at(index)
        if bit is None:
            return index, index, None
        start = index
        while start > 0 and bit_at(start - 1) == bit:
            start -= 1
        end = index
        while end + 1 < size and bit_at(end + 1) == bit:
            end += 1
        return start, end, bit

    found: Dict[int, BalanceViolation] = {}

    def record(start: int, end: int, bit: Optional[int]) -> int:
        if bit is not None and end - start + 1 > a and start not in found:
            found[start] = BalanceViolation(
                level=level, prefix=prefix, bit=bit, run_keys=tuple(members[start : end + 1])
            )
        return end

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
        if index > 0:
            record(*run_span(index - 1))
        if index < size:
            start, end, bit = run_span(index)
            record(start, end, bit)
            last_run_end = end
            if end == index and index + 1 < size:
                record(*run_span(index + 1))
    return [found[start] for start in sorted(found)]
