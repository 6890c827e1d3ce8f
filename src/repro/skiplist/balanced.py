"""The balanced probabilistic skip list used by AMF (paper, Section V).

Construction (Algorithm 2, step 1):

* the left-most node of the base list is promoted to the next level with
  probability 1, every other node with probability ``1/a``;
* after each level is formed, nodes locally repair it so that no two
  consecutive promoted nodes are *supported* by fewer than ``a/2`` or more
  than ``2a`` nodes ("two consecutive nodes are supported by ``k`` nodes if
  they have ``k - 1`` nodes in between at the immediate lower level");
* construction stops when a level contains only the left-most node (the
  root).

The repair is implemented as a deterministic left-to-right sweep: a node
keeps its random promotion only if at least ``ceil(a/2)`` lower-level nodes
separate it from the previous promoted node, and a node is force-promoted as
soon as ``2a`` lower-level nodes have accumulated since the previous promoted
node.  The result satisfies the support bounds everywhere except possibly for
the final segment of a level (to the right of the last promoted node), which
the paper's construction tolerates as well (the right-most pair may be
under-supported when too few nodes remain).

Round accounting: each level costs one round for the promotion coin flips
plus ``max_gap`` rounds for the linear neighbour search at the new level
("nodes find their neighbors linearly from the level it stepped up"), plus a
constant number of rounds for the local repair messages.  These counts feed
the E6 benchmark (expected ``O(log n)`` rounds).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Optional, Sequence, Tuple

from repro.simulation.rng import make_rng

__all__ = ["BalancedSkipList", "SupportBounds"]


@dataclass(frozen=True)
class SupportBounds:
    """Lower/upper bounds on the support between consecutive promoted nodes."""

    minimum: int
    maximum: int

    @classmethod
    @lru_cache(maxsize=None)  # one immutable value per ``a``; AMF builds a list per split
    def for_parameter(cls, a: int) -> "SupportBounds":
        return cls(minimum=max(1, math.ceil(a / 2)), maximum=2 * a)


class BalancedSkipList:
    """Balanced skip list over an ordered sequence of items.

    Parameters
    ----------
    items:
        The base-level items in their list order (for AMF these are the keys
        of a skip graph linked list, in key order).
    a:
        The balance parameter of the paper (also the a-balance constant).
        Must be at least 2.
    rng:
        Random source for the promotion coin flips.
    """

    #: Extra rounds charged per level for the local support repair
    #: (a constant number of neighbour exchanges, see module docstring).
    REPAIR_ROUNDS_PER_LEVEL = 2

    def __init__(self, items: Sequence[Any], a: int = 4, rng: Optional[random.Random] = None) -> None:
        if a < 2:
            raise ValueError("the balance parameter a must be at least 2")
        if not items:
            raise ValueError("cannot build a skip list over an empty list")
        if len(set(items)) != len(items):
            raise ValueError("items must be unique")
        self.a = a
        self.bounds = SupportBounds.for_parameter(a)
        self._rng = rng or make_rng()
        self.levels: List[List[Any]] = [list(items)]
        # Per constructed level: the slice bounds of its segments and the
        # largest gap (reused by segment_bounds() and broadcast_rounds()
        # instead of re-deriving them per call).
        self._segment_bounds: List[List[Tuple[int, int]]] = []
        self._level_gaps: List[int] = []
        self.construction_rounds = 0
        self._construct()

    # ---------------------------------------------------------- construction
    def _construct(self) -> None:
        while len(self.levels[-1]) > 1:
            lower = self.levels[-1]
            upper, bounds, max_gap = self._promote(lower)
            self.construction_rounds += 1 + max_gap + self.REPAIR_ROUNDS_PER_LEVEL
            self.levels.append(upper)
            self._segment_bounds.append(bounds)
            self._level_gaps.append(max_gap)

    def _promote(self, lower: Sequence[Any]) -> Tuple[List[Any], List[Tuple[int, int]], int]:
        """One level of promotion with the deterministic support repair.

        Returns the promoted nodes, the ``(start, end)`` bounds of the
        segment each of them owns within ``lower`` and the largest gap
        between consecutive promoted nodes (tail included), tracked for free
        during the sweep.  One coin flip is drawn per candidate regardless
        of the outcome, keeping the RNG stream identical to the reference
        sweep.
        """
        promoted = [lower[0]]
        bounds = []
        start = 0  # position of the previous promoted node
        gap = 0  # lower-level nodes since the previous promoted node
        max_gap = 0
        rng_random = self._rng.random
        threshold = 1.0 / self.a
        bound_max = self.bounds.maximum
        bound_min = self.bounds.minimum
        for item in lower[1:]:
            gap += 1
            wants_promotion = rng_random() < threshold
            if gap >= bound_max or (wants_promotion and gap >= bound_min):
                promoted.append(item)
                bounds.append((start, start + gap))
                start += gap
                if gap > max_gap:
                    max_gap = gap
                gap = 0
        bounds.append((start, len(lower)))
        if gap > max_gap:  # the unpromoted tail counts toward the gap bound
            max_gap = gap
        return promoted, bounds, max_gap

    # -------------------------------------------------------------- structure
    @property
    def height(self) -> int:
        """Number of levels (the paper's ``h`` is ``height - 1``)."""
        return len(self.levels)

    @property
    def root(self) -> Any:
        """The left-most item, sole member of the top level."""
        return self.levels[-1][0]

    @property
    def size(self) -> int:
        return len(self.levels[0])

    def level(self, index: int) -> List[Any]:
        return list(self.levels[index])

    def supports(self, level: int) -> List[int]:
        """Support counts between consecutive promoted nodes of ``level + 1``.

        ``supports(d)[i]`` is the number of level-``d`` nodes strictly after
        the ``i``-th promoted node and up to (and including) the next
        promoted node, i.e. the paper's "supported by k nodes" count.
        """
        if level + 1 >= self.height:
            return []
        lower = self.levels[level]
        upper = self.levels[level + 1]
        positions = {item: index for index, item in enumerate(lower)}
        counts = []
        upper_positions = [positions[item] for item in upper]
        for left, right in zip(upper_positions, upper_positions[1:]):
            counts.append(right - left)
        return counts

    def segment_bounds(self, level: int) -> List[Tuple[int, int]]:
        """:meth:`segments` as ``(start, end)`` slice bounds into ``levels[level]``.

        Segment ``i`` is owned by the ``i``-th node of ``levels[level + 1]``.
        The bounds are recorded at construction (the returned list is live:
        do not mutate it), so an aggregation over the skip list (AMF's
        gather, the distributed sum) can slice a list of per-node values
        aligned with the level instead of keying them by node.
        """
        if level + 1 >= len(self.levels):
            return [(0, len(self.levels[level]))]
        return self._segment_bounds[level]

    def segments(self, level: int) -> List[Tuple[Any, List[Any]]]:
        """Partition of level ``level`` by its nearest *left* promoted node.

        Returns ``(promoted_node, members)`` pairs where ``members`` are the
        level-``level`` nodes whose nearest promoted node to the left (at
        level ``level + 1``) is ``promoted_node`` — including the promoted
        node itself.  This is exactly the set of nodes whose values are
        gathered by that promoted node in AMF's forwarding step.
        """
        lower = self.levels[level]
        return [(lower[start], lower[start:end]) for start, end in self.segment_bounds(level)]

    def is_support_bounded(self, ignore_tail: bool = True) -> bool:
        """Check the ``a/2 <= support <= 2a`` invariant on every level.

        With ``ignore_tail=True`` the last segment of every level (right of
        the last promoted node) is exempt from the lower bound, matching the
        construction's unavoidable short tail.
        """
        for level in range(self.height - 1):
            counts = self.supports(level)
            for count in counts:
                if count > self.bounds.maximum:
                    return False
                if count < self.bounds.minimum:
                    return False
            if not ignore_tail:
                lower = self.levels[level]
                positions = {item: index for index, item in enumerate(lower)}
                tail = len(lower) - 1 - positions[self.levels[level + 1][-1]]
                if tail > self.bounds.maximum:
                    return False
        return True

    # ------------------------------------------------------------ primitives
    def broadcast_rounds(self) -> int:
        """Rounds for the root to broadcast one word to every base node.

        The value travels down one level per round and then along each
        segment; the longest chain dominates.
        """
        per_level_gap = self._level_gaps
        return (len(self.levels) - 1) + (max(per_level_gap) if per_level_gap else 0)

    def convergecast_rounds(self) -> int:
        """Rounds for all base values to reach the root (one word per value)."""
        total = 0
        for level in range(self.height - 1):
            segment_sizes = [len(members) for _, members in self.segments(level)]
            total += max(segment_sizes) if segment_sizes else 0
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BalancedSkipList(size={self.size}, height={self.height}, a={self.a})"
