"""Distributed sum over a balanced skip list (paper, Appendix D).

    "Each node of the base level of the skip list forwards their number to
    the nearest neighbor that steps up to the upper level of the skip list.
    Any node receiving numbers from the neighbors from lower level computes
    the sum of the numbers and forwards the sum to the nearest neighbor
    stepping up to the upper level.  As this happens recursively at each
    level, the head node of the skip list computes the final sum in
    O(log n) rounds and then broadcasts the sum to all the nodes."

DSG uses this primitive to compute ``|g_s|``, ``|L_low|`` and ``|L_high|``
during Case 2 of the transformation (Section IV-C) and to propagate new
group-ids after a split (Section IV-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from repro.skiplist.balanced import BalancedSkipList

__all__ = ["SumResult", "distributed_sum"]


@dataclass(frozen=True)
class SumResult:
    """Outcome of one distributed aggregation."""

    total: float
    rounds: int
    #: Partial sums held by each promoted node of the top-but-one level,
    #: mainly useful for tests and debugging.
    partials: Dict[Any, float]


def distributed_sum(skiplist: BalancedSkipList, values: Mapping[Any, float],
                    include_broadcast: bool = True) -> SumResult:
    """Aggregate ``values`` (one per base-level item) up to the root.

    Parameters
    ----------
    skiplist:
        The balanced skip list whose base level carries the values.
    values:
        Mapping from base-level item to its number.  Every base item must be
        present.
    include_broadcast:
        If ``True`` (default) the rounds needed to broadcast the total back
        to all base nodes are included, as in the paper's description.
    """
    base = skiplist.levels[0]
    try:
        # Per-level aggregation over lists aligned with each level: every
        # promoted node sums one slice of the level below.
        current: List[float] = [float(values[item]) for item in base]
    except KeyError:
        missing = [item for item in base if item not in values]
        raise ValueError(f"missing values for items: {missing[:5]!r}") from None
    rounds = 0
    partials, partials_level = current, 0
    for level in range(skiplist.height - 1):
        partials, partials_level = current, level
        bounds = skiplist.segment_bounds(level)
        current = [sum(partials[start:end]) for start, end in bounds]
        # Values travel along the segment one hop per round (pipelined sums):
        # the longest segment dominates the level's round count.
        rounds += max(end - start for start, end in bounds)

    total = current[0]  # the root's sum
    if include_broadcast:
        rounds += skiplist.broadcast_rounds()
    return SumResult(total=total, rounds=rounds, partials=dict(zip(skiplist.levels[partials_level], partials)))
