"""Reference AMF gather and distributed sum (test oracles).

The dict-keyed forms of :func:`repro.core.amf.approximate_median` and
:func:`repro.skiplist.distributed_sum.distributed_sum`, moved here verbatim
when the shipping versions switched to gathering slices of per-level lists
over the skip list's recorded segment bounds.  Every node's entries live in
a dictionary keyed by the node and each level is walked through
``BalancedSkipList.segments``: the information flow of Section V and
Appendix D spelled out node by node.  ``tests/core/test_amf_reference.py``
holds the shipping versions to these on medians, rounds, skip lists, RNG
draws, totals and partial sums.

One deliberate difference is kept as found: the reference's ``n <= a``
path computes the rank interval even when ``diagnostics=False``; the
shipping version leaves it at 0 there, as its docstring promises.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.amf import AMFResult, _pick_median, _sample, exact_median, rank_interval
from repro.simulation.rng import make_rng
from repro.skiplist.balanced import BalancedSkipList
from repro.skiplist.distributed_sum import SumResult

__all__ = ["approximate_median_reference", "distributed_sum_reference"]


def approximate_median_reference(
    values: Mapping[Any, float] | Sequence[Tuple[Any, float]],
    a: int = 4,
    rng: Optional[random.Random] = None,
    diagnostics: bool = True,
) -> AMFResult:
    """Run AMF over ``values`` (mapping ``list member -> value``).

    The iteration order of ``values`` is taken as the linked-list order (for
    DSG this is key order within the linked list).  ``diagnostics=False``
    skips the exact rank interval of the result (two O(n) scans used only by
    the Lemma 1 experiments); ``rank_low``/``rank_high`` are then 0.  The
    median, round count and skip list are unaffected.
    """
    if isinstance(values, Mapping):
        items: List[Any] = list(values.keys())
        value_of: Mapping[Any, float] = values if isinstance(values, dict) else dict(values)
    else:
        items = [item for item, _ in values]
        value_of = {item: value for item, value in values}
    if not items:
        raise ValueError("AMF needs at least one value")
    if a < 2:
        raise ValueError("the balance parameter a must be at least 2")

    n = len(items)

    # Small lists: the paper's construction assumes n > a; below that the
    # nodes simply gather all values along the list and take the median.
    if n <= a:
        all_values = [value_of[item] for item in items]
        median = exact_median(all_values)
        low, high = rank_interval(all_values, median)
        return AMFResult(
            median=median, rounds=n, n=n, skiplist=None, exact=True, rank_low=low, rank_high=high
        )

    rng = rng or make_rng()
    skiplist = BalancedSkipList(items, a=a, rng=rng)
    rounds = skiplist.construction_rounds

    h = skiplist.height - 1  # paper's h: the top (singleton) level index
    sample_size = max(2, a * max(h, 1))
    base = max(a / 2, 1.5)
    sampling_start = math.ceil(math.log(max(h, 2), base)) + 1

    # entries held by each node, starting with its own value at the base.
    held: Dict[Any, List[Tuple[float, int]]] = {item: [(value_of[item], 0)] for item in items}

    for level in range(skiplist.height - 1):
        segments = skiplist.segments(level)
        next_held: Dict[Any, List[Tuple[float, int]]] = {}
        level_rounds = 0
        for owner, members in segments:
            gathered: List[Tuple[float, int]] = []
            forwarded_values = 0
            for member in members:
                entries = held.get(member, [])
                gathered.extend(entries)
                if member != owner:
                    forwarded_values += len(entries)
            # Pipelined forwarding along the segment: one hop per round plus
            # one round per value crossing the busiest (first) link.
            level_rounds = max(level_rounds, (len(members) - 1) + forwarded_values)
            if level + 1 >= sampling_start:
                gathered = _sample(gathered, sample_size)
            next_held[owner] = gathered
        rounds += level_rounds
        held = next_held

    root_entries = held[skiplist.root]
    median, rank_estimate = _pick_median(root_entries)
    rounds += skiplist.broadcast_rounds()

    if diagnostics:
        low, high = rank_interval([value_of[item] for item in items], median)
    else:
        low = high = 0
    return AMFResult(
        median=median,
        rounds=rounds,
        n=n,
        skiplist=skiplist,
        exact=False,
        rank_low=low,
        rank_high=high,
    )


def distributed_sum_reference(skiplist: BalancedSkipList, values: Mapping[Any, float],
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
    missing = [item for item in base if item not in values]
    if missing:
        raise ValueError(f"missing values for items: {missing[:5]!r}")

    # Per-level aggregation: each promoted node sums its segment.
    current: Dict[Any, float] = {item: float(values[item]) for item in base}
    rounds = 0
    last_partials: Dict[Any, float] = dict(current)
    for level in range(skiplist.height - 1):
        last_partials = dict(current)
        segments = skiplist.segments(level)
        next_values: Dict[Any, float] = {}
        longest = 0
        for owner, members in segments:
            next_values[owner] = sum(current[item] for item in members)
            longest = max(longest, len(members))
        # Values travel along the segment one hop per round (pipelined sums):
        # the longest segment dominates the level's round count.
        rounds += longest
        current = next_values

    total = current[skiplist.root]
    if include_broadcast:
        rounds += skiplist.broadcast_rounds()
    return SumResult(total=total, rounds=rounds, partials=last_partials)
