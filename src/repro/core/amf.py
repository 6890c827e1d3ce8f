"""Approximate Median Finding for skip graphs (AMF; paper, Section V).

Given a linked list of nodes each holding a value (DSG uses the priorities
P(x)), AMF finds an approximate median in expected ``O(log n)`` rounds:

1. build a balanced probabilistic skip list over the list members
   (:class:`repro.skiplist.BalancedSkipList`);
2. gather values towards the promoted nodes level by level ("all nodes
   x in l_d, x not in l_{d+1} forward the values they have to the nearest
   left neighbor that stepped up to level d+1");
3. from level ``ceil(log_{a/2} h) + 1`` upward each node sorts the values it
   received, keeps a uniform sample of ``a*h`` of them and attaches rank
   information accounting for the discarded values;
4. the root (left-most node) picks the value whose accounted rank is closest
   to ``n/2`` and broadcasts it.

Lemma 1 of the paper guarantees the output's rank lies within
``n/2 ± n/(2a)``; experiment E5 checks this empirically and
:func:`rank_interval` provides the exact-rank diagnostics used there.

The implementation is *structural*: it simulates the information flow of the
distributed algorithm on one process while charging rounds for every
message-bearing step (skip list construction, per-level convergecast, final
broadcast), using the same accounting as :mod:`repro.skiplist`.  The
message-level version used to validate this accounting lives in
:mod:`repro.distributed.amf_protocol`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain, repeat
from operator import itemgetter
from typing import Any, Collection, List, Mapping, Optional, Sequence, Tuple

from repro.simulation.rng import make_rng
from repro.skiplist.balanced import BalancedSkipList

__all__ = ["AMFResult", "approximate_median", "exact_median", "rank_interval", "sampling_plan"]

# Values travelling up the skip list are ``(value, weight_below)`` pairs:
# the surviving value plus the count of discarded values known to be
# <= ``value`` (and above the previously kept value of the same local list).
# Plain tuples, not objects: one transformation allocates them by the
# hundred thousand.
_value_of_entry = itemgetter(0)
_weight_of_entry = itemgetter(1)


@dataclass
class AMFResult:
    """Outcome of one AMF execution.

    Attributes
    ----------
    median:
        The approximate median value selected by the root.
    rounds:
        Total rounds charged: skip list construction + per-level gathering +
        final broadcast of the median.
    n:
        Number of values aggregated.
    skiplist:
        The balanced skip list built during the run.  DSG reuses it for
        distributed counts and group-id broadcasts before destroying it.
    exact:
        ``True`` when the list was small enough (``n <= a``) that the median
        was computed exactly without building a skip list.
    rank_low, rank_high:
        1-based rank interval of ``median`` within the input multiset
        (ties make it an interval).  Provided for the Lemma 1 diagnostics.
    """

    median: float
    rounds: int
    n: int
    skiplist: Optional[BalancedSkipList] = None
    exact: bool = False
    rank_low: int = 0
    rank_high: int = 0

    @property
    def rank_error(self) -> float:
        """Distance of the rank interval from the true middle ``n/2``."""
        target = self.n / 2
        if self.rank_low <= target <= self.rank_high:
            return 0.0
        return min(abs(self.rank_low - target), abs(self.rank_high - target))

    def satisfies_lemma1(self, a: int) -> bool:
        """Whether the output rank lies within ``n/2 ± n/(2a)`` (Lemma 1)."""
        slack = self.n / (2 * a)
        low = self.n / 2 - slack
        high = self.n / 2 + slack
        return not (self.rank_high < low or self.rank_low > high)


def exact_median(values: Sequence[float]) -> float:
    """Lower median of ``values`` (used for diagnostics and tiny lists)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("cannot take the median of an empty sequence")
    return ordered[(len(ordered) - 1) // 2]


def rank_interval(values: Sequence[float], chosen: float) -> Tuple[int, int]:
    """1-based rank interval of ``chosen`` within ``values`` (ties widen it)."""
    below = sum(1 for v in values if v < chosen)
    not_above = sum(1 for v in values if v <= chosen)
    return below + 1, max(not_above, below + 1)


def approximate_median(
    values: Mapping[Any, float] | Sequence[Tuple[Any, float]],
    a: int = 4,
    rng: Optional[random.Random] = None,
    diagnostics: bool = True,
) -> AMFResult:
    """Run AMF over ``values`` (mapping ``list member -> value``).

    The iteration order of ``values`` is taken as the linked-list order (for
    DSG this is key order within the linked list).  ``diagnostics=False``
    skips the exact rank interval of the result (two O(n) scans used only by
    the Lemma 1 experiments) on both the exact and the skip-list path;
    ``rank_low``/``rank_high`` are then 0.  The median, round count and skip
    list are unaffected.
    """
    if type(values) is dict:  # the planner's form: skip the ABC probe
        items: Collection[Any] = values.keys()
        all_values: List[Any] = list(values.values())
    elif isinstance(values, Mapping):
        items = list(values.keys())
        all_values = [values[item] for item in items]
    else:
        # Later duplicates of an item override earlier ones, as in a dict.
        value_of = {item: value for item, value in values}
        items = [item for item, _ in values]
        all_values = [value_of[item] for item in items]
    n = len(all_values)
    if not n:
        raise ValueError("AMF needs at least one value")
    if a < 2:
        raise ValueError("the balance parameter a must be at least 2")

    # Small lists: the paper's construction assumes n > a; below that the
    # nodes simply gather all values along the list and take the median.
    if n <= a:
        median = exact_median(all_values)
        low, high = rank_interval(all_values, median) if diagnostics else (0, 0)
        return AMFResult(median, n, n, None, True, low, high)

    rng = rng or make_rng()
    skiplist = BalancedSkipList(items, a=a, rng=rng)  # copies the keys in order
    rounds = skiplist.construction_rounds
    height = skiplist.height
    sample_size, sampling_start = sampling_plan(height, a)

    # ``held`` lists the entries each node of the current level holds, aligned
    # with the level's nodes.  At the base every node holds exactly its own
    # value, so a segment's gather is one slice of the base entries and
    # forwards one value per node besides the owner.
    base_entries = list(zip(all_values, repeat(0)))
    bounds = skiplist.segment_bounds(0)
    held = [base_entries[start:end] for start, end in bounds]
    # Pipelined forwarding along a segment: one hop per round plus one round
    # per value crossing the busiest (first) link.
    rounds += 2 * (max(end - start for start, end in bounds) - 1)
    for level in range(1, height - 1):
        sample = level + 1 >= sampling_start
        next_held: List[List[Tuple[Any, int]]] = []
        level_rounds = 0
        for start, end in skiplist.segment_bounds(level):
            gathered = list(chain.from_iterable(held[start:end]))
            segment_rounds = (end - start - 1) + len(gathered) - len(held[start])
            if segment_rounds > level_rounds:
                level_rounds = segment_rounds
            next_held.append(_sample(gathered, sample_size) if sample else gathered)
        rounds += level_rounds
        held = next_held

    median, rank_estimate = _pick_median(held[0])  # what the root gathered
    rounds += skiplist.broadcast_rounds()

    low, high = rank_interval(all_values, median) if diagnostics else (0, 0)
    return AMFResult(median, rounds, n, skiplist, False, low, high)


def sampling_plan(height: int, a: int) -> Tuple[int, int]:
    """``(sample_size, sampling_start)`` for a skip list of ``height`` levels.

    The paper's ``h`` is the top (singleton) level index, ``height - 1``;
    values are sampled down to ``a * h`` of them from level
    ``ceil(log_{a/2} h) + 1`` upward.  The start is at least 2 (the log of
    ``max(h, 2)`` to a base of at least 1.5 is positive), so the base level
    is never sampled.
    """
    h = height - 1
    base = max(a / 2, 1.5)
    return max(2, a * max(h, 1)), math.ceil(math.log(max(h, 2), base)) + 1


def _sample(entries: List[Tuple[float, int]], sample_size: int) -> List[Tuple[float, int]]:
    """Sort ``entries`` and keep a uniform sample, folding discarded mass.

    The discarded values between two kept values are assigned to the *upper*
    kept value's ``weight_below``, so the total mass (count of original
    values) is preserved exactly.
    """
    ordered = sorted(entries, key=_value_of_entry)
    if len(ordered) <= sample_size:
        return ordered
    last = len(ordered) - 1
    kept_indices = sorted({round(i * last / (sample_size - 1)) for i in range(sample_size)})
    kept: List[Tuple[float, int]] = []
    previous_index = -1
    for index in kept_indices:
        value, weight_below = ordered[index]
        # Each discarded entry carries itself plus the mass folded into it.
        discarded = ordered[previous_index + 1 : index]
        extra = len(discarded) + sum(map(_weight_of_entry, discarded))
        kept.append((value, weight_below + extra))
        previous_index = index
    # Any trailing discarded values (there are none because the last index is
    # always kept) would otherwise be lost; assert the mass is preserved.
    return kept


def _pick_median(entries: List[Tuple[float, int]]) -> Tuple[float, float]:
    """Pick the entry whose accounted rank is closest to the middle."""
    ordered = sorted(entries, key=_value_of_entry)
    total_mass = len(ordered) + sum(map(_weight_of_entry, ordered))
    target = total_mass / 2
    best_value = ordered[0][0]
    best_rank = 0.0
    best_distance = math.inf
    cumulative = 0
    for value, weight_below in ordered:
        cumulative += weight_below + 1
        distance = abs(cumulative - target)
        if distance < best_distance:
            best_distance = distance
            best_value = value
            best_rank = cumulative
    return best_value, best_rank
