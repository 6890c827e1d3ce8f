"""Routing tables as dict-of-lists, read off the row or the global graph (test oracles).

* :class:`ReferenceNeighborTable` is the code of the
  :class:`~repro.distributed.routing_protocol.NeighborTable` that kept one
  pair of lists per level (level -> nearest-first lefts, nearest-first
  rights), copied unchanged.  It is the layout spec the shipped table is
  held to (``tests/distributed/test_neighbor_table.py``): on every overlay, the
  two agree on ``top_level``, ``size_words()`` and every ``next_hop``.
* :class:`GraphNeighborTable` is how tables were built before the
  distributed layer read each node's own link row: from the driver's global
  :class:`~repro.skipgraph.skipgraph.SkipGraph`, per level the ``k`` nearest
  members on each side in the list the node's membership bits name.  After
  every op kind, at every redundancy, a row-built table must equal it
  (:func:`same_table`).

:func:`same_table` reads the table it checks through ``top_level``,
``size_words()`` and ``next_hop`` alone, so it holds any layout to a spec.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import AbstractSet, Dict, List, Mapping, Optional, Set, Tuple

from repro.skipgraph.node import Key

__all__ = ["GraphNeighborTable", "ReferenceNeighborTable", "level_sides", "same_table"]


class ReferenceNeighborTable:
    """Per-node neighbour table read off the node's own link row, one pair of lists per level."""

    def __init__(self, row: Mapping[Key, AbstractSet[str]], key: Key) -> None:
        self.key = key
        by_label: Dict[str, Tuple[List[Key], List[Key]]] = {}
        for neighbor, labels in row.items():
            right = neighbor > key
            for label in labels:
                sides = by_label.get(label)
                if sides is None:
                    sides = by_label[label] = ([], [])
                sides[right].append(neighbor)
        #: level -> (nearest-first left candidates, nearest-first right candidates)
        self.candidates: Dict[int, Tuple[List[Key], List[Key]]] = {}
        words = 0
        for label, (lefts, rights) in by_label.items():
            lefts.sort(reverse=True)
            rights.sort()
            self.candidates[int(label[5:])] = (lefts, rights)  # "level<d>"
            words += len(lefts) + len(rights)
        self.top_level = max(self.candidates) + 1 if self.candidates else 0
        # A table is replaced, never mutated: its audited size is fixed here.
        self._words = words

    def size_words(self) -> int:
        """Table size in words (for the per-node memory audit)."""
        return self._words

    def next_hop(
        self,
        destination: Key,
        level: int,
        dark: Optional[Set[Key]] = None,
    ) -> Tuple[Optional[Key], int]:
        """Greedy next hop and the level it uses, or ``(None, -1)`` if stuck."""
        ascending = destination > self.key
        current_level = min(level, self.top_level)
        while current_level >= 0:
            lefts, rights = self.candidates.get(current_level, ([], []))
            for candidate in rights if ascending else lefts:
                overshoots = candidate > destination if ascending else candidate < destination
                if overshoots:
                    break
                if dark is not None and candidate in dark:
                    continue
                return candidate, current_level
            current_level -= 1
        return None, -1


class GraphNeighborTable(ReferenceNeighborTable):
    """A :class:`ReferenceNeighborTable` read from ``graph`` at redundancy ``k``."""

    def __init__(self, graph, key, k=1):  # noqa: D107 - deliberately skips the row reader
        if k < 1:
            raise ValueError(f"redundancy k must be >= 1, got {k}")
        self.key = key
        self.candidates = {}
        top = graph.singleton_level(key)
        bits = graph.membership(key).bits
        for level in range(0, top + 1):
            # The singleton level may lie one past the vector: no list there.
            if level > len(bits):
                self.candidates[level] = ([], [])
                continue
            members = graph.list_at(level, bits[:level])
            index = bisect_left(members, key)
            self.candidates[level] = (
                members[max(0, index - k) : index][::-1],
                members[index + 1 : index + 1 + k],
            )
        self.top_level = top
        self._words = sum(len(lefts) + len(rights) for lefts, rights in self.candidates.values())


def level_sides(table, level: int) -> Tuple[List[Key], List[Key]]:
    """A table's nearest-first (lefts, rights) at ``level``, read through ``next_hop`` alone.

    A destination beyond every key never overshoots, so each call returns
    the nearest candidate on that side not yet marked dark, until the level
    runs out and the hop falls to a lower level (or strands).
    """
    sides = []
    for destination in (-math.inf, math.inf):
        found: List[Key] = []
        dark: Set[Key] = set()
        hop, used = table.next_hop(destination, level, dark)
        while used == level:
            found.append(hop)
            dark.add(hop)
            hop, used = table.next_hop(destination, level, dark)
        sides.append(found)
    return sides[0], sides[1]


def same_table(table, spec: ReferenceNeighborTable) -> bool:
    """``table`` has ``spec``'s key, ``top_level`` and size, and its candidates at every level.

    ``table`` is read through ``next_hop`` alone, so any layout can be held
    to the spec.
    """
    return (
        table.key == spec.key
        and table.top_level == spec.top_level
        and table.size_words() == spec.size_words()
        and all(
            level_sides(table, level) == spec.candidates.get(level, ([], []))
            for level in range(spec.top_level + 1)
        )
    )
