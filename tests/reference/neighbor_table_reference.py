"""Routing tables read from the global skip graph (test oracle).

Until the distributed layer built each node's
:class:`~repro.distributed.routing_protocol.NeighborTable` from the node's
own link row, tables came from the driver's global
:class:`~repro.skipgraph.skipgraph.SkipGraph`: per level, the ``k``
nearest members on each side in the list the node's membership bits name.
That constructor lives on here as the specification a row-built table is
held to (``tests/distributed/test_neighbor_table.py``): after every op
kind, at every redundancy, the two must agree on ``top_level`` and on every
non-empty level.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.distributed.routing_protocol import NeighborTable

__all__ = ["GraphNeighborTable", "same_table"]


class GraphNeighborTable(NeighborTable):
    """A :class:`NeighborTable` read from ``graph`` at redundancy ``k``."""

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


def same_table(table: NeighborTable, other: NeighborTable) -> bool:
    """Same key, same ``top_level`` and the same candidates at every non-empty level."""

    def levels(t):
        return {level: sides for level, sides in t.candidates.items() if sides != ([], [])}

    return (
        table.key == other.key
        and table.top_level == other.top_level
        and levels(table) == levels(other)
        and table.size_words() == other.size_words()
    )
