"""From-scratch oracle for every derived index of a skip graph (test oracle).

The canonical state of a :class:`~repro.skipgraph.skipgraph.SkipGraph` is
its node map — keys and membership vectors (paper, Section III).  Every
other structure it holds is derived from that map and kept in step by its
mutators: the base list, the prefix counts behind ``height()``, the
multi-prefix counts per level, the dummy-carrier counts behind the join
rule, the dummy total, the cached level lists with their lazy insertion
buffers, and the position maps.

The kernel differential compares two kernels that share the graph's own
index writers, so a bug in one of those writers would hit both sides and
go unseen.  :func:`derived_state_from_scratch` recomputes every index from
``graph._nodes`` alone, using none of the graph's code;
:func:`derived_state` reads the live indexes in the same shape without
mutating the graph (a pending buffer is merged into a copy, never flushed).
A test asserts the two are equal.
"""

from __future__ import annotations

from heapq import merge
from typing import Dict, List, Tuple

from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["derived_state", "derived_state_from_scratch"]

Prefix = Tuple[int, ...]


def derived_state(graph: SkipGraph) -> dict:
    """The live derived indexes of ``graph``, pending buffers merged."""
    pending = graph._pending_inserts
    return {
        "base": list(merge(graph._sorted_keys, graph._base_pending)),
        "prefix_counts": dict(graph._prefix_counts),
        "multi_prefixes_per_level": dict(graph._multi_prefixes_per_level),
        "dummy_prefix_counts": dict(graph._dummy_prefix_counts),
        "dummy_count": graph._dummy_count,
        "height": graph.height(),
        "lists": {
            entry: list(merge(cached, pending.get(entry, ())))
            for entry, cached in graph._list_cache.items()
        },
        "positions": {entry: dict(positions) for entry, positions in graph._pos_cache.items()},
        # A pending buffer belongs to a cached list.
        "buffers_without_a_list": sorted(pending.keys() - graph._list_cache.keys()),
    }


def derived_state_from_scratch(graph: SkipGraph) -> dict:
    """Every derived index recomputed from the node map ``graph._nodes``.

    Only the *set* of cached lists and of position maps is read from the
    graph (which entries exist is a caching decision); their contents are
    what the node map says they must be.
    """
    nodes = graph._nodes
    members: Dict[Prefix, List] = {}
    dummy_prefix_counts: Dict[Prefix, int] = {}
    for key in sorted(nodes):
        node = nodes[key]
        bits = node.membership.bits
        for level in range(1, len(bits) + 1):
            prefix = bits[:level]
            members.setdefault(prefix, []).append(key)
            if node.is_dummy:
                dummy_prefix_counts[prefix] = dummy_prefix_counts.get(prefix, 0) + 1
    multi: Dict[int, int] = {}
    for prefix, keys in members.items():
        if len(keys) >= 2:
            multi[len(prefix)] = multi.get(len(prefix), 0) + 1
    # Height: the levels up to and including the first one where every
    # node is alone — one past the highest level with a list of two or more
    # (the base list is that list when no level above has one).
    height = 1 if len(nodes) <= 1 else max(multi, default=0) + 2

    def list_at(level: int, prefix: Prefix) -> List:
        return list(members.get(prefix, ())) if len(prefix) == level else []

    return {
        "base": sorted(nodes),
        "prefix_counts": {prefix: len(keys) for prefix, keys in members.items()},
        "multi_prefixes_per_level": multi,
        "dummy_prefix_counts": dummy_prefix_counts,
        "dummy_count": sum(node.is_dummy for node in nodes.values()),
        "height": height,
        "lists": {entry: list_at(*entry) for entry in graph._list_cache},
        "positions": {
            entry: {key: index for index, key in enumerate(list_at(*entry))}
            for entry in graph._pos_cache
        },
        "buffers_without_a_list": [],
    }
