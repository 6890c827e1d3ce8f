"""Standard skip graph routing (paper, Appendix B; Aspnes & Shah 2003).

    "Routing starts at the top level from the source node and traverses
    through the skip graph structure.  If the identifier of the destination
    node is greater than that of the source node, then at each level, routing
    moves to the next right node until the identifier of the next node is
    greater than the identifier of the destination node.  When a node with an
    identifier greater than the destination node is found, the routing drops
    to the next lower level, continuing until the destination node is found."

The functions return the full path (source and destination included), the
per-hop levels, and the *distance* as defined in Section III: the number of
intermediate nodes on the communication path.

Two implementations are provided:

:func:`route`
    The production hot path: O(expected hops) per call.  It starts at the
    (cached) graph height, performs every neighbour lookup through the skip
    graph's position maps (no per-hop list scans), and takes an early-exit
    fast path when the endpoints are already adjacent in their highest
    common list — the steady state DSG leaves a communicating pair in, so a
    repeated request routes in O(1).
:func:`route_reference`
    The original scan-based algorithm, kept verbatim as the executable
    specification.  It derives every linked list directly from the
    membership vectors and never consults the caches, so the property tests
    can assert that the fast path returns byte-identical paths.

Both produce identical :class:`RoutingResult`\\ s on every input: the fast
path only starts *higher* (descents above the first hop level do not touch
the path) and the early exit only fires when the unique remaining hop is the
direct link (no key between the endpoints exists in their common list, hence
in any deeper list either).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.skipgraph.membership import common_prefix_length
from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["RoutingResult", "route", "route_reference", "routing_distance"]


class RoutingError(Exception):
    """Raised when the destination cannot be reached (corrupt structure)."""


@dataclass
class RoutingResult:
    """Outcome of one routing request.

    Attributes
    ----------
    source, destination:
        Endpoint keys.
    path:
        Keys visited, starting with ``source`` and ending with
        ``destination``.
    hop_levels:
        For every hop ``path[i] -> path[i+1]``, the level whose linked list
        provided the link.
    distance:
        Number of intermediate nodes on the path (paper's ``d_S``), i.e.
        ``len(path) - 2`` for distinct endpoints and 0 for a self-request.
    rounds:
        Rounds needed in the synchronous model: one per hop.
    """

    source: Key
    destination: Key
    path: List[Key] = field(default_factory=list)
    hop_levels: List[int] = field(default_factory=list)

    @property
    def distance(self) -> int:
        return max(0, len(self.path) - 2)

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)

    @property
    def rounds(self) -> int:
        return self.hops


def route(graph: SkipGraph, source: Key, destination: Key) -> RoutingResult:
    """Route from ``source`` to ``destination`` with the standard algorithm.

    Hot path: every neighbour lookup is O(1) amortized and a pair that is
    adjacent in its highest common list short-circuits in O(1).
    """
    if not graph.has_node(source):
        raise KeyError(f"unknown source {source!r}")
    if not graph.has_node(destination):
        raise KeyError(f"unknown destination {destination!r}")

    result = RoutingResult(source=source, destination=destination, path=[source])
    if source == destination:
        return result

    # Early exit: after DSG serves a request the pair shares a linked list in
    # which they are neighbours, so the very next route between them is the
    # single direct hop.  Adjacency at the highest common level means no key
    # lies between the endpoints in that list — and deeper lists are subsets
    # of it — so the standard top-down walk would descend hop-free to alpha
    # and take exactly this link.
    alpha = common_prefix_length(graph.membership(source), graph.membership(destination))
    if graph.are_adjacent(source, destination, alpha):
        result.path.append(destination)
        result.hop_levels.append(alpha)
        return result

    ascending = destination > source
    current = source
    # The graph height is an upper bound on every node's singleton level;
    # starting there instead of computing singleton_level(source) only adds
    # hop-free descents, which leave the path untouched.
    level = graph.height()
    path = result.path
    hop_levels = result.hop_levels

    # Safety bound: a correct skip graph never needs more hops than nodes.
    for _ in range(2 * len(graph) + 2 * graph.height() + 2):
        if current == destination:
            return result
        if level < 0:
            break
        left, right = graph.neighbors(current, level)
        neighbor = right if ascending else left
        if neighbor is None or (neighbor > destination if ascending else neighbor < destination):
            level -= 1
            continue
        path.append(neighbor)
        hop_levels.append(level)
        current = neighbor
    if current == destination:
        return result
    raise RoutingError(
        f"routing from {source!r} to {destination!r} failed; the skip graph "
        "structure is inconsistent"
    )


def route_reference(graph: SkipGraph, source: Key, destination: Key) -> RoutingResult:
    """Scan-based executable specification of :func:`route`.

    Derives every linked list directly from the membership vectors (no list
    cache, no position maps, no early exit) exactly like the seed
    implementation.  Used by the property tests and kept as the ground truth
    the optimised hot path is compared against; do not call it in hot loops.
    """
    if not graph.has_node(source):
        raise KeyError(f"unknown source {source!r}")
    if not graph.has_node(destination):
        raise KeyError(f"unknown destination {destination!r}")

    result = RoutingResult(source=source, destination=destination, path=[source])
    if source == destination:
        return result

    ascending = destination > source
    current = source
    level = _singleton_level_by_scan(graph, current)

    for _ in range(2 * len(graph) + graph.height() + 2):
        if current == destination:
            return result
        if level < 0:
            break
        neighbor = _neighbor_by_scan(graph, current, level, ascending)
        if neighbor is None or (neighbor > destination if ascending else neighbor < destination):
            level -= 1
            continue
        result.path.append(neighbor)
        result.hop_levels.append(level)
        current = neighbor
    if current == destination:
        return result
    raise RoutingError(
        f"routing from {source!r} to {destination!r} failed; the skip graph "
        "structure is inconsistent"
    )


def _singleton_level_by_scan(graph: SkipGraph, key: Key) -> int:
    """Singleton level recomputed from the raw membership vectors."""
    if len(graph) <= 1:
        return 0
    bits = graph.membership(key).bits
    deepest_shared = 0
    for other in graph.keys:
        if other == key:
            continue
        deepest_shared = max(deepest_shared, common_prefix_length(bits, graph.membership(other).bits))
    return deepest_shared + 1


def _neighbor_by_scan(graph: SkipGraph, current: Key, level: int, ascending: bool) -> Optional[Key]:
    """Neighbour of ``current`` derived by scanning the full node set."""
    if level == 0:
        members = graph.keys
    else:
        bits = graph.membership(current).bits
        if len(bits) < level:
            return None
        prefix = bits[:level]
        members = [k for k in graph.keys if graph.membership(k).bits[:level] == prefix]
    index = members.index(current)
    if ascending:
        return members[index + 1] if index + 1 < len(members) else None
    return members[index - 1] if index > 0 else None


def routing_distance(graph: SkipGraph, source: Key, destination: Key) -> int:
    """Distance (number of intermediate nodes) of the standard routing path."""
    return route(graph, source, destination).distance
