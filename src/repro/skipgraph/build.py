"""Skip graph construction policies.

Three builders are provided:

``build_skip_graph``
    The classical construction: every node draws membership bits uniformly
    at random until it is the only node with its prefix (Aspnes & Shah).
    Produces height ``O(log n)`` with high probability.
``build_balanced_skip_graph``
    A deterministic, perfectly balanced construction: the list at each level
    is split into halves by rank parity, so bit ``i`` of a node is bit ``i``
    of its rank written in binary (least significant bit first).  Gives
    height exactly ``ceil(log2 n) + 1`` and satisfies the a-balance property
    for every ``a >= 1``.  DSG runs in the experiments start from this
    topology.
``build_skip_graph_from_membership``
    Explicit membership vectors (used to reconstruct the paper's worked
    examples, Figures 1 and 4).

The first two share one split walk and fill the graph through
``SkipGraph._load`` in one pass, each list registered once; only the
explicit builder replays ``add_node`` per node.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.simulation.rng import make_rng
from repro.skipgraph.membership import MembershipVector
from repro.skipgraph.node import Key, SkipGraphNode
from repro.skipgraph.skipgraph import SkipGraph

__all__ = [
    "build_skip_graph",
    "build_balanced_skip_graph",
    "build_skip_graph_from_membership",
    "draw_membership_bits",
]


def build_skip_graph(keys: Iterable[Key], rng: Optional[random.Random] = None) -> SkipGraph:
    """Build a skip graph with uniformly random membership vectors.

    Bits are drawn lazily: whenever two or more nodes still share a prefix,
    each of them draws one more bit, until every node's vector is unique.
    """
    rng = rng or make_rng()

    def split(members: List[Key]) -> Tuple[List[Key], List[Key]]:
        parts: Tuple[List[Key], List[Key]] = ([], [])
        for key in members:
            parts[rng.randint(0, 1)].append(key)
        return parts

    return _build_by_splitting(keys, split)


def build_balanced_skip_graph(keys: Iterable[Key]) -> SkipGraph:
    """Build a perfectly balanced skip graph (deterministic).

    Each list is split by rank parity: nodes at even positions form the
    0-sublist and nodes at odd positions form the 1-sublist, recursively
    until lists are singletons.  The resulting height is exactly
    ``ceil(log2 n) + 1``, routing distances are ``O(log n)``, and the
    a-balance property holds for every ``a >= 1`` (no two consecutive nodes
    of a list ever share the next-level sublist).
    """
    return _build_by_splitting(keys, lambda members: (members[0::2], members[1::2]))


def _build_by_splitting(keys: Iterable[Key], split) -> SkipGraph:
    """Split every list of two or more keys with ``split`` into its 0- and
    1-sublist, level by level and in first-key order (the random builder's
    draw order), until each key is alone: a singleton's prefix is its node's
    vector, and each list above the base list is registered once."""
    keys = sorted(set(keys))
    nodes: Dict[Key, SkipGraphNode] = {}
    lists = []
    level = [((), keys)] if keys else []
    while level:
        following = []
        for prefix, members in level:
            if prefix:
                lists.append((prefix, len(members), 0))
            if len(members) == 1:
                nodes[members[0]] = SkipGraphNode(members[0], MembershipVector._from_trusted(prefix))
            else:
                following += [(prefix + (bit,), part) for bit, part in enumerate(split(members)) if part]
        level = sorted(following, key=lambda entry: entry[1][0])
    graph = SkipGraph()
    graph._load([nodes[key] for key in keys], lists)
    return graph


def draw_membership_bits(graph: SkipGraph, key: Key, rng: random.Random) -> List[int]:
    """Draw random membership bits for a node joining ``graph`` (Section IV-G).

    Bits are appended uniformly at random until no existing *real* node
    shares the prefix — the classical join rule, which keeps the expected
    height at ``O(log n)``.  Used by every structure that supports online
    joins (``DynamicSkipGraph.add_node`` and the static baselines' ``join``)
    so they all churn identically given the same RNG stream.

    The shared-prefix test consults the graph's incrementally maintained
    prefix-count index (:meth:`~repro.skipgraph.skipgraph.SkipGraph.shares_real_prefix`),
    so one join costs O(height) index lookups instead of an O(n) scan of
    ``real_keys`` per drawn bit.  The predicate — and therefore the number
    of RNG draws and the emitted bits — is *byte-identical* to the scan
    (kept test-side as ``draw_membership_bits_reference`` in
    ``tests/reference/kernel_reference.py`` and property-tested against
    it), which is what keeps every algorithm churning identically across
    the old and new implementations.
    """
    bits: List[int] = []
    shares = graph.shares_real_prefix
    while shares(tuple(bits), exclude=key):
        bits.append(rng.randint(0, 1))
    return bits


def build_skip_graph_from_membership(membership: Mapping[Key, Sequence[int] | str]) -> SkipGraph:
    """Build a skip graph from explicit ``key -> membership vector`` data."""
    return SkipGraph(SkipGraphNode(key=key, membership=membership[key]) for key in sorted(membership))
