"""Per-key replay builders for skip graphs (test oracles).

The balanced and the random construction as they first shipped in
``repro/skipgraph/build.py``: collect each node's bits, then insert the
nodes one :meth:`~repro.skipgraph.skipgraph.SkipGraph.add_node` at a time,
so every prefix index is written once per node and level.

* :func:`build_balanced_skip_graph_reference` splits every list by rank
  parity until it is a singleton;
* :func:`build_skip_graph_reference` has every node that still shares its
  prefix draw one more random bit, round after round, rescanning all
  vectors for the groups that remain.

The shipping builders register each list once instead; the derived indexes
they leave, and the random builder's RNG draws, must equal these replays'
(``tests/skipgraph/test_bulk_build.py``).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Sequence

from repro.skipgraph.membership import MembershipVector
from repro.skipgraph.node import Key, SkipGraphNode
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["build_balanced_skip_graph_reference", "build_skip_graph_reference"]


def build_balanced_skip_graph_reference(keys: Iterable[Key]) -> SkipGraph:
    """The balanced skip graph over ``keys``, built by ``add_node`` replay."""
    keys = sorted(set(keys))
    vectors: Dict[Key, List[int]] = {key: [] for key in keys}

    def split(members: Sequence[Key]) -> None:
        if len(members) <= 1:
            return
        evens = list(members[0::2])
        odds = list(members[1::2])
        for key in evens:
            vectors[key].append(0)
        for key in odds:
            vectors[key].append(1)
        split(evens)
        split(odds)

    split(keys)
    graph = SkipGraph()
    for key in keys:
        graph.add_node(SkipGraphNode(key=key, membership=MembershipVector(vectors[key])))
    return graph


def build_skip_graph_reference(keys: Iterable[Key], rng: random.Random) -> SkipGraph:
    """The random skip graph over ``keys``, built by ``add_node`` replay."""
    keys = sorted(set(keys))
    vectors: Dict[Key, List[int]] = {key: [] for key in keys}

    def groups() -> List[List[Key]]:
        by_prefix: Dict[tuple, List[Key]] = {}
        for key in keys:
            by_prefix.setdefault(tuple(vectors[key]), []).append(key)
        return [members for members in by_prefix.values() if len(members) > 1]

    pending = groups()
    while pending:
        for members in pending:
            for key in members:
                vectors[key].append(rng.randint(0, 1))
        pending = groups()

    graph = SkipGraph()
    for key in keys:
        graph.add_node(SkipGraphNode(key=key, membership=MembershipVector(vectors[key])))
    return graph
