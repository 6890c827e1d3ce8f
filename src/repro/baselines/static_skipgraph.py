"""Static skip graph baselines (no self-adjustment) and their shared base.

:class:`CachedStaticGraphAlgorithm` is the common machinery for every
baseline that routes over a skip graph which only changes on membership
churn: because the topology is fixed between churn events, the per-pair
routing distance is a pure function of the endpoints, so it is cached per
ordered pair (mirroring the level-list/position-map caching of the skip
graph itself) and the cache is invalidated on ``join``/``leave``.  Skewed
workloads — where a handful of pairs carry almost all traffic — therefore
route repeat requests in O(1) dict lookups instead of re-walking the
levels.  Joins draw a random membership vector (the classical rule,
:func:`~repro.skipgraph.build.draw_membership_bits`); leaves remove the
node and let the level lists close up.

:class:`StaticSkipGraphBaseline` is DSG without the self-adjustment:
requests are routed with the standard skip graph routing (paper,
Appendix B) over a topology that never reacts to traffic — the "worst-case
optimised, oblivious to skew" design the paper improves on.  The
frequency-optimised variant is
:class:`~repro.baselines.offline_static.OfflineStaticBaseline`.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, Optional, Tuple

from repro.baselines.adapter import ServingAlgorithm
from repro.core.costs import RequestCost
from repro.simulation.rng import make_rng
from repro.skipgraph.build import build_balanced_skip_graph, build_skip_graph, draw_membership_bits
from repro.skipgraph.membership import MembershipVector
from repro.skipgraph.node import Key, SkipGraphNode
from repro.skipgraph.routing import route
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["CachedStaticGraphAlgorithm", "StaticSkipGraphBaseline"]


class CachedStaticGraphAlgorithm(ServingAlgorithm):
    """Adapter base for algorithms serving over a churn-only-mutable skip graph.

    Subclasses must assign :attr:`graph` (the :class:`SkipGraph` routed
    over) and :attr:`_rng` (the source for join membership vectors) during
    construction; everything else — cached routing, churn, structure
    accessors — is shared here.
    """

    graph: SkipGraph
    _rng: random.Random

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(name=name)
        self._distances: Dict[Tuple[Key, Key], int] = {}

    # -------------------------------------------------------------- routing
    def routing_cost(self, source: Key, destination: Key) -> int:
        """Routing distance of ``(source, destination)``, cached per pair.

        The cache is exact: it is cleared whenever the topology changes
        (:meth:`join` / :meth:`leave`) and the graph is static otherwise —
        property-tested against the scan-based ``route_reference``.
        """
        pair = (source, destination)
        cached = self._distances.get(pair)
        if cached is None:
            cached = route(self.graph, source, destination).distance
            self._distances[pair] = cached
        return cached

    def _request(self, source: Key, destination: Key) -> RequestCost:
        return RequestCost(
            source=source,
            destination=destination,
            routing=self.routing_cost(source, destination),
        )

    # ---------------------------------------------------------------- churn
    def join(self, key: Key) -> None:
        """Add a peer with a random membership vector (classical join)."""
        if self.graph.has_node(key):
            raise ValueError(f"key {key!r} already present")
        bits = draw_membership_bits(self.graph, key, self._rng)
        self.graph.add_node(SkipGraphNode(key=key, membership=MembershipVector(bits)))
        self._distances.clear()

    def leave(self, key: Key) -> None:
        """Remove a peer; neighbouring links close up over it."""
        if not self.graph.has_node(key):
            raise KeyError(f"no node with key {key!r}")
        self.graph.remove_node(key)
        self._distances.clear()

    # ------------------------------------------------------------ structure
    def height(self) -> int:
        return self.graph.height()

    def population(self) -> int:
        return len(self.graph.real_keys)


class StaticSkipGraphBaseline(CachedStaticGraphAlgorithm):
    """A fixed skip graph: every request pays the full routing distance.

    Parameters
    ----------
    keys:
        Initial node population.
    topology:
        ``"random"`` membership vectors (the classical construction, what
        E9 reports as *static-random*) or the deterministic ``"balanced"``
        construction of height ``ceil(log2 n) + 1``.
    rng:
        Random source for the membership vectors (random topology and
        joins); defaults to the seeded reproduction RNG.
    name:
        Label used in tables and artifacts; defaults to
        ``static-<topology>``.
    """

    def __init__(
        self,
        keys: Iterable[Key],
        topology: str = "random",
        rng: Optional[random.Random] = None,
        name: Optional[str] = None,
    ) -> None:
        if topology not in ("random", "balanced"):
            raise ValueError("topology must be 'random' or 'balanced'")
        super().__init__(name=name or f"static-{topology}")
        self._rng = rng or make_rng()
        keys = list(keys)
        if topology == "random":
            self.graph = build_skip_graph(keys, rng=self._rng)
        else:
            self.graph = build_balanced_skip_graph(keys)
        self.topology = topology
