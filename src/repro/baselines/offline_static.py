"""Frequency-aware *static* skip graph built offline.

DSG adapts online to an unknown request sequence (Theorem 2's working set
property).  A natural yardstick is the best a *static* topology could do
when the full sequence (equivalently, the pairwise communication
frequencies) is known in advance: frequently communicating nodes should
share deep linked lists so their routes are short.

This baseline builds such a topology by recursive balanced bisection of the
weighted communication graph: at every level, the current linked list is
split into two equally sized sublists so that the total frequency of pairs
separated by the split is (locally) minimised — Kernighan–Lin bisection,
via networkx (the ``baselines`` extra; imported on first use so that
``import repro`` stays stdlib-only).  Balanced halves keep the height at
``ceil(log2 n) + 1``, so the baseline stays inside the family ``S`` of
valid skip graphs (the class Theorem 1's lower bound quantifies over).

This is a heuristic optimum (the exact problem is NP-hard, being a
recursive minimum-bisection), which is the standard choice for "offline
static" comparators in the self-adjusting data-structure literature.

Serving and churn come from
:class:`~repro.baselines.static_skipgraph.CachedStaticGraphAlgorithm`:
per-pair routing distances are cached between churn events, and late
joiners receive a *random* membership vector — the offline optimisation
covers exactly the population and frequencies it was built with; peers the
oracle did not foresee get no placement help, which is the honest reading
of "offline" under churn.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines.static_skipgraph import CachedStaticGraphAlgorithm
from repro.simulation.rng import make_rng
from repro.skipgraph.build import build_skip_graph_from_membership
from repro.skipgraph.node import Key

__all__ = ["OfflineStaticBaseline"]


class OfflineStaticBaseline(CachedStaticGraphAlgorithm):
    """Best-effort static skip graph for a known request distribution.

    Parameters
    ----------
    keys:
        Node population the topology is optimised for.
    requests:
        The full request sequence (or any sequence with the same pair
        frequencies); only the pairwise counts matter.  Pairs mentioning
        keys outside ``keys`` (e.g. peers that join later in a churn
        scenario) contribute nothing to the placement.
    rng:
        Seed source for the Kernighan–Lin refinement and join vectors.
    """

    name = "offline-static"

    def __init__(
        self,
        keys: Iterable[Key],
        requests: Sequence[Tuple[Key, Key]],
        rng: Optional[random.Random] = None,
    ) -> None:
        super().__init__()
        self.keys = sorted(set(keys))
        self._rng = rng or make_rng()
        self._weights = Counter()
        for u, v in requests:
            if u != v:
                self._weights[frozenset((u, v))] += 1
        membership = self._build_membership()
        self.graph = build_skip_graph_from_membership(membership)

    # ------------------------------------------------------------------ build
    def _build_membership(self) -> Dict[Key, List[int]]:
        """Assign membership bits by recursive balanced min-cut bisection."""
        membership: Dict[Key, List[int]] = {key: [] for key in self.keys}

        def bisect(members: List[Key]) -> None:
            if len(members) <= 1:
                return
            zero_side, one_side = self._bisect_once(members)
            for key in zero_side:
                membership[key].append(0)
            for key in one_side:
                membership[key].append(1)
            bisect(zero_side)
            bisect(one_side)

        bisect(list(self.keys))
        return membership

    def _bisect_once(self, members: List[Key]) -> Tuple[List[Key], List[Key]]:
        """Split ``members`` into two balanced halves with a small cut."""
        if len(members) == 2:
            return [members[0]], [members[1]]
        try:
            import networkx as nx
        except ImportError as error:
            raise ImportError(
                "OfflineStaticBaseline needs networkx: install the 'baselines' "
                "extra (pip install dsg-repro[baselines])"
            ) from error
        graph = nx.Graph()
        graph.add_nodes_from(members)
        member_set = set(members)
        for pair, weight in self._weights.items():
            u, v = tuple(pair)
            if u in member_set and v in member_set:
                graph.add_edge(u, v, weight=weight)
        half = len(members) // 2
        seed_partition = (set(members[:half]), set(members[half:]))
        try:
            zero_side, one_side = nx.algorithms.community.kernighan_lin_bisection(
                graph,
                partition=seed_partition,
                weight="weight",
                seed=self._rng.randint(0, 2**31 - 1),
            )
        except nx.NetworkXError:
            zero_side, one_side = seed_partition
        return sorted(zero_side), sorted(one_side)
