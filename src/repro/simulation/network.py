"""Network topology container.

A :class:`Network` is an undirected multigraph-free adjacency structure over
node identifiers.  Links may be added and removed while the simulation runs
(skip graph transformations rewire level lists), and the network remembers
the labels of each link (e.g. the skip graph levels it belongs to) purely
for introspection and metrics.

Storage is one table ``node -> {neighbour -> label set}``.  A link's label
set is a single object held by both endpoints' rows, so the table is
symmetric by construction, a link lookup is two dict probes, and no
per-link key object is ever built.  :attr:`Network.rows` exposes the table
read-only to readers of many rows (the integrity sweep, the engine's
per-round neighbour lookup) without a defensive copy per link.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, Hashable, Iterator, Mapping, Set, Tuple

from repro.simulation.errors import LinkError

__all__ = ["Network"]

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


class Network:
    """Undirected dynamic topology with labelled links."""

    def __init__(self) -> None:
        self._rows: Dict[NodeId, Dict[NodeId, Set[Hashable]]] = {}

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: NodeId) -> None:
        """Register ``node`` (idempotent)."""
        if node not in self._rows:
            self._rows[node] = {}

    def remove_node(self, node: NodeId) -> None:
        """Remove ``node`` and every link incident to it."""
        row = self._rows.pop(node, None)
        if row is None:
            raise LinkError(f"node {node!r} is not part of the network")
        for neighbor in row:
            del self._rows[neighbor][node]

    def has_node(self, node: NodeId) -> bool:
        return node in self._rows

    @property
    def nodes(self) -> Set[NodeId]:
        return set(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._rows

    @property
    def rows(self) -> Mapping[NodeId, Mapping[NodeId, AbstractSet[Hashable]]]:
        """Live read-only view of the link table ``node -> {neighbour -> labels}``.

        For auditors that read many rows: nothing is copied, so the rows and
        label sets reached through the view must not be mutated.
        """
        return MappingProxyType(self._rows)

    # ------------------------------------------------------------------ links
    def add_link(self, u: NodeId, v: NodeId, label: Hashable = None) -> None:
        """Add an undirected link between ``u`` and ``v``.

        Adding the same link twice with different labels records both labels
        but keeps a single physical link (skip graph neighbours may be
        adjacent at several levels; the CONGEST constraint in the paper is
        per *link*, and two nodes adjacent at multiple levels still exchange
        at most one message per round in our strict interpretation --- the
        more conservative reading).
        """
        if u == v:
            raise LinkError("self-links are not allowed")
        rows = self._rows
        row_u = rows.get(u)
        if row_u is None:
            row_u = rows[u] = {}
        labels = row_u.get(v)
        if labels is not None:
            labels.add(label)
            return
        row_v = rows.get(v)
        if row_v is None:
            row_v = rows[v] = {}
        row_u[v] = row_v[u] = {label}

    def remove_link(self, u: NodeId, v: NodeId, label: Hashable = None) -> None:
        """Remove the link (or one label of it) between ``u`` and ``v``.

        With ``label=None`` the physical link is dropped regardless of how
        many labels it carried; with a label, only that label is removed and
        the physical link survives while other labels remain.  Removing a
        label the link does not carry raises :class:`LinkError` — silently
        keeping the link would let a churn rewiring bug (asking to unlink a
        level the pair is not adjacent at) go unnoticed.
        """
        row_u = self._rows.get(u)
        labels = row_u.get(v) if row_u is not None else None
        if labels is None:
            raise LinkError(f"no link between {u!r} and {v!r}")
        if label is not None:
            if label not in labels:
                raise LinkError(
                    f"link between {u!r} and {v!r} does not carry label {label!r}"
                )
            labels.discard(label)
            if labels:
                return
        del row_u[v]
        del self._rows[v][u]

    def has_link(self, u: NodeId, v: NodeId) -> bool:
        row = self._rows.get(u)
        return row is not None and v in row

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        row = self._rows.get(node)
        if row is None:
            raise LinkError(f"node {node!r} is not part of the network")
        return set(row)

    def degree(self, node: NodeId) -> int:
        return len(self._rows.get(node, ()))

    def labels(self, u: NodeId, v: NodeId) -> Set[Hashable]:
        row = self._rows.get(u)
        return set(row.get(v, ())) if row is not None else set()

    def edges(self) -> Iterator[Edge]:
        """Every link once, as ``(u, v)`` from the endpoint whose row comes first."""
        visited: Set[NodeId] = set()
        for u, row in self._rows.items():
            for v in row:
                if v not in visited:
                    yield (u, v)
            visited.add(u)

    def edge_count(self) -> int:
        return sum(map(len, self._rows.values())) // 2

    def copy(self) -> "Network":
        clone = Network()
        rows = clone._rows
        rows.update((node, {}) for node in self._rows)
        for u, v in self.edges():
            rows[u][v] = rows[v][u] = set(self._rows[u][v])
        return clone
