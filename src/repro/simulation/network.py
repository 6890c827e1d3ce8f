"""Network topology container.

A :class:`Network` is an undirected multigraph-free adjacency structure over
node identifiers.  Links may be added and removed while the simulation runs
(skip graph transformations rewire level lists), and the network remembers
the labels of each link (e.g. the skip graph levels it belongs to) purely
for introspection and metrics.

Storage is one table ``node -> {neighbour -> label set}``.  A link's label
set is an immutable ``frozenset`` held by both endpoints' rows, so the
table is symmetric by construction, a link lookup is two dict probes, and
no per-link key object is ever built.  Label sets are interned: every link
with the same labels holds the same object, so a skip graph overlay, whose
links nearly all carry one ``level<d>`` label, stores a few hundred label
sets rather than one per link.  :meth:`Network.add_link` and
:meth:`Network.remove_link` replace a link's set in both rows instead of
mutating it; :meth:`Network.copy` shares the sets (and the intern table)
with its source, and :meth:`Network.labels` returns the shared set itself.
:attr:`Network.rows` exposes the table read-only to readers of many rows
(the integrity sweep, the engine's per-round neighbour lookup) without a
defensive copy per link.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import AbstractSet, Dict, FrozenSet, Hashable, Iterator, Mapping, Set, Tuple

from repro.simulation.errors import LinkError

__all__ = ["Network"]

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]
Labels = FrozenSet[Hashable]

_NO_LABELS: Labels = frozenset()


class Network:
    """Undirected dynamic topology with labelled links."""

    def __init__(self) -> None:
        self._rows: Dict[NodeId, Dict[NodeId, Labels]] = {}
        # One object per distinct labelling, shared with every copy.
        self._interned: Dict[Labels, Labels] = {}

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

        For auditors that read many rows: nothing is copied, so the rows
        reached through the view must not be mutated (the label sets are
        immutable and shared between links).
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
            if label not in labels:
                row_u[v] = rows[v][u] = self._intern(labels | {label})
            return
        row_v = rows.get(v)
        if row_v is None:
            row_v = rows[v] = {}
        row_u[v] = row_v[u] = self._intern(frozenset((label,)))

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
            if len(labels) > 1:
                row_u[v] = self._rows[v][u] = self._intern(labels - {label})
                return
        del row_u[v]
        del self._rows[v][u]

    def _intern(self, labels: Labels) -> Labels:
        """The one shared object equal to ``labels``."""
        return self._interned.setdefault(labels, labels)

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

    def labels(self, u: NodeId, v: NodeId) -> Labels:
        """The link's label set, shared and immutable (empty without a link)."""
        row = self._rows.get(u)
        return row.get(v, _NO_LABELS) if row is not None else _NO_LABELS

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
        """An independent table over the same (immutable, shared) label sets."""
        clone = Network()
        clone._rows = {node: dict(row) for node, row in self._rows.items()}
        clone._interned = self._interned
        return clone
