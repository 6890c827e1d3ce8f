"""SplayNet baseline (Avin, Haeupler, Lotker, Scheideler, Schmid 2013).

SplayNet generalises splay trees to communication networks: the nodes form a
binary search tree; a request ``(u, v)`` costs the length of the tree path
between ``u`` and ``v``; afterwards the tree is locally adjusted by a
*double splay*: ``u`` is splayed to the root of the lowest subtree
containing both endpoints, then ``v`` is splayed to become ``u``'s child.
Frequently communicating pairs therefore end up adjacent, just as in DSG —
but within a single BST rather than a skip graph, which is exactly the
comparison the paper draws in its related-work discussion (and the closest
self-adjusting comparator in experiment E9).

The implementation below is a self-contained pointer-based BST with
bottom-up splaying restricted to a subtree root, plus the cost accounting
needed by experiment E9.  Costs follow the same convention as the other
baselines: ``routing`` is the number of intermediate nodes on the
communication path (tree-path length minus one), and the adjustment cost is
the number of rotations performed (each rotation is a local, constant-round
operation in the distributed implementation of SplayNets).

Serving fast path: :meth:`SplayNetBaseline.request` derives the LCA, both
depths and the path length from **one upward walk per endpoint** (instead
of repeated root walks for depth/LCA/distance).  Combined with splaying —
which keeps hot pairs near their subtree root — a repeat request costs O(1)
walk steps amortized, so 100k-request streams over skewed traffic serve at
cache speed.  The single-walk path is exact, not approximate: the reference
helpers (:meth:`depth`, :meth:`lowest_common_ancestor`,
:meth:`tree_distance`) are kept and the tests assert agreement.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.baselines.adapter import ServingAlgorithm
from repro.core.costs import RequestCost
from repro.skipgraph.node import Key

__all__ = ["SplayNetBaseline"]


class _Node:
    __slots__ = ("key", "parent", "left", "right")

    def __init__(self, key: Key) -> None:
        self.key = key
        self.parent: Optional["_Node"] = None
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


class SplayNetBaseline(ServingAlgorithm):
    """A SplayNet over a dynamic node population.

    Parameters
    ----------
    keys:
        Initial population; the starting tree is the balanced BST over it.
    adjust:
        When ``False`` requests are only measured, never splayed — the
        static-BST ablation (reported as ``static-bst``).
    name:
        Label override for tables and artifacts.
    """

    def __init__(self, keys: Iterable[Key], adjust: bool = True, name: Optional[str] = None) -> None:
        super().__init__(name=name or ("splaynet" if adjust else "static-bst"))
        keys = sorted(set(keys))
        if not keys:
            raise ValueError("SplayNet needs at least one node")
        self._nodes: Dict[Key, _Node] = {key: _Node(key) for key in keys}
        self.root = self._build_balanced(keys, parent=None)
        self.adjust = adjust
        self.rotations = 0

    # ------------------------------------------------------------------ build
    def _build_balanced(self, keys: Sequence[Key], parent: Optional[_Node]) -> Optional[_Node]:
        if not keys:
            return None
        middle = len(keys) // 2
        node = self._nodes[keys[middle]]
        node.parent = parent
        node.left = self._build_balanced(keys[:middle], node)
        node.right = self._build_balanced(keys[middle + 1 :], node)
        return node

    # ------------------------------------------------------------- structure
    def depth(self, key: Key) -> int:
        """Edges between ``key``'s node and the root (reference helper)."""
        node = self._nodes[key]
        depth = 0
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def height(self) -> int:
        # Iterative: splay trees can degenerate to Θ(n)-deep spines (e.g.
        # under sorted access patterns), which would blow the recursion
        # limit at the populations the scale benchmarks use.
        height = 0
        stack = [(self.root, 1)] if self.root is not None else []
        while stack:
            node, depth = stack.pop()
            if depth > height:
                height = depth
            if node.left is not None:
                stack.append((node.left, depth + 1))
            if node.right is not None:
                stack.append((node.right, depth + 1))
        return height

    def population(self) -> int:
        return len(self._nodes)

    def _node_path_to_root(self, key: Key) -> List[_Node]:
        node = self._nodes[key]
        path = [node]
        while node.parent is not None:
            node = node.parent
            path.append(node)
        return path

    def _path_to_root(self, key: Key) -> List[Key]:
        return [node.key for node in self._node_path_to_root(key)]

    def lowest_common_ancestor(self, u: Key, v: Key) -> Key:
        """Reference LCA (root-path intersection); see :meth:`request` for
        the single-walk serving path."""
        ancestors_u = self._path_to_root(u)
        ancestors_v = set(self._path_to_root(v))
        for key in ancestors_u:
            if key in ancestors_v:
                return key
        return self.root.key  # pragma: no cover - the root is always common

    def tree_distance(self, u: Key, v: Key) -> int:
        """Number of edges on the tree path between ``u`` and ``v``."""
        if u == v:
            return 0
        lca = self.lowest_common_ancestor(u, v)
        return (self.depth(u) - self.depth(lca)) + (self.depth(v) - self.depth(lca))

    def in_order(self) -> List[Key]:
        # Iterative for the same deep-spine reason as :meth:`height`.
        result: List[Key] = []
        stack: List[_Node] = []
        node = self.root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            result.append(node.key)
            node = node.right
        return result

    def is_valid_bst(self) -> bool:
        keys = self.in_order()
        return keys == sorted(keys)

    # --------------------------------------------------------------- splaying
    def _rotate_up(self, node: _Node) -> None:
        parent = node.parent
        if parent is None:
            return
        grand = parent.parent
        if parent.left is node:
            parent.left = node.right
            if node.right is not None:
                node.right.parent = parent
            node.right = parent
        else:
            parent.right = node.left
            if node.left is not None:
                node.left.parent = parent
            node.left = parent
        parent.parent = node
        node.parent = grand
        if grand is None:
            self.root = node
        elif grand.left is parent:
            grand.left = node
        else:
            grand.right = node
        self.rotations += 1

    def _splay_until(self, node: _Node, stop_parent: Optional[_Node]) -> None:
        """Splay ``node`` upward until its parent is ``stop_parent``."""
        while node.parent is not stop_parent and node.parent is not None:
            parent = node.parent
            grand = parent.parent
            if grand is stop_parent or grand is None:
                self._rotate_up(node)  # zig
            elif (grand.left is parent) == (parent.left is node):
                self._rotate_up(parent)  # zig-zig
                self._rotate_up(node)
            else:
                self._rotate_up(node)  # zig-zag
                self._rotate_up(node)

    # ---------------------------------------------------------------- serving
    def _request(self, source: Key, destination: Key) -> RequestCost:
        """Serve one request: measure the path, then double-splay.

        One upward walk per endpoint yields both root paths; the LCA is the
        deepest node where they merge, and the path length falls out of the
        two walk prefixes — no separate depth or LCA traversals.  Splaying
        keeps recently communicating pairs near their subtree root, so
        repeat requests walk (and rotate) O(1) nodes amortized.
        """
        if source not in self._nodes or destination not in self._nodes:
            raise KeyError(f"unknown endpoint in request ({source!r}, {destination!r})")
        if source == destination:
            return RequestCost(source=source, destination=destination, routing=0, adjustment=0)

        path_u = self._node_path_to_root(source)
        path_v = self._node_path_to_root(destination)
        # The root paths share a common suffix ending at the root; the LCA is
        # the deepest shared node.  i/j end on the last indices *below* it.
        i, j = len(path_u) - 1, len(path_v) - 1
        while i >= 0 and j >= 0 and path_u[i] is path_v[j]:
            i -= 1
            j -= 1
        lca = path_u[i + 1]
        distance = (i + 1) + (j + 1)  # edges from u down... up to lca, and lca to v
        routing = max(0, distance - 1)  # intermediate nodes on the path

        adjustment = 0
        if self.adjust:
            before = self.rotations
            lca_parent = lca.parent
            self._splay_until(path_u[0], lca_parent)
            # Splay the destination below the source, on the side it belongs.
            self._splay_until(path_v[0], path_u[0])
            adjustment = self.rotations - before
        return RequestCost(source=source, destination=destination, routing=routing, adjustment=adjustment)

    # ------------------------------------------------------------------ churn
    def join(self, key: Key) -> None:
        """Insert ``key`` as a BST leaf (standard search-tree insertion)."""
        if key in self._nodes:
            raise ValueError(f"key {key!r} already present")
        node = _Node(key)
        self._nodes[key] = node
        current = self.root
        if current is None:  # pragma: no cover - population never empties
            self.root = node
            return
        while True:
            if key < current.key:
                if current.left is None:
                    current.left = node
                    node.parent = current
                    return
                current = current.left
            else:
                if current.right is None:
                    current.right = node
                    node.parent = current
                    return
                current = current.right

    def leave(self, key: Key) -> None:
        """Delete ``key`` with standard BST deletion.

        A node with two children swaps payload with its in-order successor
        (the minimum of the right subtree, which has at most one child) and
        the successor's node is spliced out — the usual pointer-structure
        deletion, kept deliberately splay-free so departures do not perturb
        the adjustment accounting.
        """
        if key not in self._nodes:
            raise KeyError(f"no node with key {key!r}")
        if len(self._nodes) == 1:
            raise ValueError("SplayNet needs at least one node")
        node = self._nodes[key]
        if node.left is not None and node.right is not None:
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            self._nodes[successor.key] = node
            node = successor  # splice the successor's (≤1-child) node out
        child = node.left if node.left is not None else node.right
        parent = node.parent
        if child is not None:
            child.parent = parent
        if parent is None:
            self.root = child
        elif parent.left is node:
            parent.left = child
        else:
            parent.right = child
        del self._nodes[key]
