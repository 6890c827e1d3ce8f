"""Working set machinery (paper, Section III).

Three definitions from the paper are implemented here:

* **Working set number** ``T_i(σ_i)`` for a request ``σ_i = (u, v)``:
  build the communication graph ``G`` over the requests issued since the
  previous time ``u`` and ``v`` communicated (inclusive of time ``i``), and
  count the distinct nodes reachable in ``G`` from ``u`` or ``v``.  If the
  pair communicates for the first time, ``T_i(σ_i) = n`` by definition.

* **Working set property** for a pair ``(x, y)`` at time ``i``:
  ``d_S(x, y) <= log T_i(x, y)`` (up to the constant the analysis allows).

* **Working set bound** ``WS(σ) = Σ_i log(T_i(σ_i))`` — the lower bound on
  the amortized routing cost of *any* algorithm conforming to the paper's
  self-adjusting model (Theorem 1).

The module-level functions (:func:`working_set_number` & friends) are the
direct, window-rescanning transcription of the definitions and serve as the
executable specification.  :class:`CommunicationHistory` is the production
implementation: it maintains the *recency graph* — for every node, its
communication partners ordered by the time of their last shared request —
which turns each query into a traversal whose cost is proportional to the
answer (the working set) instead of the window length, and keeps a running
sum of ``log T_i`` so the working set bound is O(1) to read.  Both
implementations agree exactly on every sequence served over a fixed
population; a regression test asserts it.  Under churn the class is the
more faithful one: each first-contact term is evaluated at the population
size ``n`` *at request time* (the number its :meth:`record` returned),
whereas the module-level recomputation can only apply one ``total_nodes``
to the whole history.

Why the recency graph is exact: an edge ``(x, y)`` appears in the window
``[p, i]`` (where ``p`` is the pair's previous request and ``i`` the current
time) if and only if its **most recent** occurrence is at time ``>= p`` —
older occurrences are redundant for membership.  Storing, per node, the
partner map in last-occurrence order therefore lets a traversal enumerate
exactly the window-incident edges of a node and stop at the first stale one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "CommunicationHistory",
    "working_set_number",
    "working_set_bound",
    "working_set_numbers",
]

Node = Hashable
Request = Tuple[Node, Node]


def _reachable(adjacency: Dict[Node, Set[Node]], sources: Sequence[Node]) -> Set[Node]:
    """Nodes reachable from any of ``sources`` in an undirected graph."""
    seen: Set[Node] = set()
    stack: List[Node] = [node for node in sources if node in adjacency]
    seen.update(node for node in sources if node in adjacency)
    while stack:
        node = stack.pop()
        for neighbor in adjacency.get(node, ()):
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    return seen


def working_set_number(history: Sequence[Request], index: int, total_nodes: int) -> int:
    """Working set number ``T_index(σ_index)`` for the request at ``index``.

    This is the reference implementation: it rescans the window between the
    pair's previous occurrence and ``index`` exactly as the definition reads.

    Parameters
    ----------
    history:
        The full request sequence; ``history[index]`` is the request whose
        working set number is computed.
    index:
        Position of the request in ``history`` (0-based).
    total_nodes:
        ``n``, returned for first-time pairs as the definition requires.
    """
    if not 0 <= index < len(history):
        raise IndexError("request index out of range")
    u, v = history[index]
    pair = frozenset((u, v))

    start: Optional[int] = None
    for t in range(index - 1, -1, -1):
        if frozenset(history[t]) == pair:
            start = t
            break
    if start is None:
        return total_nodes

    adjacency: Dict[Node, Set[Node]] = {}
    for t in range(start, index + 1):
        x, y = history[t]
        adjacency.setdefault(x, set()).add(y)
        adjacency.setdefault(y, set()).add(x)
    return len(_reachable(adjacency, [u, v]))


def working_set_numbers(history: Sequence[Request], total_nodes: int) -> List[int]:
    """Working set numbers for every request of ``history`` (convenience)."""
    tracker = CommunicationHistory(total_nodes)
    numbers = []
    for u, v in history:
        numbers.append(tracker.record(u, v))
    return numbers


def working_set_bound(history: Sequence[Request], total_nodes: int, base: float = 2.0) -> float:
    """``WS(σ) = Σ_i log(T_i(σ_i))`` (Theorem 1's lower bound), log base 2.

    Working set numbers of 1 contribute 0; the paper's ``log`` is taken to
    the base ``base`` (2 unless stated otherwise).
    """
    total = 0.0
    for number in working_set_numbers(history, total_nodes):
        total += math.log(max(number, 1), base)
    return total


@dataclass
class CommunicationHistory:
    """Incrementally maintained communication history with working-set queries.

    It keeps no per-request log: per request, :meth:`record` advances the
    request count, refreshes the recency graph (each endpoint's partner map
    is re-inserted so iteration order is last-occurrence order) and answers
    the working set number with a traversal over window-fresh edges only.
    First-time pairs are O(1) (the definition returns ``n`` outright);
    repeated pairs pay O(working set edges), never O(window) — the traversal
    stops at the first edge whose last occurrence predates the window.

    A running sum of ``log T_i`` makes :meth:`working_set_bound` O(1)
    instead of a full-history recomputation.
    """

    total_nodes: int
    _count: int = 0
    _last_seen: Dict[frozenset, int] = field(default_factory=dict)
    # node -> {partner -> time of their last shared request}, insertion
    # (= iteration) order kept ascending in that time by re-insertion.
    _recency: Dict[Node, Dict[Node, int]] = field(default_factory=dict)
    _log_sum: float = 0.0

    def __len__(self) -> int:
        return self._count

    def record(self, u: Node, v: Node) -> int:
        """Record the request ``(u, v)`` and return its working set number."""
        pair = frozenset((u, v))
        previous = self._last_seen.get(pair)
        index = self._count
        self._count += 1
        self._last_seen[pair] = index
        self._refresh_edge(u, v, index)
        if u != v:
            self._refresh_edge(v, u, index)
        if previous is None:
            number = self.total_nodes
        else:
            number = self._working_set_size(u, v, previous)
        self._log_sum += math.log(max(number, 1))
        return number

    def peek(self, u: Node, v: Node) -> int:
        """Working set number the pair *would* have if it communicated now.

        Does not mutate the history.  The hypothetical request's window
        starts at the pair's previous occurrence, whose edge is by
        construction already fresh enough, so the traversal needs no
        temporary edge insertion.
        """
        previous = self._last_seen.get(frozenset((u, v)))
        if previous is None:
            return self.total_nodes
        return self._working_set_size(u, v, previous)

    def working_set_bound(self, base: float = 2.0) -> float:
        """``WS(σ)`` of everything recorded so far (O(1), running sum).

        Each term is ``log`` of the working set number :meth:`record`
        returned at the time — so first-contact terms use the population
        size as of that request, which is what makes the bound well-defined
        when ``total_nodes`` changes under churn.  For a fixed population
        this equals the module-level :func:`working_set_bound` of the
        requests recorded, at ``self.total_nodes``.
        """
        return self._log_sum / math.log(base)

    def last_time_of_pair(self, u: Node, v: Node) -> Optional[int]:
        return self._last_seen.get(frozenset((u, v)))

    # ------------------------------------------------------------- internals
    def _refresh_edge(self, node: Node, partner: Node, time: int) -> None:
        """Move ``partner`` to the most-recent end of ``node``'s partner map."""
        partners = self._recency.get(node)
        if partners is None:
            self._recency[node] = {partner: time}
            return
        if partner in partners:
            del partners[partner]
        partners[partner] = time

    def _working_set_size(self, u: Node, v: Node, window_start: int) -> int:
        """Size of the component of ``u``/``v`` over edges last seen in window.

        Iterates every visited node's partner map newest-first and stops at
        the first partner whose last shared request predates ``window_start``
        — all remaining entries are older still.
        """
        recency = self._recency
        seen = {u, v}
        stack = [u, v]
        while stack:
            partners = recency.get(stack.pop())
            if not partners:
                continue
            for partner in reversed(partners):
                if partners[partner] < window_start:
                    break
                if partner not in seen:
                    seen.add(partner)
                    stack.append(partner)
        return len(seen)
