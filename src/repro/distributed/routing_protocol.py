"""Message-level skip graph routing (Appendix B) on the CONGEST simulator.

Every node process knows only its own key, its membership vector and its
left/right neighbours at each level (``O(log n)`` words of local state, as
the model requires).  A source forwards a ``route`` message greedily towards
the destination, one hop per round; each hop carries only the destination
key and the current level — a constant number of words.

The router is *multi-request capable*: a process can be handed several
destinations (initiated one per round) and forwards any ``route`` message it
receives, reading the destination from the payload.  Outgoing messages are
flow-controlled per link — at most one send per neighbour per round, the
rest queued FIFO locally — so concurrent routes through a shared hop stay
CONGEST-conformant by construction instead of relying on luck.

Two entry points:

* :func:`run_routing_protocol` — the classic one-shot measurement: fresh
  network, fresh simulator, one (source, destination) pair; it returns
  the reconstructed path and the run's ``metrics`` (the engine's
  :class:`~repro.simulation.MetricsCollector`).
* :func:`install_routing` — register router processes on an *existing*
  simulator (reusing its network and metrics), which is how the churn
  arena restarts routing generations across membership changes and how
  :func:`~repro.distributed.bridge.replay_scenario` joiners get processes.
  A request whose source is not in the graph is rejected before any
  router is registered.

Network maintenance is *op driven*: :func:`skip_graph_network` builds the
link structure once from a topology snapshot, and :func:`patch_network` /
:func:`apply_network_delta` keep a built network equal to the evolving
topology by executing local-operation plans (:mod:`repro.core.local_ops`)
as per-level link rewiring — the invariant
``network == skip_graph_network(graph)`` (links *and* level labels) holds
after every op, so protocol installs and churn replays never rebuild the
network from scratch (at 100k nodes a rebuild is millions of link
insertions; a churn op patches a bounded neighbourhood).  A live overlay
has exactly one link writer, :func:`_rewire`, which handles every op kind
at any redundancy ``k``: :func:`patch_network` is its ``k = 1`` form and
the crash pair :func:`repair_crash_links` / :func:`rejoin_crash_links` is
its leave / join at the arena's ``k``.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.core.local_ops import LocalOp, NodeJoinOp, NodeLeaveOp, apply_op, op_levels
from repro.simulation import Message, Network, NodeProcess, RoundContext, Simulator, SimulatorConfig
from repro.simulation.metrics import MetricsCollector
from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph

__all__ = [
    "GreedyForwarder",
    "NeighborTable",
    "RouteLedger",
    "RoutingProtocolResult",
    "apply_network_delta",
    "install_routing",
    "make_router",
    "networks_equal",
    "patch_network",
    "rejoin_crash_links",
    "repair_crash_links",
    "run_routing_protocol",
    "skip_graph_network",
    "trace_route",
]


@dataclass
class RoutingProtocolResult:
    """Outcome of one message-level routing execution; ``metrics`` holds the run's traffic."""

    source: Key
    destination: Key
    path: List[Key]
    metrics: MetricsCollector

    @property
    def distance(self) -> int:
        return max(0, len(self.path) - 2)

    @property
    def hops(self) -> int:
        return max(0, len(self.path) - 1)


class NeighborTable:
    """Per-node neighbour table read off the node's own link row.

    Shared by the plain router and the DSG protocol
    (:mod:`repro.distributed.dsg_protocol`): both forward greedily with
    :meth:`next_hop`, so the Appendix B semantics live in exactly one
    place — the distributed == centralized routing-distance guarantee
    depends on it.

    ``row`` is the node's ``network.rows`` entry (neighbour -> ``level<d>``
    labels): in an overlay equal to :func:`skip_graph_network` at redundancy
    ``k``, its ``k`` nearest list members per side per level, kept nearest
    first.  So the table is *k-redundant* (the bami exemplar's
    ``extend_skip_graph_neighbourhood``): a route can step around a crashed
    primary neighbour (``dark`` of :meth:`next_hop`) instead of stranding.

    Layout: one tuple of candidate keys and one tuple of slice offsets, no
    per-level containers.  Level ``d``'s lefts (nearest first) are
    ``keys[offsets[2d]:offsets[2d + 1]]`` and its rights (nearest first)
    ``keys[offsets[2d + 1]:offsets[2d + 2]]``; a level without links has
    two empty slices.  A table is replaced, never mutated, and the tuples
    enforce it.
    """

    __slots__ = ("key", "top_level", "_keys", "_offsets")

    def __init__(self, row: Mapping[Key, AbstractSet[str]], key: Key) -> None:
        self.key = key
        by_label: Dict[str, Tuple[List[Key], List[Key]]] = {}
        for neighbor, labels in row.items():
            right = neighbor > key
            for label in labels:
                sides = by_label.get(label)
                if sides is None:
                    by_label[label] = ([], [neighbor]) if right else ([neighbor], [])
                else:
                    sides[right].append(neighbor)
        # One (lefts, rights) pair per level up to the highest labelled one;
        # a level with no link (a crash's hole before its repair) stays empty.
        levels: List[Tuple[Sequence[Key], Sequence[Key]]] = [((), ())] * len(by_label)
        for label, sides in by_label.items():
            level = int(label[5:])  # "level<d>"
            while level >= len(levels):
                levels.append(((), ()))
            levels[level] = sides
        #: Levels ``0 .. top_level - 1`` may hold candidates; ``top_level`` is the node's singleton level.
        self.top_level = len(levels)
        keys: List[Key] = []
        offsets = [0]
        for lefts, rights in levels:
            # Most sides hold one key at k = 1, and an empty level's are tuples.
            if len(lefts) > 1:
                lefts.sort(reverse=True)
            if len(rights) > 1:
                rights.sort()
            keys += lefts
            offsets.append(len(keys))
            keys += rights
            offsets.append(len(keys))
        self._keys: Tuple[Key, ...] = tuple(keys)
        self._offsets: Tuple[int, ...] = tuple(offsets)

    def size_words(self) -> int:
        """Table size in words (for the per-node memory audit)."""
        return len(self._keys)

    def next_hop(
        self,
        destination: Key,
        level: int,
        dark: Optional[Set[Key]] = None,
    ) -> Tuple[Optional[Key], int]:
        """Greedy next hop and the level it uses, or ``(None, -1)`` if stuck.

        ``dark`` nodes (known-crashed neighbours) are skipped in favour of
        the next-nearest candidate on the same side — which never
        overshoots more than the primary would, so greedy progress (and
        hence loop freedom) is preserved.  A request whose destination
        itself is dark eventually strands here: every detour candidate
        beyond the destination overshoots, every level runs out, and the
        caller reports a failed request.
        """
        keys, offsets = self._keys, self._offsets
        ascending = destination > self.key
        # ``top_level`` itself holds no candidates: start one below it.
        current_level = min(level, self.top_level - 1)
        while current_level >= 0:
            start = 2 * current_level + ascending
            for candidate in keys[offsets[start] : offsets[start + 1]]:
                overshoots = candidate > destination if ascending else candidate < destination
                if overshoots:
                    break
                if dark is not None and candidate in dark:
                    continue
                return candidate, current_level
            current_level -= 1
        return None, -1


@dataclass
class RouteLedger:
    """Driver-shared conservation ledger keyed by request id (``rid``).

    The failure arena's per-wave conservation claim is
    ``delivered + failed (+ retried-then-delivered) == injected``.  With
    crashes landing only at quiescent wave boundaries, per-router counters
    suffice — every injected request ends in exactly one counter.  A crash
    that lands *mid-wave* breaks that: a route message in flight towards
    (or through) the victim becomes a counted engine drop, and no router
    counter moves.  Tagging each injected request with a unique ``rid`` and
    recording terminal outcomes here makes the loss *identifiable*: a rid
    in neither set after quiescence is exactly an in-flight casualty, which
    the arena retries after the repair wave (bounded, with backoff) and
    only then counts failed.  The ledger is driver state, not node state —
    it costs the routers nothing against the O(k log n) memory model.
    """

    delivered: Set[int] = field(default_factory=set)
    failed: Set[int] = field(default_factory=set)

    def unresolved(self, injected: Set[int]) -> Set[int]:
        """Rids of ``injected`` with no terminal outcome (lost in flight)."""
        return injected - self.delivered - self.failed


class GreedyForwarder(NodeProcess):
    """The forwarding core shared by the plain router and the DSG peer.

    One implementation of everything a hop involves: the greedy next hop
    through the k-redundant :class:`NeighborTable` with the node's *dark*
    set, strand accounting when every remaining candidate is dark, the
    per-link FIFO queue (at most one send per neighbour per round, which is
    what makes both protocols CONGEST-conformant by construction) and the
    flush that re-routes hops queued onto a link that has since vanished.
    A subclass keeps its own wire format: it names the two payload words
    the core reads (``DESTINATION``, ``LEVEL``) and carries whatever else
    it likes beside them.
    """

    DESTINATION = "destination"
    LEVEL = "level"

    #: The node's routing table; each subclass installs its own.
    table: NeighborTable

    def __init__(self, key: Key) -> None:
        super().__init__(key)
        #: Per-link FIFO flow control: receiver -> queued (kind, payload).
        self.outgoing: Dict[Key, Deque[Tuple[str, dict]]] = {}
        #: Neighbours observed crashed (their link vanished at flush time).
        self.dark: Set[Key] = set()
        #: Hops re-routed around a dark neighbour (repair-cost accounting).
        self.route_arounds = 0
        #: Messages stranded at this node (every remaining candidate dark).
        self.failed = 0
        self._unreported_failures = 0

    def queued(self) -> int:
        """Messages waiting for a free round on some link."""
        return sum(len(bucket) for bucket in self.outgoing.values())

    def _forward(self, kind: str, payload: dict, **update) -> Optional[Key]:
        """Queue ``payload`` on the greedy next hop towards its destination.

        The queued copy carries the level the hop was chosen at plus any
        ``update`` words; returns the hop, or ``None`` when the message
        strands here.  A consistent crash-free topology never strands; with
        crashes this is a failed request (the destination itself is dark).
        """
        next_hop, used_level = self.table.next_hop(
            payload[self.DESTINATION], payload[self.LEVEL], dark=self.dark
        )
        if next_hop is None:
            self.failed += 1
            self._unreported_failures += 1
            return None
        bucket = self.outgoing.get(next_hop)
        if bucket is None:
            bucket = self.outgoing[next_hop] = deque()
        bucket.append((kind, {**payload, self.LEVEL: used_level, **update}))
        return next_hop

    def _flush(self, ctx: RoundContext) -> None:
        """Send at most one queued message per neighbour link this round.

        Liveness is judged by local knowledge only — the node's current
        link set (``ctx.neighbors()``), the CONGEST analogue of a failed
        connection.  A receiver whose link vanished is marked dark and its
        queue re-forwarded through the k-redundant table, from the level
        the dead hop was chosen at.
        """
        if self.outgoing:
            live = ctx.neighbors()
            dark_receivers = [receiver for receiver in self.outgoing if receiver not in live]
            while dark_receivers:
                for receiver in dark_receivers:
                    self.dark.add(receiver)
                    for kind, payload in self.outgoing.pop(receiver):
                        self.route_arounds += 1
                        self._forward(kind, payload)
                # A re-route may have queued onto another dark receiver; the
                # dark set only grows, so this settles.
                dark_receivers = [receiver for receiver in self.outgoing if receiver not in live]
            drained = []
            for receiver, bucket in self.outgoing.items():
                ctx.send(receiver, *bucket.popleft())
                if not bucket:
                    drained.append(receiver)
            for receiver in drained:
                del self.outgoing[receiver]
        if self._unreported_failures:
            ctx.report_failure(self._unreported_failures)
            self._unreported_failures = 0


class _RouterProcess(GreedyForwarder):
    """Forwards ``route`` messages one greedy hop per round.

    Passive (``done``) unless it has requests left to initiate or queued
    outgoing messages; woken by message delivery otherwise.

    Requests may be bare destinations or ``(destination, rid)`` pairs; a
    rid rides the payload (one extra word) and terminal outcomes —
    completion at the destination, stranding at a hole's edge — are
    recorded in the driver-shared ``ledger`` so the failure arena can tell
    an in-flight loss from a delivered or cleanly failed request.
    """

    def __init__(
        self,
        key: Key,
        table: NeighborTable,
        requests: Sequence[Union[Key, Tuple[Key, int]]] = (),
        ledger: Optional[RouteLedger] = None,
    ) -> None:
        super().__init__(key)
        self.table = table
        self.requests: Deque[Union[Key, Tuple[Key, int]]] = deque(requests)
        self.ledger = ledger
        #: Routes that terminated at this node (it was their destination).
        self.completed = 0
        #: Last hop chosen per destination (for path reconstruction under
        #: concurrent routes).
        self.forwards: Dict[Key, Key] = {}
        self.done = not self.requests

    def memory_words(self) -> int:
        return self.table.size_words() + 3 + len(self.requests) + 2 * self.queued() + len(self.dark)

    def on_start(self, ctx: RoundContext) -> None:
        self._act(ctx)

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for message in inbox:
            if message.kind != "route":
                continue
            if self.node_id == message.payload["destination"]:
                self._deliver(message.payload.get("rid"))
            else:
                self._forward("route", message.payload)
        self._act(ctx)

    # One initiation per round plus at most one send per neighbour link.
    def _act(self, ctx: RoundContext) -> None:
        if self.requests:
            item = self.requests.popleft()
            destination, rid = item if isinstance(item, tuple) else (item, None)
            if destination == self.node_id:
                self._deliver(rid)
            else:
                payload = {"destination": destination, "level": self.table.top_level}
                if rid is not None:
                    payload["rid"] = rid
                self._forward("route", payload)
        self._flush(ctx)
        self.done = not (self.requests or self.outgoing)

    def _deliver(self, rid: Optional[int]) -> None:
        self.completed += 1
        self.result = "reached"
        if rid is not None and self.ledger is not None:
            self.ledger.delivered.add(rid)

    def _forward(self, kind: str, payload: dict, **update) -> Optional[Key]:
        hop = super()._forward(kind, payload, **update)
        if hop is not None:
            self.forwards[payload["destination"]] = hop
        elif self.ledger is not None and "rid" in payload:
            self.ledger.failed.add(payload["rid"])
        return hop


def skip_graph_network(graph: SkipGraph, k: int = 1) -> Network:
    """Network with one link per pair of level-adjacent skip graph nodes.

    Every level at which a pair is adjacent is recorded as a label on the
    (single physical) link, so churn rewiring can retract adjacency one
    level at a time (:func:`repro.distributed.bridge.replay_scenario`).

    ``k > 1`` builds the *k-redundant* overlay of the failure arena: every
    pair within list distance ``k`` of each other (per level) is linked,
    with the same ``level<d>`` label, so a route can physically step to
    the next-nearest list member when its primary neighbour crashes.
    """
    if k < 1:
        raise ValueError(f"redundancy k must be >= 1, got {k}")
    network = Network()
    for key in graph.keys:
        network.add_node(key)
    for level in range(graph.height()):
        label = f"level{level}"
        for prefix, members in graph.lists_at_level(level).items():
            # Nodes whose vector ends below the level show up as padded
            # marker lists keyed by their (shorter) full vector: not lists.
            if len(prefix) != level:
                continue
            for distance in range(1, k + 1):
                for u, v in zip(members, members[distance:]):
                    network.add_link(u, v, label=label)
    return network


def _nearest(
    graph: SkipGraph, key: Key, level: int, bits: Tuple[int, ...], k: int
) -> Tuple[List[Key], List[Key]]:
    """``key``'s ``k`` nearest members per side, nearest first, in the list ``bits`` name at ``level``."""
    members = graph.list_at(level, bits[:level])
    index = bisect_left(members, key)
    return members[max(0, index - k) : index][::-1], members[index + 1 : index + 1 + k]


def _link(network: Network, u: Key, v: Key, label: str) -> int:
    """Give the pair ``label`` unless it carries it; the number of labels added."""
    if label in network.labels(u, v):
        return 0
    network.add_link(u, v, label=label)
    return 1


def _close_list(network: Network, label: str, lefts: List[Key], rights: List[Key], k: int) -> int:
    """Close a list up over a member that left it; returns the labels added.

    ``lefts`` / ``rights`` are its former flanks: the pair ``i`` and ``j``
    places out now sits ``i + j + 1`` apart, and every pair within ``k``
    carries the label.  Leaving only shrinks distances: no pair loses one.
    """
    added = 0
    for i, left in enumerate(lefts):
        for right in rights[: k - i]:
            added += _link(network, left, right, label)
    return added


def _open_list(network: Network, key: Key, label: str, lefts: List[Key], rights: List[Key], k: int) -> int:
    """Open a list around ``key``, which just entered it; returns the labels added.

    ``key`` links to its flanks, and a flanking pair that sat exactly ``k``
    apart (``i + j + 1 == k``) sits ``k + 1`` apart now and loses the label.
    Entering only grows survivor distances: no survivor pair gains one.
    """
    added = sum(_link(network, key, neighbor, label) for neighbor in lefts + rights)
    for i, left in enumerate(lefts):
        if k - 1 - i < len(rights):
            network.remove_link(left, rights[k - 1 - i], label=label)
    return added


def _rewire(network: Network, graph: SkipGraph, op: LocalOp, k: int) -> Tuple[Set[Key], int]:
    """Apply ``op`` to ``graph`` and rewire ``network`` to match, at redundancy ``k``.

    The one writer of a live overlay's links: it restores
    ``network == skip_graph_network(graph, k)`` (links *and* level labels)
    for every op kind.  Every list the key leaves
    (:func:`~repro.core.local_ops.op_levels`) is closed up over it — a key
    that stays in the overlay retracts its own links there first — and
    every list it enters is opened around it.  A departing key's node may
    already be gone from ``network`` (a crash removed it), and its flanks
    may name crashed keys the graph mirror still holds — links to those are
    dropped again when their own departure is rewired.

    Returns ``(affected, links added)``: the op's key plus every flank at
    every level touched, and the number of level labels actually added.
    """
    old, new, left, entered = op_levels(graph, op)
    key = op.key
    flanks = [(level, *_nearest(graph, key, level, old, k)) for level in left]
    apply_op(graph, op)
    if new is None:
        if network.has_node(key):
            network.remove_node(key)
    elif old is None:
        network.add_node(key)
    affected: Set[Key] = {key}
    links_added = 0
    for level, lefts, rights in flanks:
        label = f"level{level}"
        affected.update(lefts, rights)
        if new is not None:
            for neighbor in lefts + rights:
                network.remove_link(key, neighbor, label=label)
        links_added += _close_list(network, label, lefts, rights, k)
    for level in entered:
        lefts, rights = _nearest(graph, key, level, new, k)
        affected.update(lefts, rights)
        links_added += _open_list(network, key, f"level{level}", lefts, rights, k)
    return affected, links_added


def repair_crash_links(network: Network, graph: SkipGraph, key: Key, k: int = 1) -> Tuple[Set[Key], int]:
    """Close every list up over crashed ``key`` under redundancy ``k``.

    ``graph`` is the topology mirror that still contains the crashed node
    (the crash removed it from the *network* only — the structural repair
    is exactly this call); the node leaves the graph as a
    :class:`~repro.core.local_ops.NodeLeaveOp` and every level list is
    re-closed so that ``network == skip_graph_network(graph, k)`` holds
    again: pairs whose in-list distance dropped to ``<= k`` when the hole
    closed gain the level's link.

    Returns ``(affected keys, links added)`` — the keys whose
    :class:`NeighborTable` must be refreshed, and the repair cost the
    failure arena charges for the wave.
    """
    affected, links_added = _rewire(network, graph, NodeLeaveOp(key), k)
    affected.discard(key)
    return affected, links_added


def rejoin_crash_links(
    network: Network, graph: SkipGraph, key: Key, bits: Sequence[int], k: int = 1
) -> Tuple[Set[Key], int]:
    """Splice recovered ``key`` back in as a *fresh identity* under redundancy ``k``.

    The inverse of :func:`repair_crash_links`: ``graph`` is the repaired
    topology mirror (the crash's hole already closed up), and the recovered
    key rejoins through the kernel's
    :class:`~repro.core.local_ops.NodeJoinOp` path with *new* membership
    ``bits`` — a fresh identity, never a resurrection of the old tables.
    Every level list the bits reach is re-opened around the key so that
    ``network == skip_graph_network(graph, k)`` holds again: the key links
    to its ``k`` nearest list members per side per level, and a survivor
    pair whose in-list distance grew past ``k`` when the key landed between
    them loses that level's label.

    Returns ``(affected survivor keys, links added)`` — the keys whose
    :class:`NeighborTable` must be refreshed, and the rejoin cost the
    failure arena charges for the wave.
    """
    affected, links_added = _rewire(network, graph, NodeJoinOp(key, tuple(bits)), k)
    affected.discard(key)
    return affected, links_added


def patch_network(network: Network, graph: SkipGraph, op: LocalOp) -> Set[Key]:
    """Execute one local op against ``graph`` and patch ``network`` to match.

    ``graph`` is the topology mirror ``network`` was built from
    (:func:`skip_graph_network`); the op is applied to it and the links are
    rewired *incrementally*, level by level, so that the invariant
    ``network == skip_graph_network(graph)`` (links and labels) holds after
    every op:

    * an insertion (:class:`~repro.core.local_ops.NodeJoinOp` /
      :class:`~repro.core.local_ops.DummyInsertOp`) splices the new node
      into the base list and every level its membership bits reach;
    * a departure (:class:`~repro.core.local_ops.NodeLeaveOp` /
      :class:`~repro.core.local_ops.DummyRemoveOp`) closes every list up
      over the node (its left/right neighbours become adjacent) and drops
      its links;
    * a membership rewrite (:class:`~repro.core.local_ops.PromoteOp` /
      :class:`~repro.core.local_ops.DemoteOp`) closes up the lists the node
      leaves (levels above the preserved prefix of the old vector) and
      splices it into the lists the new vector reaches.

    Returns the set of keys whose links changed (the op's bounded
    neighbourhood, ``op.key`` included) — what a driver must refresh
    routing tables for.  This is the op-driven alternative to rebuilding
    with :func:`skip_graph_network`: O(affected levels) link mutations per
    op instead of an O(n * height) reconstruction, property-tested equal to
    the rebuild after every op.  An unknown op is a :class:`TypeError`
    raised before anything is touched.
    """
    return _rewire(network, graph, op, 1)[0]


def apply_network_delta(network: Network, graph: SkipGraph, ops: Iterable[LocalOp]) -> Set[Key]:
    """Patch ``network`` (and ``graph``) with a whole local-op plan, in order.

    The bulk form of :func:`patch_network` — what a driver uses to carry a
    built network across a request plan or a churn plan without rebuilding.
    Returns the union of every op's affected neighbourhood.
    """
    affected: Set[Key] = set()
    for op in ops:
        affected |= patch_network(network, graph, op)
    return affected


def networks_equal(network: Network, other: Network) -> bool:
    """Link-for-link equality of two networks, level labels included.

    The check side of the delta-maintenance contract: a network carried by
    :func:`patch_network` must equal a :func:`skip_graph_network` rebuild of
    the same topology.  Lives next to the convention it compares; used by
    the equivalence property tests, ``bench_e15_100k`` and the distributed
    DSG driver's invariant check.
    """
    return network.rows == other.rows


def install_routing(
    simulator: Simulator,
    graph: SkipGraph,
    requests: Mapping[Key, Sequence[Union[Key, Tuple[Key, int]]]] | None = None,
    ledger: Optional[RouteLedger] = None,
) -> Dict[Key, _RouterProcess]:
    """Register a router process per skip graph node on ``simulator``.

    ``requests`` maps source keys to the destinations they initiate (one
    per round, in order); entries may be ``(destination, rid)`` pairs when
    a shared ``ledger`` tracks terminal outcomes.  The simulator's network
    must already contain the skip-graph links (:func:`skip_graph_network`,
    at the redundancy the tables should have); on a reused engine, retire
    the previous generation first (``simulator.retire_all()``).
    """
    requests = requests or {}
    unknown = [key for key in requests if key not in graph]
    if unknown:
        raise ValueError(f"requests from keys not in the graph: {unknown[:5]!r}")
    processes = {
        key: make_router(simulator.network, key, requests.get(key, ()), ledger=ledger) for key in graph.keys
    }
    simulator.add_processes(processes.values())
    return processes


def make_router(
    network: Network,
    key: Key,
    requests: Sequence[Union[Key, Tuple[Key, int]]] = (),
    ledger: Optional[RouteLedger] = None,
) -> _RouterProcess:
    """A router process for ``key`` with a table read off its links in ``network``.

    The one place a router is built: :func:`install_routing` builds every
    router of a generation with it, and churn arenas hand it to
    :func:`~repro.distributed.bridge.replay_scenario` as the process
    factory so joining nodes can route as soon as their initialization
    round has run.
    """
    return _RouterProcess(key, NeighborTable(network.rows[key], key), requests, ledger=ledger)


def trace_route(processes: Mapping[Key, _RouterProcess], source: Key, destination: Key) -> List[Key]:
    """Reconstruct a route's path from per-node forwarding decisions.

    Each router records its last forwarding decision *per destination*, so
    the trace stays correct when several routes (to distinct destinations)
    crossed the same node.  Two concurrent routes to the *same* destination
    share the record — the trace then follows the later decision.
    """
    path = [source]
    current = source
    visited = {source}
    while current != destination:
        current = processes[current].forwards.get(destination)
        if current is None:
            break
        if current in visited:  # pragma: no cover - defensive against cycles
            break
        visited.add(current)
        path.append(current)
    return path


def run_routing_protocol(graph: SkipGraph, source: Key, destination: Key,
                         seed: Optional[int] = None) -> RoutingProtocolResult:
    """Execute the routing protocol and return its measured costs."""
    network = skip_graph_network(graph)
    simulator = Simulator(network, SimulatorConfig(seed=seed, max_rounds=10 * len(graph) + 20))
    processes = install_routing(simulator, graph, {source: [destination]})
    metrics = simulator.run()
    return RoutingProtocolResult(source, destination, trace_route(processes, source, destination), metrics)
