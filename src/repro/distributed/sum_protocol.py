"""Distributed sum over a balanced skip list, as a message-passing protocol.

Appendix D: each node forwards its number to the nearest neighbour that
stepped up to the next level; receivers add and forward upward recursively;
the root broadcasts the total back down.  The protocol runs over the
*segment tree* induced by a :class:`repro.skiplist.BalancedSkipList` — every
node's parent is the promoted node owning its segment at the lowest level
where the node itself stops being promoted.  Each message carries one
partial sum (one word).

The processes are fully message-driven: a node is passive (``done``) from
the start and acts only when partials or the total arrive, so the engine's
active set stays proportional to the messages in flight rather than the
population — the convergecast over 4096 leaves costs O(n) process
invocations total, not O(n * rounds).

:func:`segment_tree` computes the tree once (parents, children and each
node's top level) for both this protocol and the message-level AMF;
:func:`install_sum` rejects a value map that misses an item before it
registers any process.  :func:`run_sum_protocol` returns the total,
whether every node received it, and the run's ``metrics`` (the engine's
:class:`~repro.simulation.MetricsCollector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.simulation import Message, Network, NodeProcess, RoundContext, Simulator, SimulatorConfig
from repro.simulation.metrics import MetricsCollector
from repro.skiplist.balanced import BalancedSkipList

__all__ = ["SumProtocolResult", "install_sum", "run_sum_protocol", "segment_tree"]

Key = Hashable


@dataclass
class SumProtocolResult:
    """Outcome of one aggregation; ``metrics`` holds the run's traffic."""

    total: float
    received_by_all: bool
    metrics: MetricsCollector


def segment_tree(
    skiplist: BalancedSkipList,
) -> Tuple[Dict[Key, Optional[Key]], Dict[Key, List[Key]], Dict[Key, int]]:
    """Parent, children and top level of every item in the aggregation tree.

    A node's parent is the owner of its segment at the highest level the
    node itself reaches (its top level); the root (left-most node) has
    parent ``None`` and tops the skip list.  Children are listed in list
    order.  The tree has depth ``height - 1`` and fan-in at most ``2a``.
    """
    base = skiplist.levels[0]
    parents: Dict[Key, Optional[Key]] = dict.fromkeys(base)
    children: Dict[Key, List[Key]] = {item: [] for item in base}
    top = {skiplist.root: skiplist.height - 1}
    for level in range(skiplist.height - 1):
        promoted_next = set(skiplist.levels[level + 1])
        for owner, members in skiplist.segments(level):
            for member in members:
                if member not in promoted_next:
                    parents[member] = owner
                    children[owner].append(member)
                    top[member] = level
    return parents, children, top


def _require_values(skiplist: BalancedSkipList, values: Mapping[Key, float]) -> None:
    """Raise before any process is registered if an item has no value."""
    missing = [item for item in skiplist.levels[0] if item not in values]
    if missing:
        raise ValueError(f"missing values for items: {missing[:5]!r}")


class _SumProcess(NodeProcess):
    def __init__(self, key: Key, value: float, parent: Optional[Key], children: List[Key]) -> None:
        super().__init__(key)
        self.value = float(value)
        self.parent = parent
        self.children = list(children)
        self.pending = set(children)
        self.accumulated = float(value)
        self.total: Optional[float] = None
        self.sent_up = False
        # Message-driven: passive throughout, woken by partials / the total.
        self.done = True

    def memory_words(self) -> int:
        return 5 + len(self.children)

    def _maybe_send_up(self, ctx: RoundContext) -> None:
        if self.pending or self.sent_up:
            return
        if self.parent is None:
            self.total = self.accumulated
            for child in self.children:
                ctx.send(child, "total", self.total)
            self.sent_up = True
        else:
            ctx.send(self.parent, "partial", self.accumulated)
            self.sent_up = True

    def on_start(self, ctx: RoundContext) -> None:
        self._maybe_send_up(ctx)

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for message in inbox:
            if message.kind == "partial":
                self.accumulated += message.payload
                self.pending.discard(message.sender)
            elif message.kind == "total":
                self.total = message.payload
                for child in self.children:
                    ctx.send(child, "total", self.total)
        self._maybe_send_up(ctx)


def install_sum(
    simulator: Simulator,
    skiplist: BalancedSkipList,
    values: Mapping[Key, float],
) -> Dict[Key, _SumProcess]:
    """Register sum processes over ``skiplist``'s segment tree.

    The simulator's network must contain one link per (child, parent) pair
    of :func:`segment_tree` (label ``"segment"``); on a reused engine,
    retire the previous generation first.
    """
    _require_values(skiplist, values)
    parents, children, _ = segment_tree(skiplist)
    processes: Dict[Key, _SumProcess] = {}
    for item in skiplist.levels[0]:
        process = _SumProcess(item, values[item], parents[item], children[item])
        processes[item] = process
        simulator.add_process(process)
    return processes


def segment_network(skiplist: BalancedSkipList) -> Network:
    """Network with one link per (child, parent) pair of the segment tree."""
    network = Network()
    for item in skiplist.levels[0]:
        network.add_node(item)
    parents, _, _ = segment_tree(skiplist)
    for child, parent in parents.items():
        if parent is not None:
            network.add_link(child, parent, label="segment")
    return network


def run_sum_protocol(
    skiplist: BalancedSkipList,
    values: Mapping[Key, float],
    seed: Optional[int] = None,
) -> SumProtocolResult:
    """Aggregate ``values`` over the skip list's segment tree."""
    network = segment_network(skiplist)
    simulator = Simulator(
        network, SimulatorConfig(seed=seed, max_rounds=20 * skiplist.height + 10 * len(skiplist.levels[0]))
    )
    processes = install_sum(simulator, skiplist, values)
    metrics = simulator.run()

    root_total = processes[skiplist.root].total
    return SumProtocolResult(
        total=float(root_total if root_total is not None else 0.0),
        received_by_all=all(process.total == root_total for process in processes.values()),
        metrics=metrics,
    )
