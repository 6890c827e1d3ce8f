"""Broadcast along a linked list (the DSG transformation notification).

Upon a request, ``u`` and ``v`` broadcast a transformation notification to
every node of ``l_alpha`` (Algorithm 1, step 1).  The protocol below floods
the notification along the list links: the initiator sends to both its
neighbours, every receiver forwards away from the direction it heard from.
One hop per round; the message carries the initiator and a constant number
of words per level of payload (the structural engine accounts for the
``O(H_t)``-word payload by charging extra rounds, since CONGEST only allows
``O(log n)`` bits per round).

:func:`install_broadcast` registers the processes on an existing simulator
(the churn arena runs broadcasts over a network whose list links are being
rewired underneath it — a wavefront that reaches a departed neighbour is a
recorded drop, and the coverage count reports how far it got);
:func:`run_list_broadcast` is the one-shot fresh-simulator measurement; it
returns the members reached and the run's ``metrics`` (the engine's
:class:`~repro.simulation.MetricsCollector`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence

from repro.simulation import Message, Network, NodeProcess, RoundContext, Simulator, SimulatorConfig
from repro.simulation.metrics import MetricsCollector

__all__ = ["BroadcastResult", "install_broadcast", "run_list_broadcast"]

Key = Hashable


@dataclass
class BroadcastResult:
    """Outcome of one list broadcast; ``metrics`` holds the run's traffic."""

    initiator: Key
    reached: List[Key]
    metrics: MetricsCollector


class _BroadcastProcess(NodeProcess):
    def __init__(self, key: Key, left: Optional[Key], right: Optional[Key], is_initiator: bool) -> None:
        super().__init__(key)
        self.left = left
        self.right = right
        self.is_initiator = is_initiator
        self.received = is_initiator
        self.done = not is_initiator

    def memory_words(self) -> int:
        return 4

    def on_start(self, ctx: RoundContext) -> None:
        if not self.is_initiator:
            return
        for neighbor in (self.left, self.right):
            if neighbor is not None:
                ctx.send(neighbor, "notify", {"from": self.node_id})
        self.done = True

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for message in inbox:
            if message.kind != "notify" or self.received:
                continue
            self.received = True
            sender = message.sender
            forward = self.right if sender == self.left else self.left
            if forward is not None:
                ctx.send(forward, "notify", {"from": self.node_id})
        self.done = True


def install_broadcast(
    simulator: Simulator, members: Sequence[Key], initiator: Key
) -> Dict[Key, _BroadcastProcess]:
    """Register broadcast processes for the (ordered) list ``members``.

    The simulator's network must contain the consecutive list links.  On a
    reused engine, retire the previous generation first.
    """
    members = list(members)
    if initiator not in members:
        raise ValueError("the initiator must be a member of the list")
    processes: Dict[Key, _BroadcastProcess] = {}
    for index, key in enumerate(members):
        left = members[index - 1] if index > 0 else None
        right = members[index + 1] if index + 1 < len(members) else None
        process = _BroadcastProcess(key, left, right, is_initiator=(key == initiator))
        processes[key] = process
        simulator.add_process(process)
    return processes


def run_list_broadcast(members: Sequence[Key], initiator: Key, seed: Optional[int] = None) -> BroadcastResult:
    """Broadcast from ``initiator`` to every member of the (ordered) list."""
    members = list(members)
    network = Network()
    for key in members:
        network.add_node(key)
    for left, right in zip(members, members[1:]):
        network.add_link(left, right, label="list")

    simulator = Simulator(network, SimulatorConfig(seed=seed, max_rounds=4 * len(members) + 10))
    processes = install_broadcast(simulator, members, initiator)
    metrics = simulator.run()
    reached = [key for key, process in processes.items() if process.received]
    return BroadcastResult(initiator, reached, metrics)
