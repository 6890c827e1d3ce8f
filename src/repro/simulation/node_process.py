"""Per-node protocol processes and the round context API.

A :class:`NodeProcess` encapsulates the protocol state machine of one node.
Each round the simulator delivers the messages addressed to the node during
the previous round and calls :meth:`NodeProcess.on_round` with a
:class:`RoundContext` that exposes:

* ``ctx.send(receiver, kind, payload)`` --- enqueue one message for delivery
  next round (subject to the CONGEST per-link constraint),
* ``ctx.round`` --- the current round index,
* ``ctx.neighbors()`` --- the node's current neighbours in the network,
* ``ctx.rng`` --- a node-local deterministic RNG,
* ``ctx.report_memory(words)`` --- report the node's current state size so
  that the ``O(log n)``-memory claim can be audited (experiment E11),
* ``ctx.report_failure()`` --- declare one protocol-level request failed
  (counted as ``failed_requests``, distinct from per-message drops; used by
  the crash-stop failure arena when a route runs out of live hops).

Processes signal completion by setting :attr:`NodeProcess.done`; the
simulator stops when every process is done and no message is in flight.

``done`` doubles as the *activity* flag: the engine only invokes a done
process when its inbox is non-empty, so message-driven processes should
stay ``done = True`` while passively waiting (they are woken by delivery)
and set ``done = False`` only while they have self-driven work pending —
e.g. an outbox they stream one entry per round from.  Keeping waiters
passive is what lets the engine's active-set hot path skip them entirely.

Lifecycle under churn: a process registered after the run started (a join
injected by ``Simulator.schedule``) receives :meth:`NodeProcess.on_start`
at the beginning of its first round; a process retired by churn (its node
left the network, or ``Simulator.retire`` was called) is never invoked
again but keeps its ``result`` readable.

Graceful retirement fires :meth:`NodeProcess.on_retire` exactly once so a
protocol can hand off state; a *crash* (``Simulator.crash``) never does —
a crashed node gets no goodbye, which is the whole point of the
crash-stop failure model.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Collection, Hashable, List, Optional, Set

from repro.simulation.message import Message

__all__ = ["NodeProcess", "RoundContext"]


class RoundContext:
    """Interface a process uses to interact with the world during one round."""

    def __init__(
        self,
        node_id: Hashable,
        round_index: int,
        neighbors: Collection[Hashable],
        rng: random.Random,
        send_fn: Callable[[Message], None],
        report_memory_fn: Callable[[Hashable, int], None],
        report_failure_fn: Optional[Callable[[Any, int], None]] = None,
        stats: Any = None,
    ) -> None:
        self._node_id = node_id
        self._round_index = round_index
        self._neighbors = neighbors
        self._rng = rng
        self._send_fn = send_fn
        self._report_memory_fn = report_memory_fn
        self._report_failure_fn = report_failure_fn
        self._stats = stats  # the executing round's record, for report_failure_fn

    @property
    def node_id(self) -> Hashable:
        return self._node_id

    @property
    def round(self) -> int:
        return self._round_index

    @property
    def rng(self) -> random.Random:
        return self._rng

    def neighbors(self) -> Set[Hashable]:
        """Current neighbours of this node in the underlying network (a fresh
        snapshot of the node's live network row per call)."""
        return set(self._neighbors)

    def send(self, receiver: Hashable, kind: str, payload: Any = None) -> None:
        """Enqueue a message for delivery at the beginning of the next round."""
        self._send_fn(Message(sender=self._node_id, receiver=receiver, kind=kind, payload=payload))

    def report_memory(self, words: int) -> None:
        """Report the current size of the node's protocol state in words."""
        self._report_memory_fn(self._node_id, words)

    def report_failure(self, count: int = 1) -> None:
        """Declare ``count`` protocol-level requests failed this round."""
        if self._report_failure_fn is not None:
            self._report_failure_fn(self._stats, count)


class NodeProcess:
    """Base class for protocol logic executed by one node.

    Subclasses override :meth:`on_round` (and optionally :meth:`on_start`).
    """

    def __init__(self, node_id: Hashable) -> None:
        self.node_id = node_id
        #: Set to ``True`` when the process has terminated locally.
        self.done: bool = False
        #: Optional protocol-level output collected by the caller at the end.
        self.result: Any = None

    def on_start(self, ctx: RoundContext) -> None:
        """Called once before round 0 messages are exchanged."""

    def on_retire(self) -> None:
        """Called when the node retires *gracefully* (leave, not crash).

        The engine fires this from ``Simulator.retire`` and from the
        auto-retire sweep that follows a churn callback removing the node
        from the network.  ``Simulator.crash`` deliberately skips it: a
        crashed node must not get a chance to hand off state.
        """

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        """Called every round with the messages delivered this round."""
        raise NotImplementedError

    def memory_words(self) -> Optional[int]:
        """Return the node state size in words, or ``None`` if not tracked.

        Subclasses that want automatic per-round memory auditing override
        this; the simulator calls it after every round.
        """
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(node_id={self.node_id!r}, done={self.done})"
