"""The synchronous round engine.

The engine repeatedly executes *rounds*.  In each round:

1. scheduled callbacks for the round run (churn injection: network
   mutation, process joins/retirements);
2. messages enqueued during the previous round are delivered to their
   receivers' inboxes (a message sent in round ``r`` is received in round
   ``r + 1``, as in the standard synchronous model);
3. every *active* process is invoked with its inbox and may enqueue new
   messages;
4. the CONGEST constraint is checked: at most one message per directed link
   per round.  In strict mode a violation raises
   :class:`~repro.simulation.errors.CongestionError`; in lenient mode the
   excess messages are deferred FIFO to the next round and the violation is
   recorded in the metrics (useful for measuring how far a protocol is from
   conformance).

Messages may only travel over links present in the :class:`Network` at
*send time*: sending to a non-neighbour raises :class:`LinkError` (strict
mode) or drops the message with a recorded drop (lenient mode).  A link
that disappears while a message is in flight — churn removed it between
send and delivery — is never an error: the send was legal, so the message
is dropped and counted in ``dropped_messages`` in both modes.  Drops are
accounted separately from CONGEST violations so that conformance checks
(E11's "violations must be zero") stay meaningful under churn.

Hot path: the engine maintains an *active set* — processes that are not
``done`` plus the receivers of this round's deliveries — instead of
scanning every registered process each round.  A quiescent 4096-node
population costs nothing while a single token walks across it.  Work
handed to a process between rounds goes through :meth:`Simulator.wake`
(O(1)); a round that runs :meth:`Simulator.schedule` callbacks sweeps
every process, so callbacks are for churn, not for handing out work.

Process lifecycle (churn):

* **start** — every registered process is queued for
  :meth:`~NodeProcess.on_start`, and one helper starts the queue.  The
  initial population, and a fresh generation installed on a quiesced
  engine, start between rounds (sends delivered in the next executed
  round).
* **join** — a process registered while the run is under way (typically
  from a :meth:`Simulator.schedule` callback) starts at the beginning of
  the next executed round, its initialization round, with sends delivered
  the round after.
* **retire** — :meth:`Simulator.retire` removes a process from the live
  set and hands it back to the caller; the engine keeps nothing of it.
  Removing a node from the network retires its process automatically at
  the next round boundary, so runs quiesce under departures instead of
  waiting forever on a process that can no longer act.  Graceful
  retirement — explicit or auto — fires :meth:`NodeProcess.on_retire`
  once.
* **crash** — :meth:`Simulator.crash` is the crash-stop failure op: the
  node's links go dark immediately, in-flight messages to it become
  counted drops, its process is removed *without* the ``on_retire``
  callback, and the node is banned from re-entering (``add_process``
  rejects it).  A crash is distinguishable from a leave precisely by the
  missing goodbye.
* **recover** — :meth:`Simulator.recover` lifts the re-entry ban so a
  crashed node may rejoin as a *fresh identity* through the normal join
  path (new membership bits, new process, new links); nothing of the
  pre-crash state is restored by the engine itself.

Churn and other externally driven events are injected with
:meth:`Simulator.schedule`: a callback registered for round ``r`` runs at
the very start of that round, before deliveries, and may mutate the network
(add/remove nodes and links) and register new processes.  This is the
engine-level counterpart of the workload-level scenario schedules in
:mod:`repro.workloads.scenarios`: :func:`repro.distributed.bridge.replay_scenario`
translates a :class:`~repro.workloads.scenarios.Scenario`'s join/leave
events into these callbacks plus skip-graph link rewiring.

The engine stops when every live process reports ``done``, no messages are
in flight and no scheduled events or pending starts remain; exceeding the
round budget raises ``SimulationError``.  :meth:`Simulator.run` may be
called again after quiescence — installing fresh processes (after retiring
the previous ones) replays another protocol on the same engine and network,
which is how the churn arenas rerun protocols across membership changes.
:meth:`Simulator.reset_metrics` before the replay gives it counters of its
own; the engine keeps run totals and live processes only, so its state
grows neither with the rounds executed nor with the processes that left.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Deque, Dict, Hashable, Iterable, List, Optional, Union

from repro.simulation.errors import CongestionError, LinkError, SimulationError
from repro.simulation.message import Message
from repro.simulation.metrics import MetricsCollector
from repro.simulation.network import Network
from repro.simulation.node_process import NodeProcess, RoundContext
from repro.simulation.rng import make_rng, spawn_seed

__all__ = ["Simulator", "SimulatorConfig"]


@dataclass
class SimulatorConfig:
    """Configuration of a :class:`Simulator` run.

    Attributes
    ----------
    max_rounds:
        Round budget per :meth:`Simulator.run` call (safety net against
        livelock).  On a reused engine the budget applies to each call, not
        to the engine's absolute round counter.
    strict:
        If ``True`` a CONGEST violation and a send over a missing link both
        raise; otherwise excess messages are deferred FIFO and counted, and
        a send over a missing link is dropped and counted as a drop.  Links
        removed *after* a legal send drop the in-flight message in both
        modes (recorded, never raised).
    seed:
        Seed for the per-node RNGs.  Each process's child seed is drawn
        from one root stream when it is registered; its generator is built
        from that seed when ``ctx.rng`` is first read.
    """

    max_rounds: int = 100_000
    strict: bool = True
    seed: Optional[int] = None


class Simulator:
    """Synchronous message-passing simulator over a :class:`Network`."""

    def __init__(self, network: Network, config: Optional[SimulatorConfig] = None) -> None:
        self.network = network
        self.config = config or SimulatorConfig()
        self.metrics = MetricsCollector()
        self._processes: Dict[Hashable, NodeProcess] = {}
        # Per live process: its child seed until ctx.rng is first read,
        # then the generator built from it.
        self._rngs: Dict[Hashable, Union[str, random.Random]] = {}
        self._pending: List[Message] = []  # sent this round, delivered next round
        self._deferred: Deque[Message] = deque()  # congestion overflow (lenient mode)
        self._scheduled: Dict[int, List[Callable[["Simulator"], None]]] = defaultdict(list)
        self._root_rng = make_rng(self.config.seed)
        self._round = 0
        self._started = False
        # Ordered set of processes that are not done (the self-driven half of
        # the active set; the other half is this round's delivery receivers).
        self._not_done: Dict[Hashable, None] = {}
        # Registered processes awaiting their on_start, in registration order.
        self._pending_start: List[Hashable] = []
        # Crash-stop failures: nodes killed by crash() can never re-enter.
        self._crashed: set = set()

    # ----------------------------------------------------------------- setup
    def add_process(self, process: NodeProcess) -> None:
        """Register ``process`` for its node; the node must exist in the network.

        Before the run starts the process joins the initial population and
        receives :meth:`~NodeProcess.on_start` with everyone else.  After
        the run has started (a churn join, typically from a
        :meth:`schedule` callback) the process is queued and receives
        ``on_start`` at the beginning of the next executed round — its
        initialization round — with sends delivered the round after.
        """
        node = process.node_id
        if node in self._crashed:
            raise SimulationError(f"node {node!r} crashed and cannot re-enter the simulation")
        if not self.network.has_node(node):
            raise LinkError(f"node {node!r} is not part of the network")
        if node in self._processes:
            raise SimulationError(f"node {node!r} already has a process")
        self._processes[node] = process
        self._rngs[node] = spawn_seed(self._root_rng, label=repr(node))
        if not process.done:
            self._not_done[node] = None
        self._pending_start.append(node)

    def add_processes(self, processes: Iterable[NodeProcess]) -> None:
        for process in processes:
            self.add_process(process)

    def retire(self, node: Hashable) -> NodeProcess:
        """Remove the process of ``node`` from the live population.

        The departed process no longer counts towards quiescence and is no
        longer invoked; messages still in flight towards its node are
        dropped (and recorded) when their links disappear or when delivery
        finds no process.  The process is returned and the engine keeps no
        reference to it.  The node may re-join later with a fresh process.

        This is the *graceful* departure path: the departing process gets
        its :meth:`~NodeProcess.on_retire` goodbye.  Crash-stop failures go
        through :meth:`crash`, which never fires the hook.
        """
        process = self._remove_process(node)
        process.on_retire()
        return process

    def _remove_process(self, node: Hashable) -> NodeProcess:
        """Shared teardown of retire/crash: unregister without callbacks."""
        process = self._processes.pop(node, None)
        if process is None:
            raise SimulationError(f"node {node!r} has no live process to retire")
        self._not_done.pop(node, None)
        self._rngs.pop(node, None)
        if node in self._pending_start:
            # Retired before its initialization round: a later re-join must
            # not inherit the stale queue entry (it would start twice).
            self._pending_start = [queued for queued in self._pending_start if queued != node]
        return process

    def crash(self, node: Hashable) -> Optional[NodeProcess]:
        """Kill ``node`` crash-stop: links dark, no goodbye, no re-entry.

        The node is marked crashed *before* it leaves the network, so the
        auto-retire sweep (:meth:`_sync_after_callbacks`) can never mistake
        it for a graceful departure and fire ``on_retire``.  All incident
        links are removed with the node; messages in flight towards it are
        dropped and counted (``dropped_messages``) at the next delivery
        plan, exactly like churn-induced losses — a crash is never a
        :class:`LinkError`.  The process (``None`` if the node had none) is
        returned and not kept; the engine keeps only the node's key in the
        crashed set, and :meth:`add_process` rejects the node until
        :meth:`recover` lifts the ban.
        """
        if node in self._crashed:
            raise SimulationError(f"node {node!r} already crashed")
        self._crashed.add(node)
        process = self._processes.get(node)
        if process is not None:
            self._remove_process(node)
        if self.network.has_node(node):
            self.network.remove_node(node)
        return process

    def recover(self, node: Hashable) -> None:
        """Lift the re-entry ban of crashed ``node``: it may rejoin *fresh*.

        Recovery is deliberately minimal — it only removes ``node`` from the
        crashed set, so the next :meth:`add_process` for it is accepted
        again.  Nothing of the pre-crash identity survives: the node is not
        re-added to the network (the caller rewires it through its normal
        join path, e.g. a ``NodeJoinOp`` with freshly drawn membership
        bits), no process of it was kept, and a recovered node may later
        crash again.  Recovering a node that is not crashed raises — a
        recovery without a preceding crash is a driver bug, not a no-op.
        """
        if node not in self._crashed:
            raise SimulationError(f"node {node!r} is not crashed; nothing to recover")
        self._crashed.discard(node)

    def retire_all(self) -> None:
        """Retire every live process (protocol teardown on a reused engine)."""
        for node in list(self._processes):
            self.retire(node)

    def process(self, node: Hashable) -> NodeProcess:
        return self._processes[node]

    def wake(self, node: Hashable) -> None:
        """Invoke ``node``'s process next round unless it is ``done``: the O(1)
        way to hand a live process work between rounds.  Raises for a node
        with no live process, and before the first start, whose ``on_start``
        would act on the work one round early.
        """
        if not self._started:
            raise SimulationError(f"cannot wake {node!r} before the engine has started")
        process = self._processes.get(node)
        if process is None:
            raise SimulationError(f"node {node!r} has no live process to wake")
        if not process.done:
            self._not_done[node] = None

    def schedule(self, round_index: int, callback: Callable[["Simulator"], None]) -> None:
        """Register ``callback`` to run at the start of round ``round_index``.

        The callback receives the simulator and runs before that round's
        deliveries are planned, so it may inject churn: mutate the network,
        add processes (:meth:`add_process`) for joining nodes, or
        :meth:`retire` processes of departing nodes (removing the node from
        the network retires its process automatically).  Rounds with pending
        events count as activity — the run does not quiesce while scheduled
        events remain.
        """
        if round_index < self._round:
            raise SimulationError(
                f"cannot schedule an event for round {round_index}; the "
                f"simulation is already at round {self._round}"
            )
        self._scheduled[round_index].append(callback)

    @property
    def processes(self) -> Dict[Hashable, NodeProcess]:
        return dict(self._processes)

    @property
    def crashed(self) -> "frozenset":
        """Nodes killed by :meth:`crash`; banned from re-entry until :meth:`recover`."""
        return frozenset(self._crashed)

    @property
    def round(self) -> int:
        return self._round

    def reset_metrics(self) -> MetricsCollector:
        """Install a fresh :class:`MetricsCollector` and return the old one.

        A replay on a reused engine calls this before :meth:`run` to count
        only its own rounds and traffic (``rounds`` equals :attr:`round` on
        an engine never reset).
        """
        previous, self.metrics = self.metrics, MetricsCollector()
        return previous

    # ------------------------------------------------------------------- run
    def run(self, max_rounds: Optional[int] = None) -> MetricsCollector:
        """Run until quiescence (all processes done, no messages in flight).

        ``max_rounds`` (default: the config's) is a budget for *this call*,
        so a reused engine gets a fresh budget for every protocol replay.
        """
        budget = max_rounds if max_rounds is not None else self.config.max_rounds
        limit = self._round + budget
        if not self._started or (self._pending_start and not self._in_flight()):
            # The initial population, or a fresh protocol generation installed
            # on a quiesced engine: on_start outside the rounds, sends
            # delivered in the next executed round, so a rerun reproduces a
            # fresh simulator round for round.
            self._start_between_rounds()
        while not self._quiescent():
            if self._round >= limit:
                raise SimulationError(
                    f"simulation did not terminate within {budget} rounds "
                    f"({self._in_flight()} messages in flight)"
                )
            self.step()
        return self.metrics

    def step(self) -> None:
        """Execute exactly one synchronous round."""
        if not self._started:
            self._start_between_rounds()
        # Drain in a loop so a callback scheduling another event for the
        # *current* round still gets it executed this round.
        pending = self._scheduled.pop(self._round, [])
        ran_callbacks = bool(pending)
        while pending:
            for callback in pending:
                callback(self)
            pending = self._scheduled.pop(self._round, [])
        if ran_callbacks:
            self._sync_after_callbacks()
        self.metrics.record_round()

        deliveries, self._deferred = self._plan_deliveries()
        self._pending = []

        outbox_sink: List[Message] = []

        # Initialization round of churn joiners: on_start now, sends
        # delivered next round, regular on_round from the round after.
        # A starter is never invoked twice in its first round — deliveries
        # addressed to it were already dropped by `_plan_deliveries` (they
        # were sent before the process existed).
        started_now = ()
        if self._pending_start:
            starters, self._pending_start = self._pending_start, []
            started_now = self._start(starters, outbox_sink)

        for node in self._active_nodes(deliveries):
            if node in started_now:
                continue
            process = self._processes.get(node)
            if process is None:
                continue
            inbox = deliveries.get(node)
            if process.done and not inbox:
                continue
            process.on_round(self._context(node, outbox_sink), inbox or [])
            self._after_invoke(node, process)

        self._pending.extend(self._validate_outbox(outbox_sink))
        # A process handler may have scheduled an event for the round that
        # just ran (its callbacks were already drained); carry it over to the
        # next round instead of stranding it, which would block quiescence.
        leftovers = self._scheduled.pop(self._round, None)
        self._round += 1
        if leftovers:
            self._scheduled[self._round] = leftovers + self._scheduled.get(self._round, [])

    # -------------------------------------------------------------- internals
    def _context(self, node: Hashable, outbox_sink: List[Message]) -> RoundContext:
        return RoundContext(
            node_id=node,
            round_index=self._round,
            neighbors=self.network.rows.get(node, ()),
            rng_fn=self._rng,
            send_fn=outbox_sink.append,
            report_failure_fn=self.metrics.record_failure,
        )

    def _rng(self, node: Hashable) -> random.Random:
        """``node``'s generator, built from its registration seed on first read."""
        rng = self._rngs[node]
        if isinstance(rng, str):
            rng = self._rngs[node] = random.Random(rng)
        return rng

    def _after_invoke(self, node: Hashable, process: NodeProcess) -> None:
        if process.done:
            self._not_done.pop(node, None)
        else:
            self._not_done[node] = None
        words = process.memory_words()
        if words is not None:
            self.metrics.record_memory(node, words)

    def _active_nodes(self, deliveries: Dict[Hashable, List[Message]]) -> List[Hashable]:
        """This round's invocation list: delivery receivers, then the rest of
        the not-done set — both in deterministic (insertion) order."""
        active = list(deliveries)
        active.extend(node for node in self._not_done if node not in deliveries)
        return active

    def _sync_after_callbacks(self) -> None:
        """Re-establish invariants after churn callbacks mutated the world.

        Retires orphaned processes (their node left the network — e.g. a
        callback called ``Network.remove_node`` directly), so departures
        can never block quiescence, and rebuilds the not-done set in case a
        callback flipped ``done`` flags.  Runs only on rounds that executed
        callbacks, so the quiescent-path cost stays proportional to the
        active set.
        """
        orphans = []
        self._not_done = {}
        rows = self.network.rows
        for node, process in self._processes.items():
            if node not in rows:
                orphans.append(node)
            elif not process.done:
                self._not_done[node] = None
        for node in orphans:
            self.retire(node)

    def _start(self, nodes: List[Hashable], outbox: List[Message]) -> set:
        """Run ``on_start`` for every still-registered process among ``nodes``;
        returns the nodes started."""
        started = set()
        for node in nodes:
            process = self._processes.get(node)
            if process is None:  # retired before it ever started
                continue
            process.on_start(self._context(node, outbox))
            started.add(node)
            self._after_invoke(node, process)
        return started

    def _start_between_rounds(self) -> None:
        outbox: List[Message] = []
        self._started = True
        starters, self._pending_start = self._pending_start, []
        self._start(starters, outbox)
        self._pending.extend(self._validate_outbox(outbox))

    def _validate_outbox(self, outbox: List[Message]) -> List[Message]:
        """Send-time validation: link existence.

        Links are checked here — when the message is sent — as the model
        prescribes; a message that passes and loses its link before
        delivery is a recorded drop, never an error (see
        :meth:`_plan_deliveries`).  Returns the accepted messages.
        """
        accepted: List[Message] = []
        for message in outbox:
            if not self.network.has_link(message.sender, message.receiver):
                if self.config.strict:
                    raise LinkError(
                        f"message {message.kind!r}: no link "
                        f"{message.sender!r} -> {message.receiver!r}"
                    )
                self.metrics.record_drop()
                continue
            accepted.append(message)
        return accepted

    def _plan_deliveries(self) -> "tuple[Dict[Hashable, List[Message]], Deque[Message]]":
        """Decide which queued messages are delivered this round.

        Enforces the CONGEST constraint per directed link, draining the
        congestion backlog FIFO (deferred messages go first, in the order
        they were deferred).  Messages whose link vanished in flight, or
        whose receiver no longer runs a process, are dropped and recorded —
        the send was validated when it happened, so churn-induced losses
        are data, not errors.  Returns the delivery map and the deque of
        messages deferred to the next round.
        """
        deliveries: Dict[Hashable, List[Message]] = {}
        deferred: Deque[Message] = deque()
        used_links = set()
        # Processes queued for their initialization round are not receivers
        # yet: a message addressed to one was sent before it existed, so it
        # drops like any other delivery to a process-less node.
        starting = set(self._pending_start)

        for message in chain(self._deferred, self._pending):
            sender, receiver = message.sender, message.receiver
            if (
                not self.network.has_link(sender, receiver)
                or receiver not in self._processes
                or receiver in starting
            ):
                self.metrics.record_drop()
                continue
            key = (sender, receiver)
            if key in used_links:
                if self.config.strict:
                    raise CongestionError(
                        f"more than one message on link {sender!r} -> {receiver!r} "
                        f"in round {self._round}"
                    )
                self.metrics.record_congestion()
                deferred.append(message)
                continue
            used_links.add(key)
            deliveries.setdefault(receiver, []).append(message)
            self.metrics.record_message(message.size_bits)
        return deliveries, deferred

    def _in_flight(self) -> int:
        return len(self._pending) + len(self._deferred)

    def _quiescent(self) -> bool:
        if self._pending or self._deferred:
            return False
        if self._scheduled or self._pending_start:
            return False
        return not self._not_done
