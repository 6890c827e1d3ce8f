"""Self-adjusting DSG as a message-passing protocol on the CONGEST simulator.

This is the distributed execution of the local-operation kernel
(:mod:`repro.core.local_ops`): the same restructuring plans the centralized
:class:`~repro.core.dsg.DynamicSkipGraph` applies in one pass are carried
out by per-node processes exchanging ``O(log n)``-bit messages over the
skip-graph overlay.  One driver (:class:`DistributedDSG`) takes every
request through the same four steps:

1. **Plan** — the request's local-op sequence comes from the *planner* (a
   :class:`~repro.core.dsg.DynamicSkipGraph` over the same key population
   and seed): the per-node decisions of Algorithm 1 — priorities, AMF
   medians, group splits — whose round costs the plan already carries
   (``transformation_rounds``, the ``ρ`` term of Equation 1).
2. **Route** — the source's :class:`DSGProcess` forwards a ``route`` message
   greedily towards the destination, one hop per round, through the
   forwarding core it shares with the multi-request router
   (:class:`~repro.distributed.routing_protocol.GreedyForwarder`); the hop
   count measured at the destination is the request's routing distance
   ``d_{S_t}(σ_t)``.
3. **Execute** — the source disseminates the ops as ``op`` messages, each a
   flat payload of O(1) words (:func:`~repro.core.local_ops.op_to_payload`)
   greedily routed to its anchor (:func:`~repro.core.local_ops.op_anchor`):
   a node receiving a promote/demote rewrites its own membership bits, a
   dummy receiving its destruction notice destroys itself (Section IV-F),
   and an insertion is executed by the new key's base-list predecessor.
   Outgoing traffic is flow-controlled per link, so the protocol is
   CONGEST-conformant *by construction* — zero congestion violations.
4. **Rewire** — once the last op has landed, each executed op drives
   per-level link rewiring of the live network through
   :func:`~repro.distributed.bridge.apply_local_op` (the same bridge churn
   replay uses), and every peer in the op's bounded neighbourhood reads a
   fresh routing table off its own rewired links.

Churn (:class:`~repro.workloads.scenarios.JoinEvent` /
:class:`~repro.workloads.scenarios.LeaveEvent`) follows the PR-3 bridge
convention: the planner's Section IV-G plan (``last_churn_ops``) is applied
structurally in arrival order — joins install fresh processes via the
``install_*`` pattern, leaves retire them.

The keystone guarantee, proven by ``tests/distributed/test_dsg_protocol.py``
and asserted at 4096 nodes by ``benchmarks/bench_e17_pipeline.py`` (every
window, and its ``churn`` row at window 1):
on the same request sequence (with or without churn) the distributed
protocol reaches the **same topology** as the centralized
``DynamicSkipGraph`` (op replay is exact) and charges the **same total
cost** (the measured hop count equals the planner's routing distance for
every request), with zero congestion violations and every message within
the ``c * log2 n`` bit budget.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.costs import CostLedger, RequestCost
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import (
    DemoteOp,
    DummyInsertOp,
    DummyRemoveOp,
    LocalOp,
    NodeJoinOp,
    NodeLeaveOp,
    PromoteOp,
    # Unused here: the name the spine's tracer rebinds, kept importable.
    apply_ops_touched,  # noqa: F401
    op_anchor,
    op_from_payload,
    op_to_payload,
    stale_op_keys,
)
from repro.distributed.bridge import apply_local_op
from repro.distributed.pipeline import (
    PHASE_COMPLETED,
    PHASE_DISSEMINATING,
    PHASE_ROUTING,
    AdmissionRecord,
    ConflictSet,
    PipelineEntry,
    PipelineWindow,
    entry_record,
)
from repro.distributed.routing_protocol import (
    GreedyForwarder,
    NeighborTable,
    networks_equal,
    repair_crash_links,
    skip_graph_network,
)
from repro.simulation import Message, RoundContext, Simulator, SimulatorConfig
from repro.simulation.errors import SimulationError
from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph
from repro.workloads.scenarios import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    replay_population,
)

__all__ = [
    "DSGProcess",
    "DistributedDSG",
    "DistributedDSGReport",
    "DistributedRequestOutcome",
    "PipelinedDSG",
]


class DSGProcess(GreedyForwarder):
    """One DSG peer: its membership bits and per-level neighbour links.

    Local state is ``O(log n)`` words, as the model requires: the bit
    vector, one (left, right) pair per level, and the flow-control queues
    of the shared forwarding core.  The process is passive (``done``)
    unless it holds queued outgoing messages; it is woken by message
    delivery, or by the driver's ``Simulator.wake`` with a route or plan.

    Every route and op payload carries its request id (one O(1) word,
    ignored by :func:`~repro.core.local_ops.op_from_payload`) and arrivals
    are recorded in the driver's ledgers — ``route_done[rid] = hops`` at
    the route's destination, ``ops_done[rid] += 1`` at each op's anchor —
    so any number of requests may be in flight without one completion
    clobbering another.
    """

    DESTINATION = "to"
    LEVEL = "lvl"

    def __init__(
        self,
        key: Key,
        graph: SkipGraph,
        row: Mapping[Key, AbstractSet[str]],
        route_done: Dict[int, int],
        ops_done: Dict[int, int],
    ) -> None:
        super().__init__(key)
        self.table = NeighborTable(row, key)
        self.bits: Tuple[int, ...] = graph.membership(key).bits
        self.is_dummy = graph.node(key).is_dummy
        #: Set when the node (a dummy) received its self-destruction notice.
        self.destroyed = False
        self._route_done = route_done
        self._ops_done = ops_done
        self.done = True

    def memory_words(self) -> int:
        return self.table.size_words() + len(self.bits) + 5 * self.queued() + len(self.dark) + 6

    # ----------------------------------------------------------- round hooks
    def on_start(self, ctx: RoundContext) -> None:
        # A joiner handed a request in its initialization round sends at
        # once, like a process that was started before the request came.
        self.on_round(ctx, [])

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        for message in inbox:
            payload = message.payload
            # Hops are counted on receipt, so a hop re-routed around a dark
            # neighbour before it was ever sent is never counted.
            hops = payload["hops"] + 1
            if payload["to"] == self.node_id:
                self._arrive(message.kind, payload, hops)
            else:
                self._forward(message.kind, payload, hops=hops)
        self._flush(ctx)
        self.done = not self.outgoing

    # ------------------------------------------------------------ initiation
    def initiate_route(self, destination: Key, rid: int) -> None:
        """Start routing request ``rid`` towards ``destination`` (driver hook)."""
        self._forward(
            "route", {"to": destination, "rid": rid, "lvl": self.table.top_level, "hops": 0}
        )
        self.done = not self.outgoing

    def initiate_ops(self, payloads: List[Tuple[Key, dict]]) -> None:
        """Disseminate a request's op plan (driver hook).

        ``payloads`` pairs each op's anchor with its wire payload; ops
        anchored at this node execute immediately, the rest are greedily
        routed, subject to the per-link flow control.
        """
        for anchor, payload in payloads:
            if anchor == self.node_id:
                self._arrive("op", payload, 0)
            else:
                self._forward("op", {**payload, "lvl": self.table.top_level, "hops": 0})
        self.done = not self.outgoing

    # -------------------------------------------------------------- internals
    def _arrive(self, kind: str, payload: dict, hops: int) -> None:
        rid = payload["rid"]
        if kind == "route":
            self._route_done[rid] = hops
            return
        op = op_from_payload(payload)
        if type(op) is PromoteOp:
            bits = self.bits
            if len(bits) < op.level:
                bits = bits + (0,) * (op.level - len(bits))
            self.bits = bits[: op.level - 1] + (op.bit,) + bits[op.level :]
        elif type(op) is DemoteOp:
            self.bits = self.bits[: op.length]
        elif type(op) is DummyRemoveOp:
            self.destroyed = True
        self._ops_done[rid] = self._ops_done.get(rid, 0) + 1


@dataclass
class DistributedRequestOutcome:
    """One request served by the protocol, with the plan it executed.

    ``measured_distance`` is the hop count observed at the destination
    (minus the final hop), i.e. the number of intermediate nodes real
    messages crossed; ``planned_distance`` is the planner's
    ``d_{S_t}(σ_t)`` for the same request — the keystone property test
    asserts they are equal on every request.  ``rounds`` is the simulator
    rounds from the request's admission to the arrival of its last message
    (admit → complete); at ``window=1`` that is the whole time the
    simulator spent on it.
    """

    source: Key
    destination: Key
    alpha: int
    measured_distance: int
    planned_distance: int
    transformation_rounds: int
    ops_executed: int
    rounds: int

    @property
    def cost(self) -> int:
        """Equation 1 with the *measured* routing distance."""
        return self.measured_distance + self.transformation_rounds + 1


@dataclass
class DistributedDSGReport:
    """Aggregate outcome of one distributed DSG execution."""

    requests: int
    joins: int
    leaves: int
    total_cost: int
    planner_total_cost: int
    total_routing: int
    rounds: int
    messages: int
    total_bits: int
    max_message_bits: int
    congestion_violations: int
    dropped_messages: int
    final_nodes: int
    final_height: int
    crashes: int = 0
    recoveries: int = 0
    abandoned_plans: int = 0
    reanchored_plans: int = 0
    outcomes: List[DistributedRequestOutcome] = field(default_factory=list)
    window: int = 1
    max_in_flight: int = 0
    admitted: int = 0
    conflict_stalls: int = 0
    admission_trace: List[AdmissionRecord] = field(default_factory=list)

    @property
    def matches_planner(self) -> bool:
        """Whether the protocol's total Equation 1 cost equals the planner's."""
        return self.total_cost == self.planner_total_cost


class DistributedDSG:
    """Driver executing self-adjusting DSG on a live CONGEST simulator.

    Owns the planner (a centralized :class:`~repro.core.dsg.DynamicSkipGraph`
    used for the per-request decision maths), the executed topology mirror
    (grown exclusively by applying the emitted ops), the network and the
    per-node processes, and serves every event through one loop
    (:meth:`_serve`): plan → admit → step → absorb → apply.  A route, and
    later its op plan, is handed to the initiating process directly, and
    :meth:`~repro.simulation.Simulator.wake` puts it in the next round.

    Planning is strictly sequential — the planner serves events in arrival
    order, so every plan, every ``d_{S_t}`` and the whole Equation-1
    accounting are independent of ``window``, which only sets how many
    planned events may be *in flight* on the simulator at once.  The
    default ``window=1`` is the paper's model (Section III): one request at
    a time, route then transform.  At a deeper window events are admitted
    FIFO whenever their :class:`~repro.distributed.pipeline.ConflictSet`
    (route path reads; op-touched region plus ``l_alpha`` members as writes)
    is disjoint from everything already in flight: routes overlap routes
    freely, and a request's op dissemination may overlap younger routes.
    Structural application (topology mirror, live links, routing tables,
    process install/retire) happens only in arrival order and only at
    dissemination-free boundaries, so no rewiring can strand an in-flight
    message.  ``tests/distributed/test_pipeline.py`` holds every window to
    the sequential two-phase loop kept as an executable specification in
    ``tests/reference/sequential_driver_reference.py``: same topology,
    per-request cost and total cost, and at ``window=1`` the same rounds.

    The write sets are the keys the planner's recorder touched while it
    applied each plan (:attr:`DynamicSkipGraph.touched
    <repro.core.dsg.DynamicSkipGraph.touched>`), so no plan is replayed.  A
    conflict set is only ever read against other in-flight entries, so at
    ``window=1`` nothing is collected.
    """

    def __init__(
        self,
        keys,
        config: Optional[DSGConfig] = None,
        seed: Optional[int] = None,
        max_rounds: int = 200_000,
        strict: bool = False,
        window: int = 1,
    ) -> None:
        self.planner = DynamicSkipGraph(keys=keys, config=config)
        #: Topology as executed: starts at S_0 and changes only via ops.
        self.topology = self.planner.graph.copy()
        self.sim = Simulator(
            skip_graph_network(self.topology),
            SimulatorConfig(seed=seed, strict=strict, max_rounds=max_rounds),
        )
        self.window = PipelineWindow(int(window))
        #: Completion ledgers the processes write: rid -> hops / ops landed.
        self._route_done: Dict[int, int] = {}
        self._ops_done: Dict[int, int] = {}
        self.processes: Dict[Key, DSGProcess] = {}
        for key in self.topology.keys:
            self._install(key)
        self.sim.run()  # start the idle population: wake() needs a started engine
        self._next_index = 0
        self._max_rounds = max_rounds
        self.admission_trace: List[AdmissionRecord] = []
        self.outcomes: List[DistributedRequestOutcome] = []
        self.joins = 0
        self.leaves = 0
        self.crashes = 0
        self.recoveries = 0
        #: Equation-1 totals of the applied requests, at the measured distance.
        self.costs = CostLedger("distributed-dsg", keep_costs=False)
        #: Keys crashed via :meth:`crash_dark` and not yet repaired.
        self.dark_keys: set = set()
        self.abandoned_plans = 0
        self.reanchored_plans = 0
        #: One-shot fault hook fired between a request's route and execute
        #: phases (cleared before it runs) — the property tests' instrument
        #: for landing a crash exactly inside a plan's vulnerability window.
        self.mid_request_fault: Optional[Callable[[], None]] = None
        # Reseating the planner after a mid-request repair resets its
        # running cost counter; the base keeps planner_total_cost exact.
        self._planner_cost_base = 0

    # ------------------------------------------------------------------ serve
    def request(self, source: Key, destination: Key) -> DistributedRequestOutcome:
        """Serve one communication request: route, plan, execute, rewire."""
        self._serve([RequestEvent(source, destination)])
        return self.outcomes[-1]

    def join(self, key: Key) -> None:
        """A peer joins (Section IV-G): structural churn between requests."""
        self._serve([JoinEvent(key)])

    def leave(self, key: Key) -> None:
        """A peer departs (Section IV-G)."""
        self._serve([LeaveEvent(key)])

    def run_scenario(self, scenario: Scenario) -> DistributedDSGReport:
        """Serve a whole scenario with up to ``window`` events in flight.

        The schedule continues this driver's population, not
        ``scenario.initial_keys``: a schedule
        :func:`~repro.workloads.scenarios.replay_population` rejects against
        it (live peers alive, crashed keys down) raises its ``ValueError``
        before anything is planned, admitted or served.  The pass reads
        only the keys the schedule names, so only theirs are looked up:
        O(events) per call, not O(n).
        """
        graph, crashed = self.planner.graph, self.sim.crashed
        named = set()
        for event in scenario.events:
            if isinstance(event, RequestEvent):
                named.update((event.source, event.destination))
            else:
                named.add(event.key)
        alive = {key for key in named if key in graph and not graph.node(key).is_dummy} - crashed
        replay_population(scenario, "DistributedDSG.run_scenario", alive=alive, down=crashed)
        self._serve(scenario.events)
        return self.report()

    def crash(self, key: Key) -> int:
        """Crash-stop failure of ``key``: :meth:`crash_dark`, then :meth:`repair_dark`.

        The process dies through :meth:`Simulator.crash` — no ``on_retire``
        goodbye, links dark, no re-entry until :meth:`recover` — and the
        overlay is repaired at once with the *same* Section IV-G departure
        plan a graceful leave would execute (the membership repair does not
        depend on the departed node's cooperation; only the goodbye does),
        so the planner-equivalence invariants hold after every crash.
        Returns the number of repair ops executed (the wave's repair cost).
        """
        self.crash_dark(key)
        return self.repair_dark()

    def crash_dark(self, key: Key) -> None:
        """Crash ``key`` and leave its hole *open*: links dark, no repair.

        The process dies without a goodbye, but the planner and the
        topology mirror still believe the node exists until
        :meth:`repair_dark` (at a boundary), the next event served, or the
        mid-request handling closes the hole.  Dummies cannot crash — they
        are protocol bookkeeping, not peers.  Legal whenever nothing is in
        flight and from the ``mid_request_fault`` hook.
        """
        if not self.topology.has_node(key) or self.topology.node(key).is_dummy:
            raise SimulationError(f"cannot crash {key!r}: not a live peer")
        self.sim.crash(key)
        self.processes.pop(key, None)
        self.dark_keys.add(key)
        self.crashes += 1

    def repair_dark(self) -> int:
        """Planner-consistent boundary repair of every dark key.

        Used when no plan is in flight: each dark key departs through the
        planner's Section IV-G machinery exactly like a leave, so planner
        and topology never diverge and no reseat is needed.  Returns the
        number of repair ops executed.
        """
        if not self.dark_keys:
            return 0
        total = 0
        for key in sorted(self.dark_keys):
            self.planner.remove_node(key)
            ops = self.planner.last_churn_ops
            self._apply_ops(ops)
            total += len(ops)
        self.dark_keys.clear()
        return total

    def recover(self, key: Key) -> None:
        """Recover crashed ``key`` as a *fresh identity*.

        Any open dark holes are repaired first (a recovery is a wave
        boundary), the engine's re-entry ban is lifted
        (:meth:`~repro.simulation.Simulator.recover`), and the key rejoins
        through the planner's Section IV-G join — new membership bits, new
        links, a new process; nothing of the old identity survives.
        """
        self.repair_dark()
        self.sim.recover(key)
        self.planner.add_node(key)
        self._apply_ops(self.planner.last_churn_ops)
        self.recoveries += 1

    # ----------------------------------------------------------------- report
    def report(self) -> DistributedDSGReport:
        metrics = self.sim.metrics
        window = self.window
        return DistributedDSGReport(
            requests=self.costs.requests,
            joins=self.joins,
            leaves=self.leaves,
            total_cost=self.costs.total_cost,
            planner_total_cost=self._planner_cost_base + self.planner.total_cost(),
            total_routing=self.costs.total_routing,
            rounds=metrics.rounds,
            messages=metrics.messages,
            total_bits=metrics.total_bits,
            max_message_bits=metrics.max_message_bits,
            congestion_violations=metrics.congestion_violations,
            dropped_messages=metrics.dropped_messages,
            final_nodes=len(self.topology.real_keys),
            final_height=self.topology.height(),
            crashes=self.crashes,
            recoveries=self.recoveries,
            abandoned_plans=self.abandoned_plans,
            reanchored_plans=self.reanchored_plans,
            outcomes=self.outcomes,
            window=window.depth,
            max_in_flight=window.max_in_flight,
            admitted=window.admitted,
            conflict_stalls=window.conflict_stalls,
            admission_trace=list(self.admission_trace),
        )

    def topology_matches_planner(self) -> bool:
        """Keystone check: op-executed topology == centralized topology."""
        return self.topology.membership_table() == self.planner.graph.membership_table()

    def network_matches_topology(self) -> bool:
        """Invariant check: incrementally rewired links == rebuilt links."""
        return networks_equal(self.sim.network, skip_graph_network(self.topology))

    # --------------------------------------------------------------- the loop
    def _serve(self, events) -> None:
        """The one serve loop: plan ahead, admit, step, absorb, apply.

        Planning is pure bookkeeping on the planner (no simulator rounds);
        it runs just past the window and stops at a *barrier* — a crash or
        recovery event, an armed ``mid_request_fault`` hook, an open dark
        hole.  A barrier is served only once everything older has applied
        (open holes are settled right there, for every kind of event), and
        nothing younger is planned until it has applied in turn, so a
        failure never strands an admitted message and the plan repair of
        :meth:`_repair_plan` always finds its request alone in flight.

        An event the planner rejects (unknown or equal endpoints, a join of
        a present or crashed key, a leave of an absent one) ends the run:
        the planner has already moved past every event planned before it,
        so those are served to completion first and the rejection is raised
        once nothing is in flight.  The events before the rejected one are
        served; it and everything after it are not.
        """
        queue: Deque = deque(events)
        planned: Deque[PipelineEntry] = deque()
        window = self.window
        deadline = self.sim.round + self._max_rounds
        fenced = False
        rejection: Optional[Exception] = None
        while queue or planned or window.entries:
            if not planned and not window.entries:
                fenced = False
            while queue and not fenced and len(planned) <= window.depth:
                event = queue[0]
                if (
                    isinstance(event, (CrashEvent, RecoveryEvent))
                    or self.mid_request_fault is not None
                    or self.dark_keys
                ):
                    if planned or window.entries:
                        break
                    fenced = True
                    self.repair_dark()
                queue.popleft()
                if isinstance(event, CrashEvent):
                    self.crash(event.key)
                elif isinstance(event, RecoveryEvent):
                    self.recover(event.key)
                else:
                    try:
                        planned.append(self._plan_event(event))
                    except (KeyError, ValueError, TypeError, SimulationError) as error:
                        rejection = error
                        queue.clear()
            # FIFO admission: the oldest planned event blocks on conflict.
            while planned and window.try_admit(planned[0]):
                self._activate(planned.popleft())
            if window.work_in_flight():
                self.sim.step()
                if self.sim.round > deadline:
                    raise SimulationError(
                        f"serve exceeded {self._max_rounds} rounds "
                        "(a route or an op dissemination lost work?)"
                    )
                self._absorb_completions()
            self._apply_ready()
        if rejection is not None:
            raise rejection

    def _plan_event(self, event) -> PipelineEntry:
        """Run the planner for one event and extract its conflict set."""
        index = self._next_index
        self._next_index += 1
        planner = self.planner
        # Only a window deeper than one reads conflict sets: collect for it.
        touched = planner.touched = set() if self.window.depth > 1 else None
        if isinstance(event, RequestEvent):
            source, destination = event.source, event.destination
            if touched is not None:
                # The l_alpha region the transformation will restructure,
                # read from the pre-plan graph (alpha is what _adjust computes).
                graph = planner.graph
                region = tuple(graph.list_of(source, graph.common_level(source, destination)))
            plan = planner.request(source, destination)
            ops = list(plan.ops or [])
            conflict = ConflictSet()
            if touched is not None:
                conflict = ConflictSet(
                    reads=frozenset(plan.routing.path),
                    writes=frozenset(touched) | frozenset(region) if ops else frozenset(),
                )
            return PipelineEntry(
                index=index,
                kind="request",
                rid=index,
                conflict=conflict,
                ops=ops,
                source=source,
                destination=destination,
                plan=plan,
            )
        if isinstance(event, JoinEvent):
            if event.key in self.sim.crashed:
                # Reject before the planner mutates: a partial join would
                # leave planner and topology out of sync when add_process
                # refuses the crashed key.
                raise SimulationError(f"key {event.key!r} crashed and cannot re-join")
            planner.add_node(event.key)
            kind = "join"
        elif isinstance(event, LeaveEvent):
            planner.remove_node(event.key)
            kind = "leave"
        else:
            raise TypeError(f"unknown scenario event {event!r}")
        ops = list(planner.last_churn_ops)
        conflict = ConflictSet()
        if touched is not None:
            conflict = ConflictSet(writes=frozenset(touched) | {event.key})
        return PipelineEntry(index=index, kind=kind, rid=index, conflict=conflict, ops=ops)

    def _activate(self, entry: PipelineEntry) -> None:
        """Start an admitted entry's simulator work (requests only).

        Section IV-G churn plans are applied structurally and consume no
        simulator rounds, so churn entries complete instantly and wait in
        the window for their FIFO application turn.
        """
        entry.admit_round = self.sim.round
        if entry.kind == "request":
            self.processes[entry.source].initiate_route(entry.destination, entry.rid)
            self.sim.wake(entry.source)
            entry.phase = PHASE_ROUTING
        else:
            entry.phase = PHASE_COMPLETED
            entry.complete_round = self.sim.round

    def _absorb_completions(self) -> None:
        """Advance in-flight entries whose simulator work finished."""
        for entry in self.window.entries:
            if entry.phase == PHASE_ROUTING and entry.rid in self._route_done:
                entry.measured = self._route_done.pop(entry.rid) - 1
                # The vulnerability window: the plan exists, nothing executed.
                hook, self.mid_request_fault = self.mid_request_fault, None
                if hook is not None:
                    hook()
                if self.dark_keys:
                    self._repair_plan(entry)
                if entry.ops:
                    payloads = []
                    for op in entry.ops:
                        anchor = op_anchor(op, self.topology)
                        payloads.append(
                            (anchor, {"to": anchor, "rid": entry.rid, **op_to_payload(op)})
                        )
                    self.processes[entry.source].initiate_ops(payloads)
                    self.sim.wake(entry.source)
                    entry.phase = PHASE_DISSEMINATING
                else:
                    entry.phase = PHASE_COMPLETED
                    entry.complete_round = self.sim.round
            elif entry.phase == PHASE_DISSEMINATING:
                executed = self._ops_done.get(entry.rid, 0)
                if executed > len(entry.ops):
                    raise SimulationError(
                        f"op dissemination over-delivered: {executed}/{len(entry.ops)} ops"
                    )
                if executed == len(entry.ops):
                    self._ops_done.pop(entry.rid, None)
                    entry.phase = PHASE_COMPLETED
                    entry.complete_round = self.sim.round

    def _repair_plan(self, entry: PipelineEntry) -> None:
        """A crash landed between ``entry``'s route and its dissemination.

        The driver repairs the holes and either **re-anchors** the plan —
        every op's anchor is computed against the post-repair topology when
        dissemination starts (the dark-anchor case) — or **abandons** it:
        an op's *subject* crashed (:func:`~repro.core.local_ops.
        stale_op_keys`), or the disseminating source itself did.  A stale
        op is never applied.  The entry is alone in flight (see
        :meth:`_serve`), so the structural repair races nothing.
        """
        if not entry.ops:
            # Nothing in flight to salvage: boundary repair through the
            # planner keeps both views consistent, no reseat needed.
            self.repair_dark()
            return
        dark = frozenset(self.dark_keys)
        self._repair_dark_structural()
        if stale_op_keys(entry.ops, dark) or entry.source in dark:
            entry.repair = "abandoned"
            entry.ops = []
            self.abandoned_plans += 1
            # Refund the planner's charge for the transformation the
            # protocol never executed, so matches_planner stays meaningful
            # across abandons.
            self._planner_cost_base -= entry.plan.transformation_rounds
        else:
            entry.repair = "reanchored"
            self.reanchored_plans += 1

    def _apply_ready(self) -> None:
        """Apply completed entries in arrival order, at safe boundaries.

        Structural rewiring is deferred while *any* op dissemination is in
        flight: op relays cross arbitrary keys, so removing a link or node
        mid-flight could drop a message (routes are safe — their paths are
        conflict-checked read sets, untouched by any admitted writer).
        """
        if self.window.dissemination_in_flight():
            return
        while True:
            entry = self.window.pop_completed_head()
            if entry is None:
                return
            entry.apply_round = self.sim.round
            self._apply_ops(entry.ops)
            if entry.repair is not None:
                self._reseat_planner()
            if entry.kind == "request":
                plan = entry.plan
                abandoned = entry.repair == "abandoned"
                outcome = DistributedRequestOutcome(
                    source=entry.source,
                    destination=entry.destination,
                    alpha=plan.alpha,
                    measured_distance=entry.measured,
                    planned_distance=plan.routing.distance,
                    transformation_rounds=0 if abandoned else plan.transformation_rounds,
                    ops_executed=len(entry.ops),
                    rounds=entry.complete_round - entry.admit_round,
                )
                self.outcomes.append(outcome)
                self.costs.record(
                    RequestCost(
                        entry.source,
                        entry.destination,
                        entry.measured,
                        outcome.transformation_rounds,
                    )
                )
            elif entry.kind == "join":
                self.joins += 1
            else:
                self.leaves += 1
            self.admission_trace.append(entry_record(entry))

    # -------------------------------------------------------------- internals
    def _install(self, key: Key) -> None:
        row = self.sim.network.rows[key]
        process = DSGProcess(key, self.topology, row, self._route_done, self._ops_done)
        self.processes[key] = process
        self.sim.add_process(process)

    def _repair_dark_structural(self) -> None:
        """Repair dark keys *without* the planner: close links, refresh tables.

        The mid-request path: a Section IV-G departure plan would itself
        need dissemination — racing the very plan being salvaged — so the
        holes are closed structurally
        (:func:`~repro.distributed.routing_protocol.repair_crash_links`)
        and the planner is reseated from the repaired topology once the
        salvaged plan has landed (:meth:`_reseat_planner`).
        """
        for key in sorted(self.dark_keys):
            affected, _ = repair_crash_links(self.sim.network, self.topology, key)
            self._refresh_tables(affected)
            for process in self.processes.values():
                process.dark.discard(key)
        self.dark_keys.clear()

    def _reseat_planner(self) -> None:
        """Rebuild the planner over the executed topology after structural repair.

        The mid-request path repairs topology and network behind the
        planner's back; rather than replay that divergence into its
        internal state, the planner is reseated on a copy of the post-plan
        topology — the same ``S_{t+1}`` both views must agree on, so
        :meth:`topology_matches_planner` holds immediately.  Its running
        cost counter restarts, which the accumulated base absorbs.
        """
        self._planner_cost_base += self.planner.total_cost()
        self.planner = DynamicSkipGraph(graph=self.topology.copy(), config=self.planner.config)

    def _refresh_tables(self, keys) -> None:
        rows = self.sim.network.rows
        for key in keys:
            process = self.processes.get(key)
            if process is not None and self.topology.has_node(key):
                process.table = NeighborTable(rows[key], key)

    def _apply_ops(self, ops: List[LocalOp]) -> None:
        """Rewire topology, network, tables and the process population."""
        affected = set()
        arrivals: List[Key] = []
        for op in ops:
            if type(op) in (DummyInsertOp, NodeJoinOp):
                arrivals.append(op.key)
            elif type(op) in (DummyRemoveOp, NodeLeaveOp):
                self.processes.pop(op.key, None)  # apply_local_op retires it
            affected |= apply_local_op(self.sim, self.topology, op)
        # process.bits is deliberately NOT refreshed: a node's bit vector
        # evolves only through the op messages it receives, so the
        # end-of-run equality with the topology is a genuine check of the
        # message-driven execution.
        self._refresh_tables(affected)
        for key in arrivals:
            if self.topology.has_node(key) and key not in self.processes:
                self._install(key)


#: The pipelined driver is the driver: ``PipelinedDSG(keys, window=16)``.
PipelinedDSG = DistributedDSG
