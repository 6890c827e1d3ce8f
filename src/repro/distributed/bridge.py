"""The simulator bridge: local ops and scenario events on a live CONGEST engine.

The link writer (:mod:`repro.distributed.routing_protocol`) keeps a
*network* equal to a skip-graph mirror; this module adds the *engine* side
— processes retired, crashed, recovered and registered — for one local op
(:func:`apply_local_op`), one membership event (:func:`apply_join`,
:func:`apply_crash`, :func:`repair_crashes`, :func:`apply_recovery`) or a
whole :class:`~repro.workloads.scenarios.Scenario` (:func:`replay_scenario`,
what ``bench_e11_congest`` runs under the routing and broadcast protocols).
The link functions are reached through the ``routing_protocol`` module
object at call time, so a tracer that rebinds them there sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.core.local_ops import DummyRemoveOp, LocalOp, NodeJoinOp, NodeLeaveOp
from repro.distributed import routing_protocol
from repro.simulation import NodeProcess, Simulator
from repro.simulation.rng import make_rng
from repro.skipgraph.build import draw_membership_bits
from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph
from repro.workloads.scenarios import (
    CrashEvent,
    JoinEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
)

__all__ = [
    "ScenarioReplay",
    "apply_crash",
    "apply_join",
    "apply_local_op",
    "apply_recovery",
    "repair_crashes",
    "replay_scenario",
]


def apply_local_op(sim: Simulator, graph: SkipGraph, op: LocalOp) -> set:
    """Execute one local op against a live simulator: graph + per-level links.

    ``graph`` is the topology mirror the simulator's network was built from
    (:func:`~repro.distributed.routing_protocol.skip_graph_network`).  The
    link rewiring is :func:`~repro.distributed.routing_protocol.patch_network`,
    which keeps ``network == skip_graph_network(graph)`` (links and labels)
    true after every op; this bridge adds the *process* side of a departure
    (:class:`~repro.core.local_ops.NodeLeaveOp` /
    :class:`~repro.core.local_ops.DummyRemoveOp`): the departed node's
    process, if one is live, is retired from the simulator — messages still
    in flight towards it are dropped and recorded by the engine, never
    raised.

    Returns the set of keys whose links changed (the op's bounded
    neighbourhood) — what a driver must refresh routing tables for.
    """
    affected = routing_protocol.patch_network(sim.network, graph, op)
    if isinstance(op, (NodeLeaveOp, DummyRemoveOp)) and op.key in sim.processes:
        sim.retire(op.key)
    return affected


def apply_join(sim: Simulator, graph: SkipGraph, key: Key, rng) -> None:
    """Join ``key`` into ``graph`` and rewire ``sim``'s network accordingly.

    Membership bits are drawn with the classical join rule
    (:func:`~repro.skipgraph.build.draw_membership_bits`, the same stream
    discipline the DSG/baseline adapters use) and the join is executed as a
    :class:`~repro.core.local_ops.NodeJoinOp` through
    :func:`apply_local_op` — the same kernel path every other structural
    change takes.
    """
    bits = draw_membership_bits(graph, key, rng)
    apply_local_op(sim, graph, NodeJoinOp(key, tuple(bits)))


def apply_crash(sim: Simulator, graph: SkipGraph, key: Key) -> None:
    """Crash ``key`` on the simulator; the ``graph`` mirror keeps the node.

    This is the *failure* half of the crash/leave distinction: the engine's
    :meth:`~repro.simulation.Simulator.crash` kills the process without its
    ``on_retire`` goodbye, darkens its links and bans re-entry — but the
    skip-graph mirror is deliberately left untouched.  Until a repair wave
    runs (:func:`repair_crashes`), the graph still *believes* the node
    exists, which is exactly the dark window the surviving routers must
    route around; the graph/network views legitimately diverge during it,
    so run the integrity sweep only after repair.
    """
    sim.crash(key)


def apply_recovery(sim: Simulator, graph: SkipGraph, key: Key, rng, k: int = 1) -> Tuple[set, int]:
    """Recover crashed ``key`` as a *fresh identity* and splice it back in.

    Lifts the engine's re-entry ban (:meth:`~repro.simulation.Simulator.recover`),
    draws *new* membership bits with the classical join rule
    (:func:`~repro.skipgraph.build.draw_membership_bits` — the same stream
    discipline :func:`apply_join` uses; the old identity's bits are gone
    with its tables) and rewires graph + network through
    :func:`~repro.distributed.routing_protocol.rejoin_crash_links`.

    The crash's hole must already be closed — run :func:`repair_crashes`
    for the key before recovering it; a recovery is a join, and joining a
    graph that still contains the key is a kernel error.  Returns
    ``(affected survivor keys, links added)`` — survivors whose routing
    tables must be refreshed, and the rejoin cost.
    """
    sim.recover(key)
    bits = draw_membership_bits(graph, key, rng)
    return routing_protocol.rejoin_crash_links(sim.network, graph, key, tuple(bits), k=k)


def repair_crashes(
    sim: Simulator,
    graph: SkipGraph,
    keys: Sequence[Key],
    k: int = 1,
) -> Tuple[set, int]:
    """Excise crashed ``keys`` from the graph and close the network over them.

    Runs :func:`~repro.distributed.routing_protocol.repair_crash_links` for
    each crashed key in order: the key leaves the graph through the local-op
    kernel and the survivors within list distance ``k`` of the hole are
    relinked, restoring ``network == skip_graph_network(graph, k)`` exactly.
    Returns the union of surviving keys whose link neighbourhood changed
    (the set a driver must refresh routing tables for) and the total number
    of links added.
    """
    affected: set = set()
    links_added = 0
    for key in keys:
        touched, added = routing_protocol.repair_crash_links(sim.network, graph, key, k=k)
        affected.update(touched)
        links_added += added
    # A later repair in the same wave may have excised a key an earlier
    # repair reported as affected; only survivors need table refreshes.
    affected.difference_update(keys)
    return affected, links_added


@dataclass
class ScenarioReplay:
    """What :func:`replay_scenario` scheduled onto the simulator."""

    scenario: str
    joins: int
    leaves: int
    requests: int
    first_round: int
    last_round: int
    crashes: int = 0
    recoveries: int = 0


def replay_scenario(
    sim: Simulator,
    scenario: Scenario,
    process_factory: Optional[Callable[[Key], Optional[NodeProcess]]] = None,
    graph: Optional[SkipGraph] = None,
    start_round: Optional[int] = None,
    spacing: int = 1,
    on_request: Optional[Callable[[Simulator, RequestEvent], None]] = None,
    seed: Optional[int] = None,
) -> ScenarioReplay:
    """Schedule ``scenario``'s events as churn callbacks on a live simulator.

    This is the bridge between the workload layer and the message-passing
    arena: the same :func:`~repro.workloads.scenarios.churn_scenario` /
    :func:`~repro.workloads.scenarios.scale_scenario` schedules that drive
    the DSG front end replay against the :mod:`repro.distributed` protocols
    unchanged.  Events (:mod:`repro.workloads.scenarios`) are assigned
    consecutive rounds (``spacing`` apart, starting at ``start_round``,
    default: the simulator's next round) and injected through
    :meth:`~repro.simulation.Simulator.schedule`:

    * ``JoinEvent`` — :func:`apply_join` rewires ``graph`` and the network;
      ``process_factory(key)`` (if given) builds the joiner's process,
      registered so it receives ``on_start`` in its join round.
    * ``LeaveEvent`` — a :class:`~repro.core.local_ops.NodeLeaveOp` through
      :func:`apply_local_op`: the departed node's left/right list
      neighbours become adjacent at every level it occupied (links close up
      over it, Section IV-G) and its process is retired.
    * ``CrashEvent`` — :func:`apply_crash` kills the process crash-stop
      (no rewiring: the dark window lasts until the caller runs
      :func:`repair_crashes`).
    * ``RecoveryEvent`` — :func:`apply_recovery` rejoins the key as a
      fresh identity (new bits from the replay's rng stream) and registers
      its process via ``process_factory`` like a join.  The caller must
      have repaired the key's crash before its recovery round fires.
    * ``RequestEvent`` — handed to ``on_request(sim, event)`` when
      provided (e.g. to enqueue a routing request on the source process);
      skipped otherwise (no round consumed).

    ``graph`` must be the skip-graph topology mirror the simulator's
    network was built from (:func:`~repro.distributed.routing_protocol.skip_graph_network`);
    it is required when the scenario contains churn.  The run does not
    quiesce before the last scheduled event, so a protocol running on the
    simulator experiences the whole churn schedule.
    """
    has_churn = any(not isinstance(event, RequestEvent) for event in scenario.events)
    if has_churn and graph is None:
        raise ValueError("replaying a scenario with churn requires the skip graph mirror")
    rng = make_rng(seed if seed is not None else scenario.params.get("seed"))
    cursor = sim.round if start_round is None else max(start_round, sim.round)
    first = cursor
    joins = leaves = crashes = recoveries = requests = 0
    scheduled_any = False

    def register_arrival(s: Simulator, key: Key) -> None:
        process = process_factory(key) if process_factory is not None else None
        if process is not None:
            s.add_process(process)

    for event in scenario.events:
        if isinstance(event, RequestEvent):
            if on_request is None:
                continue
            requests += 1

            def callback(s: Simulator, event=event) -> None:
                on_request(s, event)

        elif isinstance(event, JoinEvent):
            joins += 1

            def callback(s: Simulator, key=event.key) -> None:
                apply_join(s, graph, key, rng)
                register_arrival(s, key)

        elif isinstance(event, CrashEvent):
            crashes += 1

            def callback(s: Simulator, key=event.key) -> None:
                apply_crash(s, graph, key)

        elif isinstance(event, RecoveryEvent):
            recoveries += 1

            def callback(s: Simulator, key=event.key) -> None:
                apply_recovery(s, graph, key, rng)
                register_arrival(s, key)

        else:
            leaves += 1

            def callback(s: Simulator, key=event.key) -> None:
                apply_local_op(s, graph, NodeLeaveOp(key))

        sim.schedule(cursor, callback)
        scheduled_any = True
        cursor += spacing
    return ScenarioReplay(
        scenario=scenario.name,
        joins=joins,
        leaves=leaves,
        requests=requests,
        first_round=first,
        last_round=cursor - spacing if scheduled_any else first,
        crashes=crashes,
        recoveries=recoveries,
    )
