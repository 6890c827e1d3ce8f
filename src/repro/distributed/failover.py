"""Crash-stop failure arena: dark windows, route-around, repair, integrity.

The other drivers in this package treat departures as *graceful*: the
overlay is rewired in the same breath as the process retires, so no router
ever holds a stale neighbour.  This module runs the opposite regime — the
one the k-redundant tables exist for.  A :func:`failure_scenario
<repro.workloads.scenarios.failure_scenario>` schedule is executed as a
sequence of **waves**, each of which is the full crash-stop lifecycle:

1. **crash burst** — at quiescence, every :class:`~repro.workloads.scenarios.CrashEvent`
   of the wave kills its node through :meth:`Simulator.crash
   <repro.simulation.Simulator.crash>`: links dark, no ``on_retire``
   goodbye, no re-entry.  The skip-graph mirror is *not* touched — the
   survivors' view of the world is now wrong, which is the point.
2. **dark window** — the wave's requests are injected (staggered over
   consecutive rounds) and routed while the holes are still open.  A
   router whose queued hop lost its link marks the neighbour dark and
   re-forwards through its k-redundant table
   (:meth:`NeighborTable.next_hop <repro.distributed.routing_protocol.NeighborTable.next_hop>`),
   so every request to a *surviving* key is delivered by route-around,
   while a request to a crashed key strands at the hole's edge and is
   counted as a ``failed_request`` (never a drop, never an exception).
3. **repair wave** — :func:`repair_crashes
   <repro.distributed.bridge.repair_crashes>` excises the crashed keys
   from the graph and closes every level list up over them under
   redundancy ``k`` (restoring ``network == skip_graph_network(graph, k)``
   exactly), and each surviving router whose neighbourhood changed gets a
   fresh :class:`~repro.distributed.routing_protocol.NeighborTable`, read
   off its own repaired link row.
4. **integrity sweep** — :func:`verify_skip_graph_integrity
   <repro.skipgraph.integrity.verify_skip_graph_integrity>` audits the
   repaired structure *and* the live network against it; the arena's
   standing invariant is that every sweep comes back clean.

Two extensions lift the original safety rails:

* **Recovery** — a wave may open with :class:`~repro.workloads.scenarios.RecoveryEvent`
  entries: the engine's re-entry ban is lifted
  (:meth:`~repro.simulation.Simulator.recover`) and the key rejoins *as a
  fresh identity* through the kernel's join path
  (:func:`~repro.distributed.bridge.apply_recovery` — new membership
  bits, :func:`~repro.distributed.routing_protocol.rejoin_crash_links`
  rewiring), gets a fresh router process and serves the wave's traffic
  like any survivor.  Every router forgets the key from its dark set —
  the identity that crashed is gone; the one that rejoined is live.
* **Mid-wave crashes** — a :class:`~repro.workloads.scenarios.CrashEvent`
  flagged ``mid_wave`` fires *between request injections* while earlier
  requests are still in flight.  Messages en route to (or queued through)
  the victim become counted engine drops; because every request carries a
  request id recorded in a shared
  :class:`~repro.distributed.routing_protocol.RouteLedger`, a rid with no
  terminal outcome after quiescence is exactly such an in-flight
  casualty.  The arena retries those after the repair wave (at most
  :data:`MAX_RETRIES` passes, :data:`RETRY_BACKOFF` rounds apart) and only
  counts a request failed when its destination is genuinely gone.

Flow control gates every send on the current link set, so the arena runs
the engine in strict mode even under mid-wave crashes: a congestion
violation or an illegal send raises at the offending round.  Requests are
conserved by construction — ``delivered + failed + retried-then-delivered
== injected`` holds per wave, and message drops appear only in waves that
crash mid-flight.

``benchmarks/bench_e16_failures.py`` runs this arena at 4096 nodes and
publishes the delivered/failed/repair-cost accounting as one ``failure``
artifact row per failure shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.distributed.bridge import apply_crash, apply_recovery, repair_crashes
from repro.distributed.routing_protocol import (
    NeighborTable,
    RouteLedger,
    install_routing,
    make_router,
    skip_graph_network,
)
from repro.simulation import Simulator, SimulatorConfig
from repro.simulation.rng import make_rng
from repro.skipgraph.build import build_balanced_skip_graph
from repro.skipgraph.integrity import verify_skip_graph_integrity
from repro.skipgraph.node import Key
from repro.skipgraph.skipgraph import SkipGraph
from repro.workloads.scenarios import (
    CrashEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
)

__all__ = [
    "FailureArenaReport",
    "FailureWaveReport",
    "Wave",
    "run_failure_arena",
    "segment_waves",
]

#: Requests injected per round; they interleave freely once in flight.
STAGGER = 32
#: Round budget of each ``Simulator.run`` call the arena makes.
MAX_ROUNDS = 1_000_000
#: Re-injection passes for requests lost in flight to a mid-wave crash.
MAX_RETRIES = 2
#: Rounds between the end of a pass and the next re-injection.
RETRY_BACKOFF = 4


@dataclass
class FailureWaveReport:
    """One rejoin + crash burst + dark-window batch + repair + sweep.

    ``crashes`` counts every victim of the wave (boundary *and* mid-wave;
    ``mid_wave_crashes`` is the mid-flight subset).  ``delivered`` counts
    first-attempt deliveries only; a request lost in flight to a mid-wave
    crash and delivered on a later attempt shows up in
    ``retried_delivered`` (``retried`` counts the re-injections), so
    ``failed`` stays exactly the stale-destination requests.
    """

    index: int
    crashes: int
    requests: int
    delivered: int
    failed: int
    route_arounds: int
    dropped_messages: int
    repair_links: int
    tables_refreshed: int
    rounds: int
    recoveries: int = 0
    mid_wave_crashes: int = 0
    rejoin_links: int = 0
    retried: int = 0
    retried_delivered: int = 0
    integrity_violations: List[str] = field(default_factory=list)

    @property
    def conserved(self) -> bool:
        """Every injected request reached exactly one terminal outcome."""
        return self.delivered + self.failed + self.retried_delivered == self.requests


@dataclass
class FailureArenaReport:
    """Outcome of one :func:`run_failure_arena` execution."""

    scenario: str
    n: int
    k: int
    waves: List[FailureWaveReport]
    rounds: int
    messages: int
    total_bits: int
    max_message_bits: int
    congestion_violations: int
    dropped_messages: int

    @property
    def crashes(self) -> int:
        return sum(wave.crashes for wave in self.waves)

    @property
    def requests(self) -> int:
        return sum(wave.requests for wave in self.waves)

    @property
    def delivered(self) -> int:
        return sum(wave.delivered for wave in self.waves)

    @property
    def failed(self) -> int:
        return sum(wave.failed for wave in self.waves)

    @property
    def route_arounds(self) -> int:
        return sum(wave.route_arounds for wave in self.waves)

    @property
    def repair_links(self) -> int:
        return sum(wave.repair_links for wave in self.waves)

    @property
    def tables_refreshed(self) -> int:
        return sum(wave.tables_refreshed for wave in self.waves)

    @property
    def recoveries(self) -> int:
        return sum(wave.recoveries for wave in self.waves)

    @property
    def mid_wave_crashes(self) -> int:
        return sum(wave.mid_wave_crashes for wave in self.waves)

    @property
    def rejoin_links(self) -> int:
        return sum(wave.rejoin_links for wave in self.waves)

    @property
    def retried(self) -> int:
        return sum(wave.retried for wave in self.waves)

    @property
    def retried_delivered(self) -> int:
        return sum(wave.retried_delivered for wave in self.waves)

    @property
    def conserved(self) -> bool:
        return all(wave.conserved for wave in self.waves)

    @property
    def integrity_clean(self) -> bool:
        return all(not wave.integrity_violations for wave in self.waves)


@dataclass
class Wave:
    """One segmented wave of a failure schedule.

    ``recoveries`` rejoin first, then ``crashes`` land at the quiescent
    boundary, then ``requests`` are injected; ``mid_wave`` entries
    ``(offset, key)`` crash ``key`` after the first ``offset`` requests
    have been injected — while they may still be in flight.
    """

    recoveries: List[Key] = field(default_factory=list)
    crashes: List[Key] = field(default_factory=list)
    requests: List[Tuple[Key, Key]] = field(default_factory=list)
    mid_wave: List[Tuple[int, Key]] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not (self.recoveries or self.crashes or self.requests or self.mid_wave)

    @property
    def crash_keys(self) -> List[Key]:
        """Every victim the wave's repair must excise (boundary + mid)."""
        return self.crashes + [key for _, key in self.mid_wave]


def segment_waves(scenario: Scenario) -> List[Wave]:
    """Split a failure schedule into :class:`Wave` segments.

    A wave is a maximal run of :class:`~repro.workloads.scenarios.RecoveryEvent`,
    then :class:`~repro.workloads.scenarios.CrashEvent`, then
    :class:`~repro.workloads.scenarios.RequestEvent` (any part may be
    empty: a schedule that opens with traffic yields a crash-free baseline
    wave, a trailing burst a request-free one).  A crash flagged
    ``mid_wave`` that arrives after the wave's requests started does *not*
    close the wave — it is recorded as an in-flight ``(offset, key)``
    entry; one without preceding requests degrades to a boundary crash.  A
    recovery always closes a non-empty wave (the arena repairs every open
    hole before a key rejoins).  Join/leave events are rejected — graceful
    churn belongs to the other arenas.
    """
    waves: List[Wave] = []
    current = Wave()
    for event in scenario.events:
        if isinstance(event, RecoveryEvent):
            if current.crashes or current.requests or current.mid_wave:
                waves.append(current)
                current = Wave()
            current.recoveries.append(event.key)
        elif isinstance(event, CrashEvent):
            if event.mid_wave and current.requests:
                current.mid_wave.append((len(current.requests), event.key))
            else:
                if current.requests:
                    waves.append(current)
                    current = Wave()
                current.crashes.append(event.key)
        elif isinstance(event, RequestEvent):
            current.requests.append((event.source, event.destination))
        else:
            raise ValueError(
                f"failure arena schedules contain only crashes, recoveries and requests, "
                f"got {event!r}"
            )
    if not current.empty:
        waves.append(current)
    return waves


def run_failure_arena(
    scenario: Scenario,
    k: int = 2,
    seed: Optional[int] = None,
    graph: Optional[SkipGraph] = None,
) -> FailureArenaReport:
    """Execute a failure schedule wave by wave on a fresh CONGEST engine.

    ``k`` is the redundancy the network is built with and the tables route
    around with; at most :data:`STAGGER` requests are injected per round.
    ``graph`` defaults to the balanced start topology over the scenario's
    initial keys.  The engine runs in strict mode: the arena proves its
    claims by *raising* on a congestion violation or an illegal send, not
    by counting them after the fact.

    A request lost in flight to a mid-wave crash (rid with no terminal
    outcome after quiescence) is re-injected after the repair wave — up to
    :data:`MAX_RETRIES` passes, :data:`RETRY_BACKOFF` rounds before each —
    and counted ``retried_delivered`` on success; only requests whose
    destination is genuinely gone end up ``failed``.
    """
    if graph is None:
        graph = build_balanced_skip_graph(scenario.initial_keys)
    network = skip_graph_network(graph, k=k)
    sim = Simulator(network, SimulatorConfig(seed=seed, strict=True, max_rounds=MAX_ROUNDS))
    ledger = RouteLedger()
    routers = install_routing(sim, graph, ledger=ledger)
    sim.run()  # start the (idle) population so waves begin from quiescence
    # Recovered identities draw fresh membership bits from a dedicated
    # arena-owned stream, so same-seed arenas rejoin bit-for-bit alike.
    recovery_rng = make_rng(seed)
    next_rid = 0
    retired_route_arounds = 0

    def route_around_total() -> int:
        # Crashed routers stay in the dict with frozen counters; routers a
        # recovery replaced moved their count into the retired accumulator.
        return retired_route_arounds + sum(router.route_arounds for router in routers.values())

    def refresh_tables(affected, forget: Sequence[Key] = ()) -> int:
        """Fresh tables for the live routers among ``affected``; how many."""
        refreshed = 0
        rows = sim.network.rows
        for key in affected:
            router = routers.get(key)
            if router is None or key in sim.crashed:
                continue
            router.table = NeighborTable(rows[key], key)
            router.dark.difference_update(forget)
            refreshed += 1
        return refreshed

    def schedule_injection(round_index: int, entries: Sequence[Tuple[Key, Key, int]]) -> None:
        def inject(s: Simulator) -> None:
            for source, destination, rid in entries:
                router = routers[source]
                router.requests.append((destination, rid))
                router.done = False

        sim.schedule(round_index, inject)

    waves: List[FailureWaveReport] = []
    for index, wave in enumerate(segment_waves(scenario)):
        base_route_arounds = route_around_total()
        base_drops = sim.metrics.dropped_messages
        base_round = sim.round

        rejoin_links = 0
        tables_refreshed = 0
        for key in wave.recoveries:
            affected, added = apply_recovery(sim, graph, key, recovery_rng, k=k)
            rejoin_links += added
            old = routers.pop(key, None)
            if old is not None:
                retired_route_arounds += old.route_arounds
            router = make_router(sim.network, key, ledger=ledger)
            routers[key] = router
            sim.add_process(router)
            tables_refreshed += refresh_tables(affected)
            # The identity that crashed is gone for good; the fresh one is
            # live everywhere, not just where links changed.
            for peer in routers.values():
                peer.dark.discard(key)

        for key in wave.crashes:
            apply_crash(sim, graph, key)

        # Cursor-based injection: each flushed batch (and each mid-wave
        # crash) occupies one scheduling round, so a mid crash fires while
        # the earlier batches' messages are still in flight.
        mid_by_offset: Dict[int, List[Key]] = {}
        for offset, key in wave.mid_wave:
            mid_by_offset.setdefault(offset, []).append(key)
        cursor = sim.round
        injected: Dict[int, Tuple[Key, Key]] = {}
        batch: List[Tuple[Key, Key, int]] = []

        def flush_batch() -> None:
            nonlocal cursor
            if not batch:
                return
            schedule_injection(cursor, list(batch))
            batch.clear()
            cursor += 1

        def schedule_mid_crash(key: Key) -> None:
            nonlocal cursor
            flush_batch()

            def crash_callback(s: Simulator, key=key) -> None:
                apply_crash(s, graph, key)

            sim.schedule(cursor, crash_callback)
            cursor += 1

        for position, (source, destination) in enumerate(wave.requests):
            for key in mid_by_offset.pop(position, ()):
                schedule_mid_crash(key)
            rid = next_rid
            next_rid += 1
            injected[rid] = (source, destination)
            batch.append((source, destination, rid))
            if len(batch) >= STAGGER:
                flush_batch()
        for offset in sorted(mid_by_offset):
            for key in mid_by_offset[offset]:
                schedule_mid_crash(key)
        flush_batch()
        if injected or wave.mid_wave:
            sim.run()

        injected_rids = set(injected)
        first_pass_delivered = len(injected_rids & ledger.delivered)

        repair_links = 0
        crash_keys = wave.crash_keys
        if crash_keys:
            affected, repair_links = repair_crashes(sim, graph, crash_keys, k=k)
            tables_refreshed += refresh_tables(affected, forget=crash_keys)

        # Bounded retry with backoff: rids with no terminal outcome were
        # lost in flight to a mid-wave crash; re-inject them over the
        # repaired overlay.  Whatever survives every pass is failed.
        retried = 0
        lost = ledger.unresolved(injected_rids)
        first_pass_lost = set(lost)
        for _ in range(MAX_RETRIES):
            if not lost:
                break
            resend: List[Tuple[Key, Key, int]] = []
            for rid in sorted(lost):
                source, destination = injected[rid]
                if source in sim.crashed:
                    ledger.failed.add(rid)
                    continue
                resend.append((source, destination, rid))
            if not resend:
                break
            retried += len(resend)
            schedule_injection(sim.round + RETRY_BACKOFF, resend)
            sim.run()
            lost = ledger.unresolved(injected_rids)
        ledger.failed.update(lost)
        retried_delivered = len(first_pass_lost & ledger.delivered)

        violations = verify_skip_graph_integrity(graph, sim.network, redundancy=k)
        waves.append(
            FailureWaveReport(
                index=index,
                crashes=len(crash_keys),
                requests=len(injected),
                delivered=first_pass_delivered,
                failed=len(injected_rids & ledger.failed),
                route_arounds=route_around_total() - base_route_arounds,
                dropped_messages=sim.metrics.dropped_messages - base_drops,
                repair_links=repair_links,
                tables_refreshed=tables_refreshed,
                rounds=sim.round - base_round,
                recoveries=len(wave.recoveries),
                mid_wave_crashes=len(wave.mid_wave),
                rejoin_links=rejoin_links,
                retried=retried,
                retried_delivered=retried_delivered,
                integrity_violations=violations,
            )
        )

    metrics = sim.metrics
    return FailureArenaReport(
        scenario=scenario.name,
        n=len(scenario.initial_keys),
        k=k,
        waves=waves,
        rounds=metrics.rounds,
        messages=metrics.messages,
        total_bits=metrics.total_bits,
        max_message_bits=metrics.max_message_bits,
        congestion_violations=metrics.congestion_violations,
        dropped_messages=metrics.dropped_messages,
    )
