"""Property test for the shared forwarding core (``GreedyForwarder``).

The plain router and the DSG peer both subclass one base that owns the
greedy next hop with the dark set, strand accounting, the per-link FIFO
queue and the flush-with-re-route loop; each keeps its own wire format.
One crash-under-load schedule is driven through both, on separate
simulators over the same k-redundant overlay, and must show what
``_flush`` promises:

* at most one send per link per round (strict CONGEST mode would raise;
  the recorded sends are checked as well);
* a hop re-routed around a dark neighbour is never counted: the DSG
  peer's ``hops`` at arrival equals the number of sends its route made;
* the two wire formats take the same decisions — same sends, round for
  round and link for link, hence the same ``route_arounds`` / ``failed``
  totals and the same delivered / stranded request ids;
* every message kind has the size it had before the two copies of the
  core were merged (constants recorded from the parent commit:
  ``payload_size_bits`` charges key names, and ``total_bits`` is pinned).

Run with the failure lane (``-m failure``).
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.local_ops import (
    DemoteOp,
    DummyInsertOp,
    DummyRemoveOp,
    PromoteOp,
    op_to_payload,
)
from repro.distributed import DSGProcess, install_routing, skip_graph_network
from repro.distributed.routing_protocol import GreedyForwarder, RouteLedger, make_router
from repro.simulation import Simulator, SimulatorConfig
from repro.simulation.rng import make_rng
from repro.skipgraph import build_skip_graph

pytestmark = pytest.mark.failure

#: ``size_bits`` per message kind at the parent commit (7057663).
ROUTER_ROUTE_BITS = {False: 264, True: 320}  # without / with a rid
DSG_ROUTE_BITS = 296
DSG_OP_BITS = {PromoteOp: 432, DemoteOp: 392, DummyInsertOp: 432, DummyRemoveOp: 352}

N = 48


def _recording_simulator(graph, k, seed):
    """A strict simulator whose accepted sends are logged as
    ``(round, sender, receiver, message)``."""
    sim = Simulator(
        skip_graph_network(graph, k=k),
        SimulatorConfig(seed=seed, strict=True, max_rounds=10_000),
    )
    sends = []
    validate = sim._validate_outbox

    def record(outbox, stats):
        accepted = validate(outbox, stats)
        sends.extend((sim.round, m.sender, m.receiver, m) for m in accepted)
        return accepted

    sim._validate_outbox = record
    return sim, sends


def _schedule(seed, k):
    """One burst of requests from distinct sources, then crashes under load.

    Everything is injected in one round (the router initiates a request
    after that round's relays, the DSG peer before them; with empty inboxes
    the two orders coincide), and the victims — never sources, sometimes
    destinations, so some requests must strand — die over the next rounds
    while the routes are in flight.
    """
    rng = make_rng(seed)
    keys = list(range(1, N + 1))
    victims = rng.sample(keys, k + 1)
    batch = []
    for rid, source in enumerate(rng.sample([key for key in keys if key not in victims], 32)):
        destination = rng.choice(victims if rng.random() < 0.15 else keys)
        if destination != source:
            batch.append((source, destination, rid))
    crashes = [(1 + index % 3, victim) for index, victim in enumerate(victims)]
    return batch, crashes


@pytest.mark.parametrize("k", [1, 2, 3])
@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=12, deadline=None)
def test_both_wire_formats_share_one_forwarding_core(k, seed):
    graph = build_skip_graph(range(1, N + 1), make_rng(seed))
    batch, crashes = _schedule(seed, k)

    # --- the plain router ----------------------------------------------------
    router_sim, router_sends = _recording_simulator(graph, k, seed)
    ledger = RouteLedger()
    routers = install_routing(router_sim, graph, ledger=ledger)
    router_sim.run()
    base = router_sim.round

    def inject_routers(sim):
        for source, destination, rid in batch:
            routers[source].requests.append((destination, rid))
            routers[source].done = False

    router_sim.schedule(base, inject_routers)
    for offset, victim in crashes:
        router_sim.schedule(base + offset, lambda sim, victim=victim: sim.crash(victim))
    router_sim.run()

    # --- the DSG peer ----------------------------------------------------------
    dsg_sim, dsg_sends = _recording_simulator(graph, k, seed)
    route_done, ops_done = {}, {}
    rows = dsg_sim.network.rows  # k-redundant links: k-redundant tables
    peers = {key: DSGProcess(key, graph, rows[key], route_done, ops_done) for key in graph.keys}
    dsg_sim.add_processes(peers.values())
    dsg_sim.run()
    assert dsg_sim.round == base

    def inject_peers(sim):
        for source, destination, rid in batch:
            peers[source].initiate_route(destination, rid)

    dsg_sim.schedule(base, inject_peers)
    for offset, victim in crashes:
        dsg_sim.schedule(base + offset, lambda sim, victim=victim: sim.crash(victim))
    dsg_sim.run()

    assert all(isinstance(process, GreedyForwarder) for process in (routers[1], peers[1]))

    # At most one send per link per round.
    for sends in (router_sends, dsg_sends):
        per_link = Counter((round_index, sender, receiver) for round_index, sender, receiver, _ in sends)
        assert max(per_link.values()) == 1

    # Same decisions under both wire formats: round for round, link for link.
    assert [send[:3] for send in router_sends] == [send[:3] for send in dsg_sends]
    assert [m.payload["rid"] for *_, m in router_sends] == [m.payload["rid"] for *_, m in dsg_sends]

    def totals(processes, name):
        return sum(getattr(process, name) for process in processes.values())

    assert totals(routers, "route_arounds") == totals(peers, "route_arounds")
    assert totals(routers, "failed") == totals(peers, "failed")
    assert len(ledger.failed) == totals(peers, "failed")
    assert ledger.delivered == set(route_done)
    assert router_sim.metrics.failed_requests == dsg_sim.metrics.failed_requests
    assert router_sim.metrics.dropped_messages == dsg_sim.metrics.dropped_messages
    assume(totals(peers, "route_arounds") > 0)  # the crashes did land under load

    # A re-routed hop is never counted: hops at arrival == sends made.
    sends_of = Counter(m.payload["rid"] for *_, m in dsg_sends)
    assert route_done  # most requests do arrive
    for rid, hops in route_done.items():
        assert hops == sends_of[rid]

    # Wire sizes, byte for byte.
    assert {m.size_bits for *_, m in router_sends} == {ROUTER_ROUTE_BITS[True]}
    assert {m.size_bits for *_, m in dsg_sends} == {DSG_ROUTE_BITS}


def test_message_sizes_match_the_parent_commit():
    """The remaining kinds: a rid-less router route and the four op kinds
    a request plan ships, each sent over one real hop."""
    graph = build_skip_graph(range(1, N + 1), make_rng(1))
    sim, sends = _recording_simulator(graph, 1, 1)
    router = make_router(sim.network, 1, requests=[N])
    sim.add_processes([router] + [make_router(sim.network, key) for key in graph.keys if key != 1])
    sim.run()
    assert {m.size_bits for *_, m in sends} == {ROUTER_ROUTE_BITS[False]}

    sim, sends = _recording_simulator(graph, 1, 1)
    route_done, ops_done = {}, {}
    peers = {key: DSGProcess(key, graph, sim.network.rows[key], route_done, ops_done) for key in graph.keys}
    sim.add_processes(peers.values())
    ops = [PromoteOp(N, 1, 1), DemoteOp(N, 0), DummyInsertOp(N, (1, 0)), DummyRemoveOp(N)]
    payloads = [(N, {"to": N, "rid": 7, **op_to_payload(op)}) for op in ops]
    sim.schedule(0, lambda s: peers[1].initiate_ops(payloads))
    sim.run()
    assert ops_done == {7: len(ops)}
    by_tag = {}
    for *_, m in sends:
        by_tag.setdefault(m.payload["t"], set()).add(m.size_bits)
    assert by_tag == {
        op_to_payload(op)["t"]: {DSG_OP_BITS[type(op)]} for op in ops
    }
