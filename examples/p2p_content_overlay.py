#!/usr/bin/env python3
"""Peer-to-peer scenario: popularity-skewed lookups with peer churn.

Skip graphs are a peer-to-peer overlay; this example exercises DSG the way a
P2P content network would: lookups follow a Zipf popularity distribution
(a few publishers receive most of the traffic), peers join and leave while
the system runs (Section IV-G), and we compare against SplayNet — the
self-adjusting single-BST overlay the paper cites as closest prior work.

Run with::

    python examples/p2p_content_overlay.py

``EXAMPLES_QUICK=1`` shrinks the instance (the CI smoke shape).
"""

import os

from repro import DSGAdapter, DSGConfig, SplayNetBaseline, generate_workload
from repro.analysis.tables import Table


QUICK = os.environ.get("EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    peer_count, length = (40, 120) if QUICK else (80, 500)
    peers = list(range(1, peer_count + 1))
    trace = generate_workload("zipf", peers, length=length, seed=11, exponent=1.3)

    adapter = DSGAdapter(keys=peers, config=DSGConfig(seed=11))
    dsg = adapter.dsg
    splaynet = SplayNetBaseline(peers)

    # Serve the first half of the trace.
    half = len(trace) // 2
    dsg_run = adapter.serve(trace[:half])
    splay_run_first = splaynet.serve(trace[:half])

    # Churn: a batch of peers leaves, the same number joins (Section IV-G).
    departures = 4 if QUICK else 10
    leaving = peers[4::8][:departures]
    joining = list(range(200, 200 + len(leaving)))
    for peer in leaving:
        adapter.leave(peer)
    for peer in joining:
        adapter.join(peer)
    print(f"after churn: {dsg.n} peers, height {dsg.height()}, structure valid: {dsg.graph.is_valid()}")

    # Serve the second half, remapping requests that touch departed peers.
    alive = set(dsg.graph.real_keys)
    remapped = []
    replacements = {old: new for old, new in zip(leaving, joining)}
    for u, v in trace[half:]:
        u = replacements.get(u, u)
        v = replacements.get(v, v)
        if u in alive and v in alive and u != v:
            remapped.append((u, v))
    for u, v in remapped:
        dsg_run.record(adapter.request(u, v))

    table = Table(
        title="P2P lookups under Zipf popularity (with churn for DSG)",
        columns=["overlay", "requests", "avg routing", "steady-state avg"],
    )
    table.add_row("DSG", dsg_run.requests, dsg_run.average_routing, dsg_run.routing_tail(0.4))
    table.add_row("SplayNet (first half, no churn)", splay_run_first.requests,
                  splay_run_first.average_routing, splay_run_first.routing_tail(0.4))
    table.add_note("SplayNet has no node join/leave procedure, so it only serves the pre-churn half.")
    print(table.render())

    hot = sorted({u for u, _ in trace[:50]})[:4]
    print("\nrouting distance between the four most popular publishers after adaptation:")
    for i, u in enumerate(hot):
        for v in hot[i + 1:]:
            if u in alive and v in alive:
                print(f"  d({u}, {v}) = {dsg.routing_distance(u, v)}")


if __name__ == "__main__":
    main()
