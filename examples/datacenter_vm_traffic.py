#!/usr/bin/env python3
"""Data-center scenario: self-adjusting overlay for VM-to-VM traffic.

The paper's conclusion motivates DSG with "VM migration problem in data
centers with levels such as rack-level, intra- and inter-data-center level":
traffic between virtual machines is heavily clustered (applications talk
within their own tier group), and a self-adjusting overlay moves chatty VMs
close to each other without any central coordinator.

This example models 96 VMs whose traffic is 90% intra-application
(community workload), serves the same trace on

* a static skip graph (what a locality-oblivious overlay does),
* the offline-optimal static skip graph (needs the full trace in advance),
* DSG (adjusts online, no knowledge of the future),

and prints the routing-cost comparison plus DSG's transformation overhead.

Run with::

    python examples/datacenter_vm_traffic.py

``EXAMPLES_QUICK=1`` shrinks the instance (the CI smoke shape).
"""

import os

from repro import (
    DSGAdapter,
    DSGConfig,
    OfflineStaticBaseline,
    StaticSkipGraphBaseline,
    generate_workload,
)
from repro.analysis.tables import Table
from repro.core.working_set import working_set_bound
from repro.simulation.rng import make_rng


QUICK = os.environ.get("EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    vm_count, length, communities = (48, 150, 6) if QUICK else (96, 600, 12)
    vms = list(range(1, vm_count + 1))
    # Application groups of 8 VMs each; 95% of the traffic stays inside a
    # group (the rack/application locality the paper's conclusion describes).
    trace = generate_workload(
        "community", vms, length=length, seed=7, communities=communities,
        intra_probability=0.95,
    )

    adapter = DSGAdapter(keys=vms, config=DSGConfig(seed=7), name="DSG (online)")
    dsg_run = adapter.serve(trace)

    static = StaticSkipGraphBaseline(vms, topology="random", rng=make_rng(7))
    static_run = static.serve(trace)

    offline = OfflineStaticBaseline(vms, trace, rng=make_rng(7))
    offline_run = offline.serve(trace)

    table = Table(
        title=f"VM-to-VM overlay routing cost ({len(trace)} requests, {communities} application groups)",
        columns=["overlay", "avg routing", "steady-state avg", "worst routing"],
    )
    for run in (static_run, offline_run, dsg_run):
        table.add_row(run.name, run.average_routing, run.routing_tail(0.5), run.max_routing)
    table.add_note(f"working set bound per request: {working_set_bound(trace, len(vms)) / len(trace):.2f}")
    table.add_note(
        f"DSG adjustment overhead: {dsg_run.average_adjustment:.1f} rounds per request "
        f"(height stayed at {adapter.height()}, {adapter.dummy_count()} dummy nodes)"
    )
    print(table.render())

    speedup = static_run.average_routing / max(dsg_run.routing_tail(0.5), 1e-9)
    print(f"\nsteady-state routing speed-up of DSG over the oblivious overlay: {speedup:.1f}x")


if __name__ == "__main__":
    main()
