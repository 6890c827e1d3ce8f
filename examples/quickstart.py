#!/usr/bin/env python3
"""Quickstart: a self-adjusting skip graph in a dozen lines.

Builds a 64-node Dynamic Skip Graph, routes a few requests, and shows the
effect of self-adjustment: once a pair has communicated, it is directly
linked and subsequent requests between the two cost no intermediate hops.

Run with::

    python examples/quickstart.py

``EXAMPLES_QUICK=1`` shrinks the instance (the CI smoke shape).
"""

import os

from repro import DSGConfig, DynamicSkipGraph

QUICK = os.environ.get("EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    n = 24 if QUICK else 64
    dsg = DynamicSkipGraph(keys=range(1, n + 1), config=DSGConfig(seed=42))
    print(f"built {dsg.n}-node skip graph, height {dsg.height()}")

    u, v = 3, n - 6
    first = dsg.request(u, v)
    print(
        f"request ({u}, {v}): routed over {first.routing_cost} intermediate nodes, "
        f"then adjusted in {first.transformation_rounds} rounds "
        f"(working set number {first.working_set_number})"
    )

    second = dsg.request(u, v)
    print(
        f"request ({u}, {v}) again: {second.routing_cost} intermediate nodes "
        f"(directly linked: {dsg.are_adjacent(u, v)})"
    )

    # A small cluster of nodes that keep talking to each other.
    cluster = [u, v, n // 4, 2 * n // 3]
    for _ in range(3 if QUICK else 10):
        for i, u in enumerate(cluster):
            dsg.request(u, cluster[(i + 1) % len(cluster)])
    distances = {
        (u, v): dsg.routing_distance(u, v)
        for i, u in enumerate(cluster)
        for v in cluster[i + 1 :]
    }
    print("\nafter the cluster kept communicating, intra-cluster distances are:")
    for (u, v), distance in distances.items():
        print(f"  d({u:>2}, {v:>2}) = {distance}")
    print(f"\naverage cost per request so far (Eq. 1): {dsg.costs.average_cost:.1f} rounds")
    print(f"working set bound WS(sigma) of the history: {dsg.working_set_bound():.1f}")
    print(f"skip graph height is still {dsg.height()} (O(log n))")


if __name__ == "__main__":
    main()
