#!/usr/bin/env python3
"""AMF and the CONGEST protocols, stand-alone.

DSG's transformation is built on a handful of distributed primitives:
the balanced skip list, approximate median finding (AMF, Algorithm 2),
distributed sums (Appendix D) and list broadcasts.  This example runs each
primitive both structurally and as a message-passing protocol on the
synchronous CONGEST simulator, and prints the round counts and the maximum
message size in bits — the quantities the paper's model constrains.

Run with::

    python examples/amf_and_protocols_demo.py

``EXAMPLES_QUICK=1`` shrinks the instance (the CI smoke shape).
"""

import math
import os

from repro import BalancedSkipList, approximate_median, build_balanced_skip_graph, distributed_sum
from repro.analysis.tables import Table
from repro.distributed import (
    run_amf_protocol,
    run_list_broadcast,
    run_routing_protocol,
    run_sum_protocol,
)
from repro.simulation.rng import make_rng


QUICK = os.environ.get("EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    n = 48 if QUICK else 128
    a = 4
    rng = make_rng(1)
    values = {i: float(rng.randrange(1000)) for i in range(1, n + 1)}

    # --- structural primitives -------------------------------------------------
    amf = approximate_median(values, a=a, rng=make_rng(2))
    exact = sorted(values.values())[n // 2]
    print(f"AMF over {n} values: approximate median {amf.median:.0f} (exact {exact:.0f}), "
          f"rank interval [{amf.rank_low}, {amf.rank_high}] vs tolerance n/2 +- {n/(2*a):.0f}, "
          f"{amf.rounds} rounds")

    skiplist = BalancedSkipList(list(values), a=a, rng=make_rng(3))
    total = distributed_sum(skiplist, values)
    print(f"distributed sum: {total.total:.0f} (exact {sum(values.values()):.0f}) in {total.rounds} rounds "
          f"over a skip list of height {skiplist.height}")

    # --- message-level protocols ----------------------------------------------
    graph = build_balanced_skip_graph(range(1, n + 1))
    runs = (
        ("skip graph routing", run_routing_protocol(graph, 1, n, seed=4)),
        ("list broadcast", run_list_broadcast(list(range(1, n + 1)), initiator=1, seed=4)),
        ("distributed sum", run_sum_protocol(skiplist, values, seed=4)),
        ("AMF", run_amf_protocol(values, a=a, seed=4)),
    )

    budget_bits = 8 * 32 * math.ceil(math.log2(n))
    table = Table(
        title=f"Message-level protocols on the CONGEST simulator (n={n})",
        columns=["protocol", "rounds", "messages", "max message bits", "budget bits", "congestion violations"],
    )
    for name, result in runs:
        metrics = result.metrics
        table.add_row(name, metrics.rounds, metrics.messages, metrics.max_message_bits,
                      budget_bits, metrics.congestion_violations)
    print()
    print(table.render())


if __name__ == "__main__":
    main()
