"""A routing table read off the node's link row equals the graph-read spec.

:class:`~repro.distributed.routing_protocol.NeighborTable` is built from
the node's own entry of ``network.rows``.  The overlay's one link writer
keeps ``network == skip_graph_network(graph, k)``, so the ``level<d>``
links of a node are its ``k`` nearest list members per side, and the
row-built table must equal the table the old constructor read from the
global skip graph (kept as the spec in
``tests/reference/neighbor_table_reference.py``).  This holds the two
equal for every live key:

* after every op of seeded request / join / leave plans at ``a = 2`` —
  promotes, demotes, dummy insertions and removals, joins and leaves — at
  redundancy k = 1, 2 and 3: the keys whose links the op changed after
  each op, every key after each event;
* after a crash is repaired and after the key recovers as a fresh identity.

Run with the protocols lane (``-m protocols``).
"""

from __future__ import annotations

import pytest
from reference.neighbor_table_reference import GraphNeighborTable, same_table

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed.routing_protocol import (
    NeighborTable,
    _rewire,
    rejoin_crash_links,
    repair_crash_links,
    skip_graph_network,
)
from repro.simulation.rng import make_rng
from repro.skipgraph.build import draw_membership_bits

pytestmark = pytest.mark.protocols


def _assert_tables_agree(network, graph, k, when, keys=None):
    rows = network.rows
    for key in graph.keys if keys is None else keys:
        assert same_table(NeighborTable(rows[key], key), GraphNeighborTable(graph, key, k)), (when, key)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_tables_equal_graph_tables_after_every_op_kind(k):
    rng = make_rng(k)
    planner = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(a=2, seed=k))
    topology = planner.graph.copy()
    network = skip_graph_network(topology, k)
    _assert_tables_agree(network, topology, k, "start")
    kinds = set()
    next_key = 100
    for event in range(40):
        peers = sorted(planner.states)
        draw = rng.random()
        if draw < 0.15:
            planner.add_node(next_key)
            next_key += 1
            ops = planner.last_churn_ops
        elif draw < 0.3:
            planner.remove_node(rng.choice(peers))
            ops = planner.last_churn_ops
        else:
            ops = planner.request(*rng.sample(peers, 2), keep_result=False).ops
        for op in ops:
            affected, _ = _rewire(network, topology, op, k)  # the op's key included
            kinds.add(type(op).__name__)
            live = [key for key in affected if key in topology]
            _assert_tables_agree(network, topology, k, (event, op), live)
        _assert_tables_agree(network, topology, k, event)
    assert kinds == {"PromoteOp", "DemoteOp", "DummyInsertOp", "DummyRemoveOp", "NodeJoinOp", "NodeLeaveOp"}
    assert topology.dummy_node_count

    # A crash removes the node's links; the repair closes the lists over it.
    victims = rng.sample(planner.graph.real_keys, 3)
    for victim in victims:
        network.remove_node(victim)
    for victim in victims:
        repair_crash_links(network, topology, victim, k)
    _assert_tables_agree(network, topology, k, "repaired")
    for victim in victims:
        bits = draw_membership_bits(topology, victim, rng)
        rejoin_crash_links(network, topology, victim, tuple(bits), k)
        _assert_tables_agree(network, topology, k, ("recovered", victim))


def test_a_lone_node_has_an_empty_table():
    planner = DynamicSkipGraph(keys=[7])
    network = skip_graph_network(planner.graph)
    table = NeighborTable(network.rows[7], 7)
    assert same_table(table, GraphNeighborTable(planner.graph, 7))
    assert table.top_level == 0 and table.size_words() == 0
    assert table.next_hop(9, 0) == (None, -1)
