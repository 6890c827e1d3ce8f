"""A routing table read off the node's link row equals its two specs.

:class:`~repro.distributed.routing_protocol.NeighborTable` is built from
the node's own entry of ``network.rows``.  The overlay's one link writer
keeps ``network == skip_graph_network(graph, k)``, so the ``level<d>``
links of a node are its ``k`` nearest list members per side, and the
row-built table must equal the table the old constructor read from the
global skip graph.  Both specs live in
``tests/reference/neighbor_table_reference.py``:

* ``GraphNeighborTable``: the same candidates at every level
  (``same_table``, which reads a table through ``next_hop`` alone);
* ``ReferenceNeighborTable``, the dict-of-lists layout the table had
  before it became two tuples: the same ``top_level``, ``size_words()``
  and ``next_hop(d, level, dark)`` for every destination, every level up
  to ``top_level + 1`` and four dark sets (none, the nearest left, the
  nearest right, a seeded random subset of the row).

Both are checked over the same seeded overlays, for every live key:

* after every op of seeded request / join / leave plans at ``a = 2`` —
  promotes, demotes, dummy insertions and removals, joins and leaves — at
  redundancy k = 1, 2 and 3: the keys whose links the op changed after
  each op, every key after each event;
* after a crash is repaired and after the key recovers as a fresh identity.

The graph-table walk also holds ``size_words()`` to the row it was read
from (one word per (neighbour, label) entry, ROADMAP item 22), and a
guard holds the bytes a built table keeps to at most 1.5 KB on a
balanced 1 024-node overlay at k = 1, where one pair of lists per level
kept 2.7 KB.  Run with the protocols lane (``-m protocols``).
"""

from __future__ import annotations

import tracemalloc

import pytest
from reference.neighbor_table_reference import GraphNeighborTable, ReferenceNeighborTable, same_table

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed.routing_protocol import (
    NeighborTable,
    _rewire,
    rejoin_crash_links,
    repair_crash_links,
    skip_graph_network,
)
from repro.simulation.rng import make_rng
from repro.skipgraph.build import build_balanced_skip_graph, draw_membership_bits

pytestmark = pytest.mark.protocols

#: Seeded events (requests, joins, leaves) each overlay plays before its crashes.
EVENTS = 40


def _seeded_overlay(k):
    """Yield ``(when, network, topology, keys)`` after every op, event, repair and recovery.

    ``keys`` are the live keys whose tables the step may have changed: the
    op's affected keys after an op, every key after an event.
    """
    rng = make_rng(k)
    planner = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(a=2, seed=k))
    topology = planner.graph.copy()
    network = skip_graph_network(topology, k)
    yield "start", network, topology, topology.keys
    kinds = set()
    next_key = 100
    for event in range(EVENTS):
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
            yield (event, op), network, topology, [key for key in affected if key in topology]
        yield event, network, topology, topology.keys
    assert kinds == {"PromoteOp", "DemoteOp", "DummyInsertOp", "DummyRemoveOp", "NodeJoinOp", "NodeLeaveOp"}
    assert topology.dummy_node_count

    # A crash removes the node's links; the repair closes the lists over it.
    victims = rng.sample(planner.graph.real_keys, 3)
    for victim in victims:
        network.remove_node(victim)
    for victim in victims:
        repair_crash_links(network, topology, victim, k)
    yield "repaired", network, topology, topology.keys
    for victim in victims:
        bits = draw_membership_bits(topology, victim, rng)
        rejoin_crash_links(network, topology, victim, tuple(bits), k)
        yield ("recovered", victim), network, topology, topology.keys


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_tables_equal_graph_tables_after_every_op_kind(k):
    for when, network, topology, keys in _seeded_overlay(k):
        rows = network.rows
        for key in keys:
            table = NeighborTable(rows[key], key)
            assert same_table(table, GraphNeighborTable(topology, key, k)), (when, key)
            # The audited size is the row's (neighbour, label) entries, not a self-report.
            assert table.size_words() == sum(len(labels) for labels in rows[key].values()), (when, key)


def _dark_sets(reference, row, rng):
    """No dark set, the nearest left, the nearest right and a seeded random half of the row."""
    lefts, rights = reference.candidates.get(0, ([], []))
    return [None, set(lefts[:1]), set(rights[:1]), {neighbor for neighbor in row if rng.random() < 0.5}]


def _differential_steps(k):
    """The overlay's steps the differential test reads in full.

    The start, the first op of each kind, the last event (dummies
    present), the repair and each recovery: every op kind and every
    failure step, without reading each of the ~5 000 ops' tables.
    """
    kinds = set()
    for when, network, topology, keys in _seeded_overlay(k):
        if isinstance(when, tuple) and not isinstance(when[0], str):
            kind = type(when[1])
            if kind in kinds:
                continue
            kinds.add(kind)
        elif isinstance(when, int) and when != EVENTS - 1:
            continue
        yield when, network, topology, keys


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tables_route_exactly_as_the_dict_of_lists_reference(k):
    rng = make_rng(100 + k)
    for when, network, topology, keys in _differential_steps(k):
        rows = network.rows
        destinations = sorted(rows)
        for key in keys:
            table, reference = NeighborTable(rows[key], key), ReferenceNeighborTable(rows[key], key)
            assert (table.top_level, table.size_words()) == (reference.top_level, reference.size_words()), (when, key)
            for dark in _dark_sets(reference, rows[key], rng):
                for level in range(reference.top_level + 2):
                    for destination in destinations:
                        expected = reference.next_hop(destination, level, dark)
                        assert table.next_hop(destination, level, dark) == expected, (when, key, level, dark)


def test_a_balanced_k1_table_keeps_at_most_one_and_a_half_kilobytes():
    network = skip_graph_network(build_balanced_skip_graph(range(1, 1025)), 1)
    rows = network.rows
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tables = [NeighborTable(row, key) for key, row in rows.items()]
        per_table = (tracemalloc.get_traced_memory()[0] - before) / len(tables)
    finally:
        tracemalloc.stop()
    assert len(tables) == 1024
    assert per_table <= 1536, f"{per_table:.0f} B per table"


def test_a_level_whose_links_all_crashed_routes_as_the_reference():
    # Key 10's level-1 flanks crashed before the repair: levels 0 and 2 keep links, level 1 none.
    row = {5: frozenset({"level0"}), 20: frozenset({"level0", "level2"}), 2: frozenset({"level2"})}
    table, reference = NeighborTable(row, 10), ReferenceNeighborTable(row, 10)
    assert (table.top_level, table.size_words()) == (reference.top_level, reference.size_words()) == (3, 4)
    for dark in (None, {5}, {20}, {2, 20}):
        for level in range(5):
            for destination in range(25):
                assert table.next_hop(destination, level, dark) == reference.next_hop(destination, level, dark)


def test_a_lone_node_has_an_empty_table():
    planner = DynamicSkipGraph(keys=[7])
    network = skip_graph_network(planner.graph)
    table = NeighborTable(network.rows[7], 7)
    assert same_table(table, GraphNeighborTable(planner.graph, 7))
    assert table.top_level == 0 and table.size_words() == 0
    assert table.next_hop(9, 0) == (None, -1)
