"""The builders and ``SkipGraph.copy()`` against the per-key replay.

The balanced and the random builder must leave exactly the derived indexes
that inserting their nodes one ``add_node`` at a time leaves (the oracles
in ``tests/reference/build_reference.py``): node vectors, base list, prefix
counts, multi-prefix counts per level and both dummy indexes.  The random
builder must also leave its generator where the replay's draws leave it.  A copy must
equal its source, dummies included, carry no a-balance tracker, and share
no mutable state with it: a mutation on either side leaves the other as it
was.
"""

import random

import pytest
from reference.build_reference import build_balanced_skip_graph_reference, build_skip_graph_reference
from reference.derived_state_reference import derived_state, derived_state_from_scratch

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.simulation.rng import make_rng
from repro.skipgraph import SkipGraphNode, build_balanced_skip_graph, build_skip_graph
from repro.skipgraph.integrity import verify_skip_graph_integrity

pytestmark = pytest.mark.kernel

SIZES = list(range(71)) + [1000, 4097, 16385]


def _indexes(graph):
    """Every derived index but the list caches (a caching decision), plus
    each node's vector and dummy flag."""
    state = derived_state(graph)
    for cache in ("lists", "positions", "buffers_without_a_list"):
        del state[cache]
    state["nodes"] = {
        key: (node.membership.bits, node.is_dummy)
        for key, node in graph._nodes.items()
    }
    return state


@pytest.mark.parametrize("n", SIZES)
def test_balanced_build_equals_the_per_key_replay(n):
    keys = [3 * rank + 1 for rank in range(n)]
    shuffled = keys + keys[: n // 4]  # duplicates and any order are accepted
    random.Random(n).shuffle(shuffled)
    graph = build_balanced_skip_graph(shuffled)
    assert _indexes(graph) == _indexes(build_balanced_skip_graph_reference(keys))
    assert verify_skip_graph_integrity(graph) == []
    clone = graph.copy()
    assert _indexes(clone) == _indexes(graph)
    assert verify_skip_graph_integrity(clone) == []


@pytest.mark.parametrize("n", SIZES[:-1])
def test_random_build_equals_the_per_key_replay(n):
    keys = [3 * rank + 1 for rank in range(n)]
    for seed in range(3 if n <= 70 else 1):
        rng, reference_rng = make_rng(seed), make_rng(seed)
        graph = build_skip_graph(reversed(keys), rng)
        assert _indexes(graph) == _indexes(build_skip_graph_reference(keys, reference_rng))
        assert rng.getstate() == reference_rng.getstate()
        assert verify_skip_graph_integrity(graph) == []
        assert _indexes(graph.copy()) == _indexes(graph)


def _served_graph():
    """A 64-node DSG graph after traffic: dummies, a tracker, cached lists."""
    dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=5))
    rng = random.Random(5)
    for _ in range(24):
        u, v = rng.sample(range(1, 65), 2)
        dsg.request(u, v)
    dsg.add_node(70)
    dsg.remove_node(9)
    graph = dsg.graph
    assert graph.dummy_node_count > 0 and graph.tracker is not None and graph._list_cache
    return graph


def _real(graph, index):
    return graph.real_keys[index]


MUTATIONS = {
    "set_membership": lambda g: g.set_membership(_real(g, 3), g.membership(_real(g, 3)).bits[:1] + (1, 1, 0)),
    "promote_run": lambda g: g.promote_run([_real(g, 5)], len(g.membership(_real(g, 5))) + 1, 1),
    "demote_run": lambda g: g.demote_run([_real(g, 6)], 1),
    "remove_node": lambda g: g.remove_node(_real(g, 7)),
    "insert_run": lambda g: g.insert_run([
        SkipGraphNode(key=0.5, membership=(0, 1), is_dummy=True),
        SkipGraphNode(key=200, membership=(1, 0, 1)),
    ]),
}


def test_copy_equals_its_source_without_a_tracker():
    graph = _served_graph()
    clone = graph.copy()
    assert _indexes(clone) == _indexes(graph)
    assert derived_state(clone) == derived_state_from_scratch(clone)
    assert clone.tracker is None
    assert verify_skip_graph_integrity(clone) == []


@pytest.mark.parametrize("side", ["source", "clone"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_copy_and_source_are_independent(mutation, side):
    graph = _served_graph()
    clone = graph.copy()
    mutated, other = (graph, clone) if side == "source" else (clone, graph)
    snapshot = _indexes(other)
    before = _indexes(mutated)
    MUTATIONS[mutation](mutated)
    assert _indexes(mutated) != before
    assert derived_state(mutated) == derived_state_from_scratch(mutated)
    assert _indexes(other) == snapshot
    assert derived_state(other) == derived_state_from_scratch(other)
