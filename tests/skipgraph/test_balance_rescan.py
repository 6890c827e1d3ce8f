"""The full a-balance rescan against its tuple-prefix oracle.

:func:`~repro.skipgraph.balance.a_balance_violations` must return exactly
the list ``tests/reference/balance_reference.py`` returns — the same
violations in the same order (level, then list by first member key, then
runs left to right), since dummy placement and with it the RNG stream
follow that order — on balanced, random, hand-drawn and adjusted graphs
with dummies, for a = 1..4.
"""

import random

import pytest
from reference.balance_reference import a_balance_violations_reference

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.simulation.rng import make_rng
from repro.skipgraph import (
    SkipGraph,
    SkipGraphNode,
    a_balance_violations,
    build_balanced_skip_graph,
    build_skip_graph,
)

pytestmark = pytest.mark.kernel

A_VALUES = (1, 2, 3, 4)


def _assert_same(graph):
    for a in A_VALUES:
        assert a_balance_violations(graph, a) == a_balance_violations_reference(graph, a), a


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64, 257])
def test_balanced_graphs(n):
    _assert_same(build_balanced_skip_graph(range(1, n + 1)))


@pytest.mark.parametrize("seed", range(8))
def test_random_graphs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 400)
    keys = rng.sample(range(1, 10 * n), n)
    graph = build_skip_graph(keys, make_rng(seed))
    assert a_balance_violations_reference(graph, 2)  # the check has something to compare
    _assert_same(graph)


@pytest.mark.parametrize("seed", range(8))
def test_hand_drawn_vectors_of_any_length(seed):
    """Vectors that stop at every depth, shared full vectors included."""
    rng = random.Random(100 + seed)
    keys = sorted(rng.sample(range(1, 5000), rng.randint(1, 300)))
    depth = rng.randint(1, 6)
    graph = SkipGraph(
        SkipGraphNode(key=key, membership=[rng.randint(0, 1) for _ in range(rng.randint(0, depth))])
        for key in keys
    )
    _assert_same(graph)


@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("a", [2, 3, 4])
def test_adjusted_graphs_with_dummies(a, balanced):
    """Served requests and churn (dummies placed and destroyed); with the
    maintenance off the adjusted graph keeps its violations."""
    rng = random.Random(a)
    keys = list(range(1, 129))
    config = DSGConfig(a=a, seed=a, maintain_a_balance=balanced)
    dsg = DynamicSkipGraph(keys=keys, config=config)
    next_key = 1000
    for step in range(60):
        real = dsg.graph.real_keys
        if step % 10 == 9:
            dsg.add_node(next_key)
            next_key += 1
        elif step % 10 == 4 and len(real) > 8:
            dsg.remove_node(rng.choice(real))
        else:
            u, v = rng.sample(real, 2)
            dsg.request(u, v)
        if step % 15 == 0:
            _assert_same(dsg.graph)
    if balanced:
        assert dsg.dummy_count() > 0
    _assert_same(dsg.graph)
