"""Differential test: the single-pass integrity sweep against its oracle.

``tests/reference/integrity_reference.py`` is the verifier as it stood
before the sweep was rewritten (level lists derived per check, every list
walked through ``neighbors``, links keyed by ``frozenset``, the network
read link by link).  The production sweep derives once, decides each
level list clean from its cached members and position map (if one is
cached), and decides
the network clean by counting its label triples, descending to per-node
walks and per-link diffing only where that decision fails — so the
property worth pinning is that it *reports exactly what the slow one
reports*: clean iff clean, and on a corrupted structure the same set of
violation strings at the same (capped) length.  Corruptions are drawn
from every class the checker exists for — including a stale position map
behind an intact cached list and an emptied label set, the two the fast
decisions must not miss, and a node map split from the base list, which
both must report without raising — and stacked up to three deep, on seed,
self-adjusted and dummy-laden graphs, at every redundancy.
"""

import copy
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.integrity_reference import verify_skip_graph_integrity as reference_verify
from test_integrity import _adjusted_graph, _dummy_laden_graph

from repro.distributed.routing_protocol import skip_graph_network
from repro.simulation.rng import make_rng
from repro.skipgraph import MembershipVector, build_skip_graph, verify_skip_graph_integrity

pytestmark = pytest.mark.failure


@lru_cache(maxsize=None)
def _template(kind, variant):
    if kind == "seed":
        return build_skip_graph(range(1, 41), rng=make_rng(variant))
    if kind == "adjusted":
        return _adjusted_graph(n=32, length=120, seed=variant)
    return _dummy_laden_graph(seed=variant)


# ----------------------------------------------------------------- corruptions
# Each takes (graph, network, rng) and damages one derived view in place.


def _break_level_link(graph, network, rng):
    entries = [entry for entry, members in graph._list_cache.items() if len(members) >= 2]
    members = graph._list_cache[rng.choice(sorted(entries))]
    index = rng.randrange(len(members) - 1)
    members[index], members[index + 1] = members[index + 1], members[index]
    graph._pos_cache.clear()


def _stale_position_map(graph, network, rng):
    # The cached list stays intact; its key -> index map goes stale.
    entries = [entry for entry, members in graph._list_cache.items() if len(members) >= 2]
    entry = rng.choice(sorted(entries))
    positions = graph._positions(*entry, graph._list_cache[entry])
    first, second = rng.sample(sorted(positions), 2)
    positions[first], positions[second] = positions[second], positions[first]


def _unsort_base_list(graph, network, rng):
    base = graph._sorted_keys
    index = rng.randrange(len(base) - 1)
    base[index], base[index + 1] = base[index + 1], base[index]


def _rewrite_membership(graph, network, rng):
    node = graph.node(rng.choice(sorted(graph._nodes)))
    bits = list(node.membership.bits) or [0]
    flip = rng.randrange(len(bits))
    bits[flip] = 1 - bits[flip]
    node.membership = MembershipVector(tuple(bits))


def _split_node_map_from_base_list(graph, network, rng):
    # One key in the node map or in the base list only: the two shapes a
    # bulk splice that stopped half way would leave behind.
    key = rng.choice(sorted(graph._nodes.keys() & set(graph.keys)))
    if rng.random() < 0.5:
        graph._base_list().remove(key)
    else:
        del graph._nodes[key]


def _drop_link(graph, network, rng):
    u, v = rng.choice(sorted(network.edges()))
    network.remove_link(u, v)


def _add_spurious_link(graph, network, rng):
    keys = sorted(network.nodes)
    u = rng.choice(keys)
    strangers = [key for key in keys if key != u and not network.has_link(u, key)]
    network.add_link(u, rng.choice(strangers), label=f"level{rng.randrange(3)}")


def _relabel_link(graph, network, rng):
    u, v = rng.choice(sorted(network.edges()))
    labels = sorted(network.labels(u, v))
    if len(labels) > 1 and rng.random() < 0.5:
        network.remove_link(u, v, label=rng.choice(labels))
    else:
        network.add_link(u, v, label="level99")


def _empty_label_set(graph, network, rng):
    u, v = rng.choice(sorted(network.edges()))
    network._rows[u][v] = network._rows[v][u] = set()


def _poke_index(graph, network, rng):
    mode = rng.randrange(4)
    if mode == 0:
        prefix = rng.choice(sorted(graph._prefix_counts))
        graph._prefix_counts[prefix] += 1
    elif mode == 1:
        graph._dummy_prefix_counts[(0,)] = graph._dummy_prefix_counts.get((0,), 0) + 1
    elif mode == 2:
        graph._dummy_count += 1
    else:
        graph._multi_prefixes_per_level[1] = graph._multi_prefixes_per_level.get(1, 0) + 1


CORRUPTIONS = [
    _break_level_link,
    _stale_position_map,
    _unsort_base_list,
    _rewrite_membership,
    _split_node_map_from_base_list,
    _drop_link,
    _add_spurious_link,
    _relabel_link,
    _empty_label_set,
    _poke_index,
]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["seed", "adjusted", "dummy-laden"]),
    variant=st.integers(1, 3),
    k=st.integers(1, 3),
    with_network=st.booleans(),
    corruptions=st.lists(st.sampled_from(CORRUPTIONS), max_size=3),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from([3, 20, 1000]),
)
def test_sweep_reports_what_the_reference_reports(
    kind, variant, k, with_network, corruptions, seed, cap
):
    graph = _template(kind, variant).copy()
    network = skip_graph_network(graph, k=k)
    # Clean <=> clean (the clean sweep also fills the list caches the
    # level-link corruption needs).
    assert verify_skip_graph_integrity(graph, network, redundancy=k) == []
    assert reference_verify(graph, network, redundancy=k) == []

    rng = make_rng(seed)
    for corrupt in corruptions:
        corrupt(graph, network, rng)
    # A sweep may fill caches from the damaged state; give each verifier
    # its own copy so neither sees the other's side effects.
    graph_ref, network_ref = copy.deepcopy((graph, network))
    if not with_network:
        network = network_ref = None
    got = verify_skip_graph_integrity(graph, network, max_violations=cap, redundancy=k)
    want = reference_verify(graph_ref, network_ref, max_violations=cap, redundancy=k)
    assert set(got) == set(want)
    assert len(got) == len(want)
    if not corruptions:
        assert got == []
