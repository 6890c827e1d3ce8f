"""Unit tests for the dynamic network topology container."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import Network
from repro.simulation.errors import LinkError

pytestmark = pytest.mark.engine


@pytest.fixture
def triangle():
    net = Network()
    net.add_link(1, 2, label="level0")
    net.add_link(2, 3, label="level0")
    net.add_link(1, 3, label="level1")
    return net


class TestNodes:
    def test_add_node_idempotent(self):
        net = Network()
        net.add_node("a")
        net.add_node("a")
        assert len(net) == 1

    def test_contains(self):
        net = Network()
        net.add_node(5)
        assert 5 in net
        assert 6 not in net

    def test_remove_node_drops_incident_links(self, triangle):
        triangle.remove_node(2)
        assert not triangle.has_node(2)
        assert not triangle.has_link(1, 2)
        assert triangle.has_link(1, 3)

    def test_remove_missing_node_raises(self):
        net = Network()
        with pytest.raises(LinkError):
            net.remove_node(42)


class TestLinks:
    def test_add_link_registers_nodes(self):
        net = Network()
        net.add_link("x", "y")
        assert net.has_node("x") and net.has_node("y")
        assert net.has_link("x", "y") and net.has_link("y", "x")

    def test_self_link_rejected(self):
        net = Network()
        with pytest.raises(LinkError):
            net.add_link(1, 1)

    def test_remove_link(self, triangle):
        triangle.remove_link(1, 2)
        assert not triangle.has_link(1, 2)

    def test_remove_missing_link_raises(self, triangle):
        with pytest.raises(LinkError):
            triangle.remove_link(1, 99)

    def test_neighbors(self, triangle):
        assert triangle.neighbors(1) == {2, 3}
        assert triangle.degree(1) == 2

    def test_neighbors_of_unknown_node_raises(self, triangle):
        with pytest.raises(LinkError):
            triangle.neighbors(99)

    def test_labels_accumulate(self):
        net = Network()
        net.add_link(1, 2, label="level0")
        net.add_link(1, 2, label="level1")
        assert net.labels(1, 2) == {"level0", "level1"}

    def test_remove_single_label_keeps_link(self):
        net = Network()
        net.add_link(1, 2, label="level0")
        net.add_link(1, 2, label="level1")
        net.remove_link(1, 2, label="level0")
        assert net.has_link(1, 2)
        net.remove_link(1, 2, label="level1")
        assert not net.has_link(1, 2)

    def test_remove_unknown_label_raises(self):
        net = Network()
        net.add_link(1, 2, label="level0")
        with pytest.raises(LinkError):
            net.remove_link(1, 2, label="level7")
        assert net.has_link(1, 2)  # the failed removal left the link intact
        net.remove_link(1, 2)  # label=None still removes unconditionally
        assert not net.has_link(1, 2)

    def test_edge_count(self, triangle):
        assert triangle.edge_count() == 3
        assert len(list(triangle.edges())) == 3

    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_link(1, 2)
        assert triangle.has_link(1, 2)
        assert not clone.has_link(1, 2)
        assert clone.labels(2, 3) == {"level0"}


class TestSharedLabelSets:
    def test_labels_are_one_frozenset_per_link(self):
        net = Network()
        net.add_link(1, 2, label="level0")
        net.add_link(1, 2, label="level1")
        labels = net.labels(1, 2)
        assert type(labels) is frozenset
        assert labels is net.labels(2, 1) is net.rows[1][2] is net.rows[2][1]

    def test_equal_labellings_share_one_object(self):
        net = Network()
        net.add_link(1, 2, label="level0")
        net.add_link(3, 4, label="level0")
        net.add_link(5, 6, label="level1")
        net.add_link(5, 6, label="level0")
        net.add_link(7, 8, label="level0")
        net.add_link(7, 8, label="level1")
        assert net.labels(1, 2) is net.labels(3, 4)
        assert net.labels(5, 6) is net.labels(7, 8)
        net.remove_link(5, 6, label="level1")
        assert net.labels(5, 6) is net.labels(1, 2)

    def test_copy_shares_label_sets(self, triangle):
        clone = triangle.copy()
        for u, v in triangle.edges():
            assert clone.rows[u][v] is triangle.rows[u][v]
        clone.add_link(1, 4, label="level0")
        assert clone.labels(1, 4) is triangle.labels(1, 2)

    def test_a_skip_graph_overlay_holds_a_few_hundred_label_sets(self):
        from repro.distributed.routing_protocol import skip_graph_network
        from repro.simulation.rng import make_rng
        from repro.skipgraph.build import build_skip_graph

        network = skip_graph_network(build_skip_graph(range(4096), make_rng(3)))
        label_sets = [labels for row in network.rows.values() for labels in row.values()]
        assert len(label_sets) == 2 * network.edge_count() > 40_000
        assert len({id(labels) for labels in label_sets}) == len(set(label_sets)) <= 300


# --------------------------------------------------------------------------
# Model-based test: the row table against a naive set of (link, label) triples.

NODES = list(range(6))
LABELS = [None, "a", "b"]

_node = st.sampled_from(NODES)
_label = st.sampled_from(LABELS)
_operation = st.one_of(
    st.tuples(st.just("add_node"), _node),
    st.tuples(st.just("add_link"), _node, _node, _label),
    st.tuples(st.just("remove_link"), _node, _node, _label),
    st.tuples(st.just("remove_node"), _node),
    st.tuples(st.just("copy"), st.sampled_from(["source", "clone"])),
)


class _NaiveNetwork:
    """The obvious model: a node set and a set of ``(frozenset, label)`` triples."""

    def __init__(self):
        self.nodes = set()
        self.triples = set()

    def labels(self, u, v):
        return {label for link, label in self.triples if link == frozenset((u, v))}

    def copy(self):
        clone = _NaiveNetwork()
        clone.nodes, clone.triples = set(self.nodes), set(self.triples)
        return clone

    def add_link(self, u, v, label):
        if u == v:
            raise LinkError
        self.nodes |= {u, v}
        self.triples.add((frozenset((u, v)), label))

    def remove_link(self, u, v, label):
        carried = self.labels(u, v)
        if not carried or (label is not None and label not in carried):
            raise LinkError
        link = frozenset((u, v))
        doomed = carried if label is None else {label}
        self.triples -= {(link, each) for each in doomed}

    def remove_node(self, node):
        if node not in self.nodes:
            raise LinkError
        self.nodes.discard(node)
        self.triples = {(link, label) for link, label in self.triples if node not in link}

    def neighbors(self, node):
        return {other for link, _ in self.triples if node in link for other in link if other != node}


def _assert_agrees(network, model):
    links = {link for link, _ in model.triples}
    assert network.nodes == model.nodes and len(network) == len(model.nodes)
    edges = list(network.edges())
    assert len(edges) == len(links) == network.edge_count()
    assert {frozenset(edge) for edge in edges} == links
    for u in NODES:
        assert (u in network) == network.has_node(u) == (u in model.nodes)
        assert network.degree(u) == len(model.neighbors(u))
        if u in model.nodes:
            assert network.neighbors(u) == model.neighbors(u)
        for v in NODES:
            assert network.has_link(u, v) == network.has_link(v, u) == (frozenset((u, v)) in links)
            assert network.labels(u, v) == network.labels(v, u) == model.labels(u, v)
            if network.has_link(u, v):
                labels = network.rows[u][v]
                assert type(labels) is frozenset and labels is network.rows[v][u]
    # Interned: equal labellings are one object.
    label_sets = [labels for row in network.rows.values() for labels in row.values()]
    assert len({id(labels) for labels in label_sets}) == len(set(label_sets))


@settings(max_examples=200, deadline=None)
@given(st.lists(_operation, max_size=40))
def test_network_matches_naive_model(operations):
    network, model = Network(), _NaiveNetwork()
    # Networks set aside at a copy, each with the model of its state then:
    # later writes to the one that goes on must never reach them.
    frozen = []
    for name, *args in operations:
        if name == "copy":
            clone = network.copy()
            if args == ["clone"]:
                frozen.append((network, model.copy()))
                network = clone
            else:
                frozen.append((clone, model.copy()))
        elif name == "add_node":
            network.add_node(*args)
            model.nodes.add(*args)
        else:
            try:
                getattr(model, name)(*args)
            except LinkError:
                # The failed call must raise here too, and change nothing.
                with pytest.raises(LinkError):
                    getattr(network, name)(*args)
            else:
                getattr(network, name)(*args)
        _assert_agrees(network, model)
        for kept, snapshot in frozen:
            _assert_agrees(kept, snapshot)
