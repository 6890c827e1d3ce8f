"""Property suite for the graph-integrity invariant checker (PR 6).

:func:`~repro.skipgraph.verify_skip_graph_integrity` is the standing
invariant the failure arena runs after every repair wave, so its own
contract needs pinning from both sides:

* **no false positives** — seed graphs (random and balanced memberships),
  self-adjusted graphs after serving skewed traffic, and dummy-laden
  graphs produced by random kernel-op sequences all verify clean, with and
  without their mirrored network (at every redundancy the network was
  built with);
* **no false negatives** — each corruption class the checker exists for
  (a broken level-list link, an unsorted base list, a membership vector
  rewritten behind the incremental indexes' back, each of the four
  incremental indexes poked on its own, and a network that drifted from
  the graph — missing, spurious, mislabelled or one-way links) is seeded
  deliberately and must be caught.

The sweep's report is additionally held, string for string, to the
pre-rewrite verifier in ``test_integrity_differential.py``.
"""

import pytest

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed.routing_protocol import skip_graph_network
from repro.simulation.rng import make_rng
from repro.skipgraph import (
    IntegrityError,
    MembershipVector,
    SkipGraphNode,
    assert_skip_graph_integrity,
    build_balanced_skip_graph,
    build_skip_graph,
    verify_skip_graph_integrity,
)
from repro.workloads.sequences import generate_workload

pytestmark = pytest.mark.failure


def _adjusted_graph(n=48, length=300, seed=5):
    """A DSG topology after serving skewed traffic (promotes/demotes/dummies)."""
    dsg = DynamicSkipGraph(range(1, n + 1), config=DSGConfig(seed=seed))
    for source, destination in generate_workload("temporal", list(range(1, n + 1)), length, seed=seed):
        dsg.request(source, destination)
    return dsg.graph


def _dummy_laden_graph(n=32, seed=9, dummies=6):
    """A graph with dummy nodes spliced between random neighbours."""
    graph = build_skip_graph(range(1, n + 1), rng=make_rng(seed))
    rng = make_rng(seed + 1)
    for _ in range(dummies):
        keys = graph.keys
        index = rng.randrange(len(keys) - 1)
        lower, upper = keys[index], keys[index + 1]
        dummy_key = float(lower) + (float(upper) - float(lower)) * 0.5
        if graph.has_node(dummy_key):
            continue
        bits = graph.membership(lower).bits
        depth = rng.randint(0, len(bits))
        graph.add_node(
            SkipGraphNode(
                key=dummy_key,
                membership=MembershipVector(bits[:depth] + (rng.randint(0, 1),)),
                is_dummy=True,
            )
        )
    return graph


class TestCleanGraphsVerify:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_seed_graph_is_clean(self, seed):
        graph = build_skip_graph(range(1, 40), rng=make_rng(seed))
        assert verify_skip_graph_integrity(graph) == []

    def test_balanced_graph_is_clean_with_network(self):
        graph = build_balanced_skip_graph(range(1, 65))
        for k in (1, 2, 3):
            network = skip_graph_network(graph, k=k)
            assert verify_skip_graph_integrity(graph, network, redundancy=k) == []

    def test_adjusted_graph_is_clean(self):
        graph = _adjusted_graph()
        assert verify_skip_graph_integrity(graph) == []
        assert verify_skip_graph_integrity(graph, skip_graph_network(graph)) == []

    def test_dummy_laden_graph_is_clean(self):
        graph = _dummy_laden_graph()
        assert verify_skip_graph_integrity(graph) == []

    def test_assert_form_passes_silently(self):
        assert_skip_graph_integrity(build_balanced_skip_graph(range(1, 17)))


class TestSeededCorruptionIsCaught:
    def test_broken_level_link(self):
        graph = build_balanced_skip_graph(range(1, 33))
        graph.list_at(1, (0,))  # populate the (lazy) cache entry
        target = next(
            entry for entry, members in graph._list_cache.items()
            if entry[0] >= 1 and len(members) >= 3
        )
        # Swap two members of a cached level list: the doubly-linked walk
        # through SkipGraph.neighbors no longer matches the derivation.
        members = graph._list_cache[target]
        members[0], members[1] = members[1], members[0]
        violations = verify_skip_graph_integrity(graph)
        assert violations
        with pytest.raises(IntegrityError):
            assert_skip_graph_integrity(graph)

    def test_unsorted_base_list(self):
        graph = build_balanced_skip_graph(range(1, 17))
        base = graph._sorted_keys
        base[0], base[1] = base[1], base[0]
        violations = verify_skip_graph_integrity(graph)
        assert any("not strictly sorted" in violation for violation in violations)

    def test_membership_prefix_mismatch(self):
        graph = build_balanced_skip_graph(range(1, 17))
        node = graph.nodes()[0]
        bits = node.membership.bits
        # Rewrite a vector behind the incremental indexes' back: the
        # from-scratch prefix recount must disagree with the maintained one.
        node.membership = MembershipVector(tuple(1 - bit for bit in bits))
        violations = verify_skip_graph_integrity(graph)
        assert any("recount" in violation for violation in violations)

    def test_network_drift_missing_and_spurious_links(self):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph, k=2)
        u, v = graph.keys[0], graph.keys[1]
        network.remove_link(u, v)
        far = graph.keys[-1]
        network.add_link(u, far, label="level0")
        violations = verify_skip_graph_integrity(graph, network, redundancy=2)
        assert any("missing link" in violation for violation in violations)
        assert any("unexpected link" in violation for violation in violations)

    def test_link_carrying_the_wrong_level_label(self):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph)
        u, v = graph.keys[0], graph.keys[1]  # base-list neighbours: level0 only
        assert network.labels(u, v) == {"level0"}
        network.remove_link(u, v, label="level0")
        network.add_link(u, v, label="level3")
        violations = verify_skip_graph_integrity(graph, network)
        assert violations == [f"link [{u}, {v}] carries labels ['level3'], expected ['level0']"]

    def test_asymmetric_adjacency(self):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph)
        u, v = graph.keys[0], graph.keys[1]
        # The public API keeps both directions in step, so the one-way link
        # has to be seeded in the row table itself.
        del network._rows[v][u]
        assert network.has_link(u, v) and not network.has_link(v, u)
        violations = verify_skip_graph_integrity(graph, network)
        assert f"asymmetric adjacency: {u!r} -> {v!r} but not back" in violations

    @pytest.mark.parametrize(
        "poke, expected",
        [
            (
                lambda graph: graph._prefix_counts.__setitem__((0,), graph._prefix_counts[(0,)] + 1),
                "prefix-count index does not match a from-scratch recount",
            ),
            (
                lambda graph: graph._dummy_prefix_counts.__setitem__((0,), 1),
                "dummy-prefix index does not match a from-scratch recount",
            ),
            (
                lambda graph: setattr(graph, "_dummy_count", graph._dummy_count + 1),
                "dummy count is 1, recount says 0",
            ),
            (
                lambda graph: graph._multi_prefixes_per_level.__setitem__(1, 7),
                "multi-prefix-per-level index does not match a from-scratch recount",
            ),
        ],
        ids=["prefix-counts", "dummy-prefix-counts", "dummy-count", "multi-prefixes-per-level"],
    )
    def test_each_incremental_index_mismatch(self, poke, expected):
        graph = build_balanced_skip_graph(range(1, 17))
        poke(graph)
        assert verify_skip_graph_integrity(graph) == [expected]

    def test_wrong_redundancy_is_flagged(self):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph, k=2)
        assert verify_skip_graph_integrity(graph, network, redundancy=2) == []
        assert verify_skip_graph_integrity(graph, network, redundancy=1) != []

    def test_report_is_capped(self):
        graph = build_balanced_skip_graph(range(1, 65))
        network = skip_graph_network(graph)
        for u, v in list(network.edges())[:20]:
            network.remove_link(u, v)
        violations = verify_skip_graph_integrity(graph, network, max_violations=5)
        assert len(violations) == 6  # 5 violations + the cap notice
        assert "capped" in violations[-1]


class TestCrashRepairRejoin:
    """The sweep stays clean through crash / repair / rejoin cycles,
    including while lazy pending-insert overlays are live."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_crash_repair_rejoin_verifies_clean(self, k):
        from repro.distributed import rejoin_crash_links, repair_crash_links
        from repro.skipgraph.build import draw_membership_bits

        graph = build_balanced_skip_graph(range(1, 49))
        network = skip_graph_network(graph, k=k)
        rng = make_rng(30 + k)
        for _ in range(4):
            keys = graph.keys
            victim = keys[rng.randrange(1, len(keys) - 1)]
            network.remove_node(victim)
            repair_crash_links(network, graph, victim, k=k)
            assert verify_skip_graph_integrity(graph, network, redundancy=k) == []
            bits = draw_membership_bits(graph, victim, rng)
            rejoin_crash_links(network, graph, victim, tuple(bits), k=k)
            assert verify_skip_graph_integrity(graph, network, redundancy=k) == []

    def test_pending_overlay_survives_a_member_crash(self, monkeypatch):
        """With ``_PENDING_MIN`` forced tiny, a rejoin lands through the
        lazy insertion overlay; crashing a member while the overlay is
        live must still repair to a clean structure."""
        import repro.skipgraph.skipgraph as skipgraph_module
        from repro.distributed import rejoin_crash_links, repair_crash_links
        from repro.skipgraph.build import draw_membership_bits

        monkeypatch.setattr(skipgraph_module, "_PENDING_MIN", 4)
        merges = []
        real_merge = skipgraph_module._merge_sorted

        def spying_merge(target, pending):
            merges.append(len(pending))
            return real_merge(target, pending)

        monkeypatch.setattr(skipgraph_module, "_merge_sorted", spying_merge)
        graph = build_balanced_skip_graph(range(1, 81, 2))
        network = skip_graph_network(graph, k=2)
        rng = make_rng(11)
        # An even key joins as a fresh identity: with the tiny threshold the
        # insert must route through a lazy pending buffer, not an insort
        # (the rejoin's own list reads then merge it — the spy proves the
        # overlay was genuinely traversed).
        bits = draw_membership_bits(graph, 10, rng)
        rejoin_crash_links(network, graph, 10, tuple(bits), k=2)
        assert merges, "join was expected to land through the lazy overlay"
        # A member crashes in the same churn window.
        network.remove_node(41)
        repair_crash_links(network, graph, 41, k=2)
        assert verify_skip_graph_integrity(graph, network, redundancy=2) == []
        assert graph.has_node(10) and not graph.has_node(41)
