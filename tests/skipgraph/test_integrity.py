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
  (a broken level-list link, a stale position map, an unsorted base list,
  a membership vector rewritten behind the incremental indexes' back, each
  of the four incremental indexes poked on its own, a node map and base
  list that disagree on a key, and a network that drifted from the graph
  — missing, spurious, mislabelled or one-way links, and labels present in
  one direction only) is seeded deliberately and must be caught, reported
  rather than raised.

The sweep's report is additionally held, string for string, to the
pre-rewrite verifier in ``test_integrity_differential.py``; the arguments
are range-checked; and at the arena's shape a clean sweep is pinned to
call ``SkipGraph.neighbors`` not at all.  A clean sweep builds no position
map (it leaves ``_pos_cache`` as it found it), and one sweep of a
16 384-key graph is held to a tracemalloc bound.
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

    def test_stale_position_map(self):
        graph = build_balanced_skip_graph(range(1, 33))
        assert verify_skip_graph_integrity(graph) == []
        graph.neighbors(1, 1)  # builds the position map of 1's level-1 list
        # The cached list is intact; only its key -> index map went stale.
        positions = graph._pos_cache[(1, (0,))]
        positions[1], positions[3] = positions[3], positions[1]
        assert verify_skip_graph_integrity(graph) == [
            "level 1 list (0,): node 1 has neighbours (1, 5), expected (None, 3)",
            "level 1 list (0,): node 3 has neighbours (None, 3), expected (1, 5)",
        ]

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


class TestTheSweepKeepsNothing:
    """A sweep reads the structure and builds no position map: the maps it
    leaves are the ones it found, and one sweep of a large graph stays
    small in memory."""

    @pytest.mark.parametrize("kind", ["balanced", "adjusted"])
    def test_a_clean_sweep_leaves_the_position_maps_it_found(self, kind):
        graph = build_balanced_skip_graph(range(1, 257)) if kind == "balanced" else _adjusted_graph()
        assert kind == "balanced" or graph._dummy_count > 0
        for key in graph.keys[::5]:  # maps that routing would have built
            graph.neighbors(key, 2)
        found = dict(graph._pos_cache)
        assert found
        assert verify_skip_graph_integrity(graph, skip_graph_network(graph)) == []
        assert graph._pos_cache.keys() == found.keys()
        assert all(graph._pos_cache[entry] is positions for entry, positions in found.items())

    def test_one_sweep_of_a_16384_key_graph_traces_at_most_20_mb(self):
        import tracemalloc

        graph = build_balanced_skip_graph(range(1, 16385))
        tracemalloc.start()
        try:
            assert verify_skip_graph_integrity(graph) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20e6, f"one sweep traced {peak / 1e6:.1f} MB"


class TestNodeMapBaseListSplit:
    """The node map and the base list disagree on a key — the two shapes a
    bulk splice that stopped half way would leave.  The split is reported,
    and the checks that look one structure up by the other are skipped."""

    def test_a_node_the_base_list_lacks_is_reported(self):
        graph = build_balanced_skip_graph(range(1, 33))
        graph._nodes[100] = SkipGraphNode(key=100, membership=MembershipVector((0, 1)))
        assert verify_skip_graph_integrity(graph) == [
            "base list / node set mismatch (missing=[100], extra=[])",
            "prefix-count index does not match a from-scratch recount",
        ]

    def test_a_key_the_node_map_lacks_is_reported_not_raised(self):
        graph = build_balanced_skip_graph(range(1, 33))
        graph.list_at(1, (0,))  # a cached list still holding the key
        del graph._nodes[3]
        assert verify_skip_graph_integrity(graph) == [
            "base list / node set mismatch (missing=[], extra=[3])",
            "cached list (level=1, prefix=(0,)) is "
            f"{[key for key in range(1, 33, 2)]!r}, expected {[key for key in range(1, 33, 2) if key != 3]!r}",
            "prefix-count index does not match a from-scratch recount",
            "multi-prefix-per-level index does not match a from-scratch recount",
        ]


class TestArgumentsAreChecked:
    """A cap below 1 would record nothing and a redundancy below 1 would
    flag every correct link, so both are refused before any work."""

    @pytest.mark.parametrize("cap", [0, -1])
    def test_report_cap_below_one_is_rejected(self, cap):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph, k=2)
        network.remove_link(1, 2)
        with pytest.raises(ValueError, match="max_violations"):
            verify_skip_graph_integrity(graph, network, max_violations=cap, redundancy=2)
        with pytest.raises(ValueError, match="max_violations"):
            assert_skip_graph_integrity(graph, network, max_violations=cap, redundancy=2)

    @pytest.mark.parametrize("redundancy", [0, -1])
    def test_redundancy_below_one_is_rejected(self, redundancy):
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph)
        with pytest.raises(ValueError, match="redundancy"):
            verify_skip_graph_integrity(graph, network, redundancy=redundancy)
        with pytest.raises(ValueError, match="redundancy"):
            assert_skip_graph_integrity(graph, redundancy=redundancy)


class TestOneWayLabelDamage:
    """A label present in one direction of a link only.

    ``Network``'s own API keeps one label set per link, shared by both
    rows, so this damage has to be seeded in the row table; the sweep must
    still see it from either side.  The reference verifier reads one row
    per link and reports ``[]`` for all three, so production's strings are
    pinned here instead of in the differential test.
    """

    @staticmethod
    def _network():
        graph = build_balanced_skip_graph(range(1, 33))
        network = skip_graph_network(graph, k=2)
        assert network.rows[1][2] == {"level0"}
        assert network.rows[1][3] == {"level0", "level1"}
        return graph, network

    def test_label_replaced_on_one_side(self):
        graph, network = self._network()
        network._rows[2][1] = {"level7"}
        assert verify_skip_graph_integrity(graph, network, redundancy=2) == [
            "link [1, 2] carries labels ['level7'], expected ['level0']"
        ]

    def test_label_added_on_one_side(self):
        graph, network = self._network()
        network._rows[2][1] = network._rows[2][1] | {"level7"}
        assert verify_skip_graph_integrity(graph, network, redundancy=2) == [
            "link [1, 2] carries labels ['level0', 'level7'], expected ['level0']"
        ]

    def test_label_dropped_on_one_side(self):
        graph, network = self._network()
        network._rows[3][1] = network._rows[3][1] - {"level1"}
        assert verify_skip_graph_integrity(graph, network, redundancy=2) == [
            "link [1, 3] carries labels ['level0'], expected ['level0', 'level1']"
        ]


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


class TestSweepMechanism:
    """At the arena's shape (2 048 nodes, k = 3) a clean sweep settles each
    level list from its cached members and position map (if one is
    cached), without one
    :meth:`SkipGraph.neighbors` call; a damaged list is walked node by node
    and no other list is."""

    @pytest.fixture(scope="class")
    def swept(self):
        import repro.distributed.failover as failover
        from repro.distributed import run_failure_arena
        from repro.workloads import failure_scenario

        scenario = failure_scenario(
            n=2048, length=600, seed=11, mode="independent", crash_rate=0.005,
            recovery_fraction=0.6, mid_wave_fraction=0.004, adjacent_crash_limit=2,
        )
        graph = build_balanced_skip_graph(scenario.initial_keys)
        swept = []
        verify = failover.verify_skip_graph_integrity

        def recording_verify(graph, network, **kwargs):
            swept.append(network)
            return verify(graph, network, **kwargs)

        failover.verify_skip_graph_integrity = recording_verify
        try:
            report = run_failure_arena(scenario, k=3, seed=0, graph=graph)
        finally:
            failover.verify_skip_graph_integrity = verify
        assert report.integrity_clean and swept
        return graph, swept[-1]

    @staticmethod
    def _count_neighbors(monkeypatch):
        from repro.skipgraph import SkipGraph

        calls = []
        neighbors = SkipGraph.neighbors

        def counting_neighbors(self, key, level):
            calls.append((key, level))
            return neighbors(self, key, level)

        monkeypatch.setattr(SkipGraph, "neighbors", counting_neighbors)
        return calls

    def test_clean_sweep_calls_neighbors_zero_times(self, swept, monkeypatch):
        graph, network = swept
        graph = graph.copy()
        assert len(graph) > 2000 and graph.height() >= 10
        calls = self._count_neighbors(monkeypatch)
        assert verify_skip_graph_integrity(graph, network, redundancy=3) == []
        assert calls == []

    def test_swapped_list_is_the_only_one_walked(self, swept, monkeypatch):
        graph, network = swept
        graph = graph.copy()
        assert verify_skip_graph_integrity(graph, network, redundancy=3) == []
        level, prefix = 2, (1, 0)
        members = graph.list_at(level, prefix)
        ordered = list(members)
        members[3], members[4] = members[4], members[3]
        calls = self._count_neighbors(monkeypatch)
        assert verify_skip_graph_integrity(graph, network, redundancy=3) != []
        assert calls == [(key, level) for key in ordered]
