"""Tests for builders, the a-balance property and the tree view."""

import math

import pytest

from repro.skipgraph import (
    a_balance_violations,
    build_balanced_skip_graph,
    build_skip_graph,
    build_skip_graph_from_membership,
    check_a_balance,
    tree_view,
)
from repro.skipgraph.balance import longest_run
from repro.skipgraph.tree_view import render_tree
from repro.simulation.rng import make_rng


def expected_height(n: int) -> int:
    """``ceil(log2 n) + 1``: the height of the balanced construction."""
    if n <= 1:
        return 1
    return math.ceil(math.log2(n)) + 1


class TestBuilders:
    def test_random_builder_unique_vectors(self):
        graph = build_skip_graph(range(50), rng=make_rng(3))
        graph.validate()
        assert len(graph) == 50

    def test_random_builder_height_is_logarithmic_whp(self):
        graph = build_skip_graph(range(128), rng=make_rng(5))
        assert graph.height() <= 4 * math.ceil(math.log2(128))

    def test_random_builder_deduplicates_keys(self):
        graph = build_skip_graph([3, 1, 2, 3, 1], rng=make_rng(1))
        assert graph.keys == [1, 2, 3]

    def test_balanced_builder_height_exact(self):
        for n in (2, 3, 8, 9, 16, 33, 64):
            graph = build_balanced_skip_graph(range(n))
            assert graph.height() == expected_height(n)

    def test_balanced_builder_is_valid(self):
        graph = build_balanced_skip_graph(range(20))
        graph.validate()

    def test_balanced_builder_splits_by_rank_parity(self):
        graph = build_balanced_skip_graph(range(8))
        assert graph.list_of(0, 1) == [0, 2, 4, 6]
        assert graph.list_of(1, 1) == [1, 3, 5, 7]
        assert graph.list_of(0, 2) == [0, 4]

    def test_balanced_builder_satisfies_a1(self):
        graph = build_balanced_skip_graph(range(13))
        assert check_a_balance(graph, a=1)

    def test_explicit_builder(self):
        graph = build_skip_graph_from_membership({1: "0", 2: "1"})
        assert graph.membership(1) == "0"
        assert graph.membership(2) == "1"

    def test_expected_height_edge_cases(self):
        assert expected_height(0) == 1
        assert expected_height(1) == 1
        assert expected_height(2) == 2


class TestABalance:
    def test_longest_run(self):
        assert longest_run([]) == 0
        assert longest_run([0, 0, 1, 1, 1, 0]) == 3

    def test_balanced_graph_satisfies_a2(self):
        for n in (7, 16, 31):
            graph = build_balanced_skip_graph(range(n))
            assert check_a_balance(graph, a=2)

    def test_violation_detected(self):
        # Four consecutive nodes all in the 0-sublist violates a=3.
        graph = build_skip_graph_from_membership(
            {1: "00", 2: "01", 3: "00", 4: "01", 5: "1", 6: "1"}
        )
        # At level 0, nodes 1-4 all take bit 0 -> run of 4.
        assert not check_a_balance(graph, a=3)
        violations = a_balance_violations(graph, a=3)
        assert any(len(v.run_keys) == 4 and v.level == 0 for v in violations)
        assert check_a_balance(graph, a=4)

    def test_invalid_a_rejected(self):
        graph = build_balanced_skip_graph(range(4))
        with pytest.raises(ValueError):
            check_a_balance(graph, a=0)

    def test_violation_str_mentions_level(self):
        graph = build_skip_graph_from_membership(
            {1: "00", 2: "01", 3: "00", 4: "01", 5: "1", 6: "1"}
        )
        violations = a_balance_violations(graph, a=3)
        assert "level 0" in str(violations[0])


class TestTreeView:
    def test_fig1_tree_structure(self):
        graph = build_skip_graph_from_membership(
            {"A": "00", "J": "00", "M": "01", "G": "10", "W": "10", "R": "11"}
        )
        root = tree_view(graph)
        assert root.keys == ["A", "G", "J", "M", "R", "W"]
        assert root.zero_child.keys == ["A", "J", "M"]
        assert root.one_child.keys == ["G", "R", "W"]
        assert root.zero_child.one_child.keys == ["M"]
        assert root.zero_child.zero_child.keys == ["A", "J"]

    def test_tree_depth_matches_height_for_balanced(self):
        graph = build_balanced_skip_graph(range(16))
        root = tree_view(graph)
        assert root.depth() == graph.height()

    def test_all_lists_enumeration(self):
        graph = build_balanced_skip_graph(range(4))
        root = tree_view(graph)
        lists = root.all_lists()
        # 1 root + 2 level-1 lists + 4 leaves
        assert len(lists) == 7

    def test_render_tree_mentions_every_key(self):
        graph = build_balanced_skip_graph(range(4))
        text = render_tree(tree_view(graph))
        for key in range(4):
            assert str(key) in text
        assert "(root)" in text

    def test_singleton_graph_tree(self):
        graph = build_balanced_skip_graph([42])
        root = tree_view(graph)
        assert root.is_leaf
        assert root.keys == [42]
