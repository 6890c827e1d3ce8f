"""Tests for workload generators and paper examples."""

import collections

import pytest

from repro.core.working_set import working_set_number
from repro.workloads import (
    WORKLOADS,
    fig2_access_pattern,
    fig3_communication_graph,
    fig4_membership_s8,
    fig4_setup,
    generate_workload,
)
from repro.workloads.paper_examples import FIG4_KEYS

KEYS = list(range(1, 65))


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_generates_valid_pairs(self, name):
        requests = generate_workload(name, KEYS, 100, seed=3)
        assert len(requests) == 100
        for u, v in requests:
            assert u in KEYS and v in KEYS
            assert u != v

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic_given_seed(self, name):
        first = generate_workload(name, KEYS, 60, seed=11)
        second = generate_workload(name, KEYS, 60, seed=11)
        assert first == second

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            generate_workload("nope", KEYS, 10)

    def test_uniform_needs_two_keys(self):
        with pytest.raises(ValueError):
            generate_workload("uniform", [1], 10)

    def test_repeated_pair_is_constant(self):
        requests = generate_workload("repeated-pair", KEYS, 20, seed=1)
        assert len(set(requests)) == 1

    def test_hot_pairs_concentrate_traffic(self):
        requests = generate_workload("hot-pairs", KEYS, 500, seed=2, pairs=3, hot_fraction=0.9)
        counts = collections.Counter(requests)
        top3 = sum(count for _, count in counts.most_common(3))
        assert top3 >= 0.7 * len(requests)

    def test_zipf_skews_toward_few_nodes(self):
        requests = generate_workload("zipf", KEYS, 800, seed=3, exponent=1.5)
        endpoint_counts = collections.Counter()
        for u, v in requests:
            endpoint_counts[u] += 1
            endpoint_counts[v] += 1
        top_share = sum(count for _, count in endpoint_counts.most_common(8)) / (2 * len(requests))
        assert top_share > 0.5

    def test_temporal_uses_small_active_set(self):
        requests = generate_workload("temporal", KEYS, 200, seed=4, working_set_size=6,
                                     drift_probability=0.0)
        nodes = {node for pair in requests for node in pair}
        assert len(nodes) <= 6

    def test_temporal_drifts_when_enabled(self):
        requests = generate_workload("temporal", KEYS, 400, seed=5, working_set_size=6,
                                     drift_probability=0.2)
        nodes = {node for pair in requests for node in pair}
        assert len(nodes) > 6

    def test_community_traffic_mostly_intra(self):
        requests = generate_workload("community", KEYS, 400, seed=6, communities=4,
                                     intra_probability=1.0)
        # With intra probability 1 every pair stays inside one of 4 groups of 16.
        groups = [set(KEYS[i::4]) for i in range(4)]

        def same_group(u, v):
            return any(u in g and v in g for g in groups)

        # Communities are built from a shuffled key list, so recompute them
        # indirectly: each node should only ever talk to a bounded set of peers.
        peers = collections.defaultdict(set)
        for u, v in requests:
            peers[u].add(v)
            peers[v].add(u)
        assert max(len(p) for p in peers.values()) <= 16

    def test_adversarial_pairs_are_far_apart_statically(self):
        from repro.baselines import StaticSkipGraphBaseline

        requests = generate_workload("adversarial-static", KEYS, 100, seed=7)
        baseline = StaticSkipGraphBaseline(KEYS, topology="balanced")
        average = sum(baseline.routing_cost(u, v) for u, v in set(requests)) / len(set(requests))
        assert average >= 3


class TestPaperExamples:
    def test_fig2_working_set_number_is_5(self):
        pattern = fig2_access_pattern()
        assert working_set_number(pattern, len(pattern) - 1, total_nodes=100) == 5

    def test_fig3_sequence_shape(self):
        sequence = fig3_communication_graph(8)
        assert sequence[0] == (1, 2)
        assert sequence[-1] == (1, 2)
        assert len(sequence) == 2 + 6 + 1

    def test_fig3_working_set_is_k_plus_1(self):
        for k in (4, 8, 16):
            sequence = fig3_communication_graph(k)
            nodes = {node for pair in sequence for node in pair}
            assert working_set_number(sequence, len(sequence) - 1, total_nodes=len(nodes)) == k + 1

    def test_fig3_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            fig3_communication_graph(1)

    def test_fig4_membership_matches_figure_lists(self):
        from repro.skipgraph.build import build_skip_graph_from_membership

        graph = build_skip_graph_from_membership(fig4_membership_s8())
        K = FIG4_KEYS
        zero_level1 = graph.list_of(K["E"], 1)
        assert sorted(zero_level1) == sorted([K["E"], K["F"], K["H"], K["I"], K["J"], K["V"]])
        assert sorted(graph.list_of(K["B"], 1)) == sorted([K["B"], K["D"], K["G"], K["U"]])
        assert sorted(graph.list_of(K["H"], 3)) == sorted([K["H"], K["J"]])
        assert sorted(graph.list_of(K["V"], 3)) == sorted([K["V"], K["E"]])

    def test_fig4_setup_initial_state(self):
        dsg = fig4_setup()
        K = FIG4_KEYS
        assert dsg.time == 7
        assert dsg.state(K["B"]).timestamp(2) == 6
        assert dsg.state(K["U"]).timestamp(1) == 2
        assert dsg.state(K["V"]).timestamp(3) == 5
        assert dsg.state(K["H"]).group_base == 3
        assert dsg.state(K["B"]).group_base == 1

    def test_fig4_transformation_reproduces_s9_groups(self):
        """The (U, V) request at t=8 must merge {U,V,E,B,G,D} into the
        0-subgraph and leave {F,I,H,J} in the 1-subgraph (Fig. 4(c))."""
        dsg = fig4_setup()
        K = FIG4_KEYS
        result = dsg.request(K["U"], K["V"])
        assert result.time == 8
        assert dsg.are_adjacent(K["U"], K["V"])
        zero_side = [k for k in dsg.graph.list_of(K["U"], 1) if not dsg.graph.node(k).is_dummy]
        one_side = [k for k in dsg.graph.list_of(K["H"], 1) if not dsg.graph.node(k).is_dummy]
        assert sorted(zero_side) == sorted([K["U"], K["V"], K["E"], K["B"], K["G"], K["D"]])
        assert sorted(one_side) == sorted([K["F"], K["I"], K["H"], K["J"]])
        # The merged group carries U's identifier at level 1.
        for letter in ("U", "V", "E", "B", "G", "D"):
            assert dsg.state(K[letter]).group_id(1) == dsg.state(K["U"]).uid
        # The pair is stamped with the communication time.
        assert dsg.state(K["U"]).timestamp(result.d_prime) == 8
        assert dsg.state(K["V"]).timestamp(result.d_prime) == 8

