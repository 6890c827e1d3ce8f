"""Integration tests for the DSG algorithm (Algorithm 1).

These exercise the paper's structural guarantees end-to-end:

* communicating pairs end up directly linked (the self-adjusting model),
* heights stay logarithmic (Lemmas 4-5),
* repeated / clustered traffic gets short routes (Theorem 2, working set
  property),
* a-balance is maintained up to the documented 2a slack,
* bad endpoints (a-balance dummies included) are rejected before any state
  changes,
* node addition/removal works (Section IV-G).
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.groups import initial_group_base
from repro.skipgraph.balance import a_balance_violations
from repro.skipgraph.build import build_balanced_skip_graph, build_skip_graph

N = 32
KEYS = range(1, N + 1)


@pytest.fixture
def dsg():
    return DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=11))


class TestConstruction:
    def test_initial_height_balanced(self, dsg):
        assert dsg.height() == math.ceil(math.log2(N)) + 1
        assert dsg.n == N

    def test_random_initial_topology(self):
        graph = build_skip_graph(KEYS, rng=random.Random(2))
        instance = DynamicSkipGraph(graph=graph, config=DSGConfig(seed=2))
        assert instance.n == N
        instance.request(3, 29)
        assert instance.are_adjacent(3, 29)
        instance.graph.validate()

    def test_requires_positive_integer_keys(self):
        with pytest.raises(ValueError):
            DynamicSkipGraph(keys=[0, 1, 2])
        with pytest.raises(ValueError):
            DynamicSkipGraph(keys=["a", "b"])

    @pytest.mark.parametrize("keys", [[0, 1, 2], [-3, 1, 2], [True, 2, 3], [2.5, 3, 4], ["a", "b"]])
    def test_a_bad_key_raises_the_same_error_on_either_path(self, keys):
        for path in ({"keys": keys}, {"graph": build_balanced_skip_graph(keys)}):
            with pytest.raises(ValueError, match=r"positive integers \(priority rule P3\); got"):
                DynamicSkipGraph(**path)

    def test_requires_keys_or_graph(self):
        with pytest.raises(ValueError):
            DynamicSkipGraph()

    def test_bad_a_rejected(self):
        with pytest.raises(ValueError):
            DynamicSkipGraph(keys=KEYS, config=DSGConfig(a=1))

    def test_initial_states(self, dsg):
        state = dsg.state(1)
        assert state.timestamp(0) == 0
        assert state.group_id(0) == state.uid
        assert state.group_base == dsg.graph.singleton_level(1)

    @pytest.mark.parametrize("kind", ["balanced", "random", "copied-with-dummies", "lone"])
    def test_every_group_base_starts_at_the_singleton_level(self, kind):
        if kind == "balanced":
            graph = build_balanced_skip_graph(KEYS)
        elif kind == "random":
            graph = build_skip_graph(KEYS, rng=random.Random(5))
        elif kind == "lone":
            graph = build_balanced_skip_graph([7])
        else:
            served = DynamicSkipGraph(keys=KEYS, config=DSGConfig(a=2, seed=3))
            rng = random.Random(3)
            while not served.graph.dummy_node_count:
                served.request(*rng.sample(KEYS, 2))
            graph = served.graph.copy()
            assert graph.dummy_node_count
        instance = DynamicSkipGraph(graph=graph)
        for key in graph.real_keys:
            assert instance.state(key).group_base == initial_group_base(graph.singleton_level(key)), key


class TestRequestBasics:
    def test_self_request_rejected(self, dsg):
        with pytest.raises(ValueError):
            dsg.request(1, 1)

    def test_unknown_endpoint_rejected(self, dsg):
        with pytest.raises(KeyError):
            dsg.request(1, 999)

    @pytest.mark.parametrize("dummy_is_source", [True, False])
    def test_dummy_endpoint_rejected_before_any_state_changes(self, dummy_is_source):
        # A-balance dummies are in the graph but are not peers: such a
        # request used to pass the boundary, advance the clock and the
        # working-set history, destroy l_alpha's dummies and only then die
        # inside the adjustment with a bare KeyError.
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=13))
        rng = random.Random(2)
        for _ in range(5):
            instance.request(*rng.sample(range(1, 65), 2))
        dummy = instance.graph.dummy_keys()[1]
        pair = (dummy, 1) if dummy_is_source else (1, dummy)

        def observed():
            return (
                instance.time,
                instance.costs.requests,
                len(instance.history),
                instance.working_set_bound(),
                instance.graph.membership_table(),
            )

        before = observed()
        with pytest.raises(KeyError, match="unknown endpoint"):
            instance.request(*pair)
        assert observed() == before

    def test_keep_result_false_preserves_aggregates(self):
        rng = random.Random(12)
        requests = [tuple(rng.sample(list(KEYS), 2)) for _ in range(40)]
        kept = DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=33))
        kept.run_sequence(requests)
        streamed = DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=33))
        for u, v in requests[:25]:
            streamed.request(u, v, keep_result=False)
        assert streamed.results == []
        for u, v in requests[25:]:
            streamed.request(u, v)
        assert len(streamed.results) == 15
        assert streamed.costs.requests == len(requests)
        assert streamed.total_cost() == kept.total_cost()
        assert streamed.costs == kept.costs
        assert streamed.working_set_bound() == pytest.approx(kept.working_set_bound())
        assert streamed.graph.membership_table() == kept.graph.membership_table()

    def test_request_returns_cost_breakdown(self, dsg):
        result = dsg.request(3, 29)
        assert result.cost == result.routing_cost + result.transformation_rounds + 1
        assert result.transformation_rounds > 0
        assert result.working_set_number == N  # first-time pair
        assert result.height_after == dsg.height()

    def test_pair_becomes_adjacent(self, dsg):
        dsg.request(5, 27)
        assert dsg.are_adjacent(5, 27)
        assert dsg.routing_distance(5, 27) == 0

    def test_second_request_routing_is_free(self, dsg):
        dsg.request(5, 27)
        second = dsg.request(5, 27)
        assert second.routing_cost == 0
        assert second.working_set_number == 2

    def test_structure_stays_valid(self, dsg):
        rng = random.Random(0)
        for _ in range(60):
            u, v = rng.sample(list(KEYS), 2)
            dsg.request(u, v)
        dsg.graph.validate()

    def test_every_request_yields_direct_link(self, dsg):
        rng = random.Random(1)
        for _ in range(80):
            u, v = rng.sample(list(KEYS), 2)
            dsg.request(u, v)
            assert dsg.are_adjacent(u, v)

    def test_results_are_recorded(self, dsg):
        dsg.request(1, 2)
        dsg.request(3, 4)
        assert len(dsg.results) == 2
        assert dsg.total_cost() == sum(r.cost for r in dsg.results)
        assert dsg.costs.average_cost == pytest.approx(dsg.total_cost() / 2)

    def test_run_sequence(self, dsg):
        results = dsg.run_sequence([(1, 2), (2, 3), (1, 2)])
        assert len(results) == 3
        assert results[-1].routing_cost <= 1


class TestHeightBounds:
    def test_height_stays_logarithmic_under_uniform_traffic(self):
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=5))
        rng = random.Random(3)
        bound = math.log(64, 1.5) + 1  # Lemma 5 plus the alpha offset slack
        for _ in range(150):
            u, v = rng.sample(range(1, 65), 2)
            instance.request(u, v)
            assert instance.height() <= bound + 1

    def test_direct_link_level_bound(self, dsg):
        # Lemma 4: the pair's common list sits no higher than log_{2a/(a+1)} n.
        a = dsg.config.a
        bound = math.log(N, (2 * a) / (a + 1))
        rng = random.Random(9)
        for _ in range(40):
            u, v = rng.sample(list(KEYS), 2)
            result = dsg.request(u, v)
            assert result.d_prime <= bound + 1


class TestWorkingSetBehaviour:
    def test_repeated_pair_much_cheaper_than_first_contact(self, dsg):
        first = dsg.request(2, 30)
        repeats = [dsg.request(2, 30).routing_cost for _ in range(5)]
        assert max(repeats) <= max(1, first.routing_cost)
        assert sum(repeats) <= first.routing_cost * 5

    def test_hot_cluster_routes_within_working_set_log(self):
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=7))
        cluster = [3, 17, 33, 49, 60]
        rng = random.Random(5)
        results = []
        for _ in range(120):
            u, v = rng.sample(cluster, 2)
            results.append(instance.request(u, v))
        # After warm-up every request should cost O(log |cluster|) routing.
        warmed = results[20:]
        a = instance.config.a
        bound = a * math.log2(len(cluster) + 1) + a
        assert all(r.routing_cost <= bound for r in warmed)

    def test_working_set_bound_tracks_history(self, dsg):
        dsg.request(1, 2)
        dsg.request(1, 2)
        assert dsg.working_set_bound() == pytest.approx(math.log2(N) + 1.0)

    def test_tracking_can_be_disabled(self):
        instance = DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=1, track_working_set=False))
        result = instance.request(1, 2)
        assert result.working_set_number is None


class TestABalanceAndDummies:
    def test_violations_bounded_by_2a(self):
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=13))
        rng = random.Random(2)
        for _ in range(120):
            u, v = rng.sample(range(1, 65), 2)
            instance.request(u, v)
        violations = a_balance_violations(instance.graph, instance.config.a)
        max_run = max((len(v.run_keys) for v in violations), default=0)
        assert max_run <= 2 * instance.config.a

    def test_dummy_count_stays_moderate(self):
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=13))
        rng = random.Random(2)
        for _ in range(120):
            u, v = rng.sample(range(1, 65), 2)
            instance.request(u, v)
        # The paper's bound is n/a live dummies; stale ones awaiting cleanup
        # keep the observed count within a small multiple of that.
        assert instance.dummy_count() <= 4 * (64 // instance.config.a)

    def test_dummies_do_not_break_direct_links(self):
        instance = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=17))
        rng = random.Random(4)
        for _ in range(80):
            u, v = rng.sample(range(1, 65), 2)
            instance.request(u, v)
            assert instance.routing_distance(u, v) <= 1

    def test_maintenance_can_be_disabled(self):
        instance = DynamicSkipGraph(
            keys=range(1, 33), config=DSGConfig(seed=3, maintain_a_balance=False)
        )
        rng = random.Random(6)
        for _ in range(40):
            u, v = rng.sample(range(1, 33), 2)
            instance.request(u, v)
        assert instance.dummy_count() == 0


class TestNodeChurn:
    def test_add_node(self, dsg):
        dsg.add_node(100)
        assert dsg.graph.has_node(100)
        assert 100 in dsg.states
        dsg.request(100, 1)
        assert dsg.are_adjacent(100, 1)

    def test_add_duplicate_rejected(self, dsg):
        with pytest.raises(ValueError):
            dsg.add_node(1)

    def test_add_invalid_key_rejected(self, dsg):
        with pytest.raises(ValueError):
            dsg.add_node(-5)

    def test_remove_node(self, dsg):
        dsg.remove_node(10)
        assert not dsg.graph.has_node(10)
        assert 10 not in dsg.states
        dsg.request(1, 2)

    def test_remove_missing_rejected(self, dsg):
        with pytest.raises(KeyError):
            dsg.remove_node(1234)

    def test_remove_dummy_rejected(self):
        instance = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=19))
        rng = random.Random(8)
        for _ in range(60):
            u, v = rng.sample(range(1, 33), 2)
            instance.request(u, v)
        dummies = instance.graph.dummy_keys()
        if dummies:
            with pytest.raises(ValueError):
                instance.remove_node(dummies[0])

    def test_churn_then_traffic(self, dsg):
        rng = random.Random(10)
        dsg.add_node(101)
        dsg.add_node(102)
        dsg.remove_node(5)
        keys = [k for k in dsg.graph.real_keys]
        for _ in range(30):
            u, v = rng.sample(keys, 2)
            dsg.request(u, v)
            assert dsg.are_adjacent(u, v)
        dsg.graph.validate()


class TestUseExactMedianAblation:
    def test_exact_median_variant_works(self):
        instance = DynamicSkipGraph(
            keys=range(1, 33), config=DSGConfig(seed=21, use_exact_median=True)
        )
        rng = random.Random(12)
        for _ in range(50):
            u, v = rng.sample(range(1, 33), 2)
            result = instance.request(u, v)
            assert instance.are_adjacent(u, v)
            assert result.amf_calls == 0

    def test_exact_median_keeps_height_logarithmic(self):
        instance = DynamicSkipGraph(
            keys=range(1, 65), config=DSGConfig(seed=23, use_exact_median=True)
        )
        rng = random.Random(13)
        for _ in range(80):
            u, v = rng.sample(range(1, 65), 2)
            instance.request(u, v)
        assert instance.height() <= math.log(64, 1.5) + 2


class TestMemoryAudit:
    def test_memory_words_logarithmic(self, dsg):
        rng = random.Random(14)
        for _ in range(30):
            u, v = rng.sample(list(KEYS), 2)
            dsg.request(u, v)
        words = dsg.memory_words_per_node()
        height = dsg.height()
        assert all(count <= 3 * (height + 1) + 2 for count in words.values())


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 20),
    seed=st.integers(0, 2**16),
    pairs=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), min_size=1, max_size=30),
)
@example(n=7, seed=0, pairs=[(2, 6), (2, 3), (2, 4), (2, 5), (1, 7)])
def test_served_pair_is_directly_linked(n, seed, pairs):
    """Section III's model: a served pair is directly linked afterwards.

    The explicit example is the seven-key case: its fifth request finds a
    dummy left by the fourth keyed between 1 and 7 in their only common
    list, and the dummy destroys itself (DEVIATIONS row 4).
    """
    instance = DynamicSkipGraph(keys=range(1, n + 1), config=DSGConfig(seed=seed))
    for u, v in pairs:
        u, v = (u - 1) % n + 1, (v - 1) % n + 1
        if u != v:
            instance.request(u, v)
            assert instance.are_adjacent(u, v), (u, v)
