"""Property-based tests (hypothesis) for the core data-structure invariants.

These complement the example-based suites: instead of fixed scenarios they
assert invariants over randomly generated inputs —

* membership-vector algebra (prefixes, extensions, common prefixes),
* skip graph structural invariants and routing totality,
* balanced skip list structure,
* AMF's Lemma 1 rank bound,
* working set number bounds,
* message size accounting,
* end-to-end DSG invariants under arbitrary request sequences.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.amf import approximate_median, rank_interval
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.working_set import working_set_numbers
from repro.simulation.message import payload_size_bits
from repro.simulation.rng import make_rng
from repro.skipgraph import (
    MembershipVector,
    build_balanced_skip_graph,
    build_skip_graph,
    common_prefix_length,
    route,
)
from repro.skiplist import BalancedSkipList

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
FAST = settings(max_examples=60, deadline=None)

bits = st.lists(st.integers(min_value=0, max_value=1), max_size=12)


class TestMembershipVectorProperties:
    @FAST
    @given(bits)
    def test_roundtrip_via_string(self, raw):
        vector = MembershipVector(raw)
        assert MembershipVector(str(vector)) == vector
        assert len(vector) == len(raw)

    @FAST
    @given(bits, bits)
    def test_common_prefix_symmetric_and_bounded(self, a, b):
        length = common_prefix_length(a, b)
        assert length == common_prefix_length(b, a)
        assert 0 <= length <= min(len(a), len(b))
        assert MembershipVector(a).prefix(length) == MembershipVector(b).prefix(length)

    @FAST
    @given(bits, bits)
    def test_extension_preserves_prefix(self, a, extra):
        vector = MembershipVector(a)
        extended = vector.extended(extra)
        assert extended.prefix(len(a)) == vector
        assert len(extended) == len(a) + len(extra)

    @FAST
    @given(bits, st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=1))
    def test_with_bit_sets_exactly_that_level(self, raw, level, bit):
        vector = MembershipVector(raw).with_bit(level, bit)
        assert vector.bit(level) == bit
        assert len(vector) >= level


class TestSkipGraphProperties:
    @SLOW
    @given(st.sets(st.integers(min_value=1, max_value=400), min_size=2, max_size=48), st.integers(0, 2**20))
    def test_random_build_is_valid_and_fully_routable(self, keys, seed):
        graph = build_skip_graph(keys, rng=make_rng(seed))
        graph.validate()
        keys = sorted(keys)
        source = keys[0]
        for destination in keys:
            assert route(graph, source, destination).path[-1] == destination

    @SLOW
    @given(st.integers(min_value=2, max_value=200))
    def test_balanced_height_formula(self, n):
        graph = build_balanced_skip_graph(range(1, n + 1))
        assert graph.height() == math.ceil(math.log2(n)) + 1
        # Every node's deepest list is a singleton.
        for key in graph.keys:
            assert len(graph.list_of(key, len(graph.membership(key)))) == 1

    @SLOW
    @given(st.sets(st.integers(min_value=1, max_value=300), min_size=2, max_size=40), st.integers(0, 2**20))
    def test_level_lists_partition_nodes(self, keys, seed):
        graph = build_skip_graph(keys, rng=make_rng(seed))
        for level in range(1, graph.height()):
            lists = graph.lists_at_level(level)
            members = sorted(key for group in lists.values() for key in group)
            assert members == sorted(keys)


class TestSkipListProperties:
    @SLOW
    @given(st.integers(min_value=2, max_value=300), st.integers(min_value=2, max_value=6), st.integers(0, 2**20))
    def test_balanced_skiplist_invariants(self, n, a, seed):
        skiplist = BalancedSkipList(list(range(n)), a=a, rng=make_rng(seed))
        assert skiplist.levels[0] == list(range(n))
        assert skiplist.levels[-1] == [0]
        assert skiplist.is_support_bounded()
        sizes = [len(level) for level in skiplist.levels]
        assert all(later <= earlier for earlier, later in zip(sizes, sizes[1:]))


class TestAMFProperties:
    @SLOW
    @given(st.integers(min_value=8, max_value=400), st.integers(min_value=3, max_value=8), st.integers(0, 2**20))
    def test_lemma1_rank_bound(self, n, a, seed):
        rng = make_rng(seed)
        values = {i: float(rng.randrange(5 * n)) for i in range(n)}
        result = approximate_median(values, a=a, rng=make_rng(seed + 1))
        assert result.satisfies_lemma1(a)
        assert result.median in set(values.values())

    @FAST
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
           st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_rank_interval_is_consistent(self, values, chosen):
        low, high = rank_interval(values, chosen)
        assert 1 <= low <= len(values) + 1
        assert low <= high <= len(values) + 1


class TestWorkingSetProperties:
    @FAST
    @given(st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)).filter(lambda p: p[0] != p[1]),
                    min_size=1, max_size=40))
    def test_bounds(self, history):
        n = 12
        numbers = working_set_numbers(history, total_nodes=n)
        seen = set()
        for (u, v), number in zip(history, numbers):
            if frozenset((u, v)) in seen:
                assert 2 <= number <= n
            else:
                assert number == n
            seen.add(frozenset((u, v)))


class TestMessageSizeProperties:
    @FAST
    @given(st.recursive(
        st.one_of(st.none(), st.booleans(), st.integers(-10**9, 10**9), st.text(max_size=8)),
        lambda children: st.lists(children, max_size=4),
        max_leaves=10,
    ))
    def test_sizes_are_nonnegative_and_monotone(self, payload):
        size = payload_size_bits(payload)
        assert size >= 0
        assert payload_size_bits([payload, 1]) >= size


class TestDSGProperties:
    @SLOW
    @given(
        st.integers(min_value=4, max_value=20),
        st.lists(st.tuples(st.integers(0, 1000), st.integers(0, 1000)), min_size=1, max_size=15),
        st.integers(0, 2**20),
    )
    def test_end_to_end_invariants(self, n, raw_requests, seed):
        keys = list(range(1, n + 1))
        dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(seed=seed))
        for raw_u, raw_v in raw_requests:
            u = keys[raw_u % n]
            v = keys[raw_v % n]
            if u == v:
                continue
            result = dsg.request(u, v)
            # The self-adjusting model: the pair is directly linked afterwards.
            assert dsg.are_adjacent(u, v)
            assert result.cost >= result.routing_cost + 1
            # Lemma 5 (plus one level of slack for the alpha offset).
            assert dsg.height() <= math.log(max(n, 2), 1.5) + 2
        dsg.graph.validate()
