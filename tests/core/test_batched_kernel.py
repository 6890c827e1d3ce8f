"""Property tests for the adjustment kernel's bulk entry points.

Three layers of equivalence, all against the executable reference in
``tests/reference/kernel_reference.py``:

* **bulk entry points**: ``insert_run`` must equal a loop of ``add_node``
  — memberships, level lists, the incremental prefix indexes, and the
  a-balance dirty marks;
* **end to end**: the shipping :class:`~repro.core.dsg.DynamicSkipGraph`
  and the reference one (op-by-op application, scan-based join bits, full
  a-balance rescans) served in lock-step over mixed request/join/leave
  schedules must agree on every per-request cost, every plan, the
  topology, the dummy population and the RNG position, with the tracker's
  dirty marks equal to an op-by-op replay of each plan and the integrity
  sweep clean after every event — byte-identical semantics, only the wall
  clock may differ;
* **sorted-list kernel**: the three merge/delete regimes.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.kernel_reference import OpByOpRecorder, ReferenceDynamicSkipGraph

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import DemoteOp, DummyInsertOp, OpRecorder, apply_op
from repro.skipgraph.balance import BalanceTracker
from repro.skipgraph.build import build_balanced_skip_graph, build_skip_graph
from repro.skipgraph.integrity import verify_skip_graph_integrity
from repro.skipgraph.node import SkipGraphNode
from repro.skipgraph.membership import MembershipVector
from repro.skipgraph.skipgraph import SkipGraph, _delete_sorted, _merge_sorted


def graph_state(graph):
    """Full derived topology: memberships, populations and every level list."""
    lists = {
        level: graph.lists_at_level(level) for level in range(graph.height() + 1)
    }
    return (
        graph.membership_table(),
        graph.real_keys,
        graph.dummy_keys(),
        lists,
    )


def index_state(graph: SkipGraph):
    """The incremental prefix indexes, normalised (zero counts dropped)."""
    return (
        {p: c for p, c in graph._prefix_counts.items() if c},
        {lvl: c for lvl, c in graph._multi_prefixes_per_level.items() if c},
        {p: c for p, c in graph._dummy_prefix_counts.items() if c},
    )


def tracked(graph: SkipGraph) -> SkipGraph:
    """``graph`` with a tracker past its initial everything-dirty state
    attached, so every mark its mutators emit from here on is recorded."""
    graph.tracker = BalanceTracker()
    graph.tracker._all_dirty = False
    return graph


def tracker_state(tracker: BalanceTracker):
    return (tracker._all_dirty, tracker._dirty)


class TestBulkEntryPoints:
    @given(
        st.sets(st.integers(min_value=1, max_value=400), min_size=2, max_size=30),
        st.lists(
            st.tuples(
                st.integers(min_value=401, max_value=999),
                st.lists(st.integers(0, 1), max_size=4),
                st.booleans(),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda entry: entry[0],
        ),
        st.integers(0, 2**20),
    )
    @settings(max_examples=40, deadline=None)
    def test_insert_run_equals_add_node_loop(self, keys, newcomers, seed):
        initial = build_skip_graph(sorted(keys), rng=random.Random(seed))
        nodes = [
            SkipGraphNode(key=key, membership=MembershipVector(tuple(bits)), is_dummy=dummy)
            for key, bits, dummy in newcomers
        ]

        one_by_one = tracked(initial.copy())
        for node in nodes:
            one_by_one.add_node(
                SkipGraphNode(key=node.key, membership=node.membership, is_dummy=node.is_dummy)
            )

        bulk = tracked(initial.copy())
        bulk.insert_run(nodes)

        assert graph_state(bulk) == graph_state(one_by_one)
        assert index_state(bulk) == index_state(one_by_one)
        assert tracker_state(bulk.tracker) == tracker_state(one_by_one.tracker)


def _graph_with_dummies():
    graph = build_balanced_skip_graph(range(1, 17))
    for key, bits in DUMMY_ENTRIES:
        apply_op(graph, DummyInsertOp(key, bits))
    return graph


def _graph_cut_to_one_bit():
    graph = build_balanced_skip_graph(range(1, 17))
    for key in graph.keys:
        apply_op(graph, DemoteOp(key, 1))
    return graph


def _keys_under(graph, bit):
    return [key for key in graph.keys if graph.membership(key).bits[:1] == (bit,)]


DUMMY_ENTRIES = [(2.5, (0, 1)), (6.5, (1, 0)), (9.5, (0,))]

#: name -> (graph factory, the run a planner would hand the recorder).
RECORDER_RUNS = {
    "promote_run": (
        _graph_cut_to_one_bit,
        lambda recorder: recorder.promote_run(_keys_under(recorder.graph, 0), 2, 1),
    ),
    "demote_run": (
        lambda: build_balanced_skip_graph(range(1, 17)),
        lambda recorder: recorder.demote_run(_keys_under(recorder.graph, 1), 1),
    ),
    "insert_dummy_run": (
        lambda: build_balanced_skip_graph(range(1, 17)),
        lambda recorder: recorder.insert_dummy_run(DUMMY_ENTRIES),
    ),
    "remove_run": (
        _graph_with_dummies,
        lambda recorder: recorder.remove_run([key for key, _ in DUMMY_ENTRIES]),
    ),
}


class TestRecorderRuns:
    """``OpRecorder.*_run`` against the op-by-op recorder of the reference."""

    def _assert_same_outcome(self, bulk, by_op):
        assert bulk.ops == by_op.ops
        assert graph_state(bulk.graph) == graph_state(by_op.graph)
        assert index_state(bulk.graph) == index_state(by_op.graph)
        assert tracker_state(bulk.graph.tracker) == tracker_state(by_op.graph.tracker)
        # These are mid-transformation graphs (a subtree cut to one bit), so
        # check 4 — no two real nodes share a full vector — rightly fires;
        # every structural check (lists, links, indexes) must stay clean.
        assert [
            violation
            for violation in verify_skip_graph_integrity(bulk.graph)
            if not violation.startswith("graph.validate()")
        ] == []

    @pytest.mark.parametrize("name", sorted(RECORDER_RUNS))
    def test_run_equals_op_by_op_recorder(self, name):
        make_graph, run = RECORDER_RUNS[name]
        bulk = OpRecorder(tracked(make_graph()))
        by_op = OpByOpRecorder(tracked(make_graph()))
        run(bulk)
        run(by_op)
        assert len(bulk.ops) > 1
        self._assert_same_outcome(bulk, by_op)

    @pytest.mark.parametrize(
        "name, run",
        [
            # Descending keys; keys under two different parent vectors.
            ("promote_run", lambda r: r.promote_run(_keys_under(r.graph, 0)[::-1], 2, 1)),
            ("promote_run", lambda r: r.promote_run([1, 2, 3, 4], 2, 1)),
            ("demote_run", lambda r: r.demote_run([1, 2, 3, 4], 1)),
        ],
        ids=["promote-descending", "promote-two-parents", "demote-two-parents"],
    )
    def test_a_declined_run_lands_through_the_per_op_fallback(self, monkeypatch, name, run):
        make_graph = RECORDER_RUNS[name][0]
        verdicts = []
        real = getattr(SkipGraph, name)

        def spying(self, *args, **kwargs):
            verdicts.append(real(self, *args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(SkipGraph, name, spying)
        bulk = OpRecorder(tracked(make_graph()))
        assert {bulk.graph.membership(key).bits[:1] for key in (1, 2, 3, 4)} == {(0,), (1,)}
        run(bulk)
        assert verdicts == [False]
        by_op = OpByOpRecorder(tracked(make_graph()))
        run(by_op)
        assert len(bulk.ops) > 1
        self._assert_same_outcome(bulk, by_op)


def serve_in_lockstep(a, n, seed, words):
    """Serve one schedule on the shipping and the reference kernel, comparing
    after every event; ``words`` are decoded against the live population."""
    keys = list(range(1, n + 1))
    shipping = DynamicSkipGraph(keys=keys, config=DSGConfig(a=a, seed=seed))
    reference = ReferenceDynamicSkipGraph(keys=keys, config=DSGConfig(a=a, seed=seed))
    # Consume the tracker's initial everything-dirty state, so the dirty
    # marks of the very first plan are already recorded and compared.
    assert shipping.restore_a_balance() == reference.restore_a_balance()
    next_key = n + 1
    for word in words:
        real = shipping.graph.real_keys
        before = shipping.graph.copy()
        kind, pick = word % 8, word // 8
        if kind < 5:
            u = real[pick % len(real)]
            others = [key for key in real if key != u]
            v = others[(pick // len(real)) % len(others)]
            before.tracker = copy.deepcopy(shipping.graph.tracker)
            got, want = shipping.request(u, v), reference.request(u, v)
            assert (got.cost, got.routing_cost, got.transformation_rounds) == (
                want.cost,
                want.routing_cost,
                want.transformation_rounds,
            )
            ops = got.ops
            assert ops == want.ops
            # No repair runs inside a request, so the marks only accumulate:
            # the tracker must hold exactly what an op-by-op replay emits.
            for op in ops:
                apply_op(before, op)
            assert tracker_state(shipping.graph.tracker) == tracker_state(before.tracker)
        else:
            if kind < 7 or len(real) <= 4:
                shipping.add_node(next_key)
                reference.add_node(next_key)
                next_key += 1
            else:
                victim = real[pick % len(real)]
                shipping.remove_node(victim)
                reference.remove_node(victim)
            ops = shipping.last_churn_ops
            assert ops == reference.last_churn_ops
            for op in ops:
                apply_op(before, op)
        assert graph_state(before) == graph_state(shipping.graph)
        assert index_state(before) == index_state(shipping.graph)
        assert shipping.graph.membership_table() == reference.graph.membership_table()
        assert shipping.dummy_count() == reference.dummy_count()
        assert shipping._rng.getstate() == reference._rng.getstate()
        assert verify_skip_graph_integrity(shipping.graph) == []
    assert shipping.total_cost() == reference.total_cost()


def _splice_drops_a_key(real_promote_run):
    """The bulk promote installs its run as the new level list minus one key."""

    def promote_run(self, keys, level, bit):
        landed = real_promote_run(self, keys, level, bit)
        if landed and len(keys) > 2:
            self._list_cache[(level, self.membership(keys[0]).bits)].pop()
        return landed

    return promote_run


def _splice_forgets_its_marks(real_promote_run):
    """The bulk promote lands correctly but reports nothing to the tracker."""

    def promote_run(self, keys, level, bit):
        tracker, self.tracker = self.tracker, None
        try:
            return real_promote_run(self, keys, level, bit)
        finally:
            self.tracker = tracker

    return promote_run


class TestKernelDifferential:
    @given(
        st.sampled_from([2, 3, 4]),
        st.integers(min_value=8, max_value=64),
        st.integers(0, 2**20),
        st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_shipping_kernel_equals_reference_kernel(self, a, n, seed, words):
        serve_in_lockstep(a, n, seed, words)

    @pytest.mark.parametrize("mutant", [_splice_drops_a_key, _splice_forgets_its_marks])
    def test_a_mutated_bulk_splice_is_caught(self, monkeypatch, mutant):
        """The differential has teeth: one seeded fault in one bulk entry
        point fails it, on a schedule the unmutated kernel passes."""
        schedule = dict(a=2, n=24, seed=5, words=[0, 37, 6, 1201, 15, 37, 530, 7, 64])
        serve_in_lockstep(**schedule)
        monkeypatch.setattr(SkipGraph, "promote_run", mutant(SkipGraph.promote_run))
        with pytest.raises(AssertionError):
            serve_in_lockstep(**schedule)


class TestSortedKernelRegimes:
    """Deterministic coverage of the three merge/delete regimes."""

    def _check_merge(self, size, batch_sizes, seed=3):
        rng = random.Random(seed)
        base = sorted(rng.sample(range(size * 4), size))
        pool = set(base)
        for k in batch_sizes:
            added = sorted({x for x in rng.sample(range(size * 4), 3 * k) if x not in pool})[:k]
            work = list(base)
            _merge_sorted(work, added)
            assert work == sorted(base + added)

    def _check_delete(self, size, batch_sizes, seed=4):
        rng = random.Random(seed)
        base = sorted(rng.sample(range(size * 4), size))
        for k in batch_sizes:
            removed = rng.sample(base, k) + [size * 4 + 1]  # plus one absent key
            rng.shuffle(removed)
            doomed = set(removed)
            work = list(base)
            _delete_sorted(work, removed)
            assert work == [x for x in base if x not in doomed]

    def test_merge_tiny_batches_use_insort(self):
        self._check_merge(1000, [1, 2, 3])

    def test_merge_dense_batches_rebuild(self):
        self._check_merge(100, [10, 50, 100])

    def test_merge_middle_regime_slice_rebuild(self):
        # size >= 16384 with 4 <= batch << size/24: the slice-copy regime.
        self._check_merge(20000, [4, 5, 24, 200])

    def test_delete_all_regimes(self):
        self._check_delete(100, [10, 50])
        self._check_delete(1000, [1, 2, 3])
        self._check_delete(20000, [4, 24, 200])

    def test_merge_into_empty_and_empty_batch(self):
        work = []
        _merge_sorted(work, [3, 5])
        assert work == [3, 5]
        _merge_sorted(work, [])
        assert work == [3, 5]
        _delete_sorted(work, [])
        assert work == [3, 5]
