"""A request's transient records: plans by run, medians by split list.

* **Plans** (:class:`~repro.core.local_ops.Plan`): the shipping recorder
  holds each bulk run as one record, and reading the plan must give
  exactly the ops the op-by-op recorder of
  ``tests/reference/kernel_reference.py`` appends — same tuples, same
  types, same order — with ``len``, indexing and ``==`` against a list
  agreeing, and a replay on a copy of ``S_t`` reproducing ``S_{t+1}``.
  A run's keys are the plan's own: mutating the list a caller passed in
  leaves the plan as it was.
* **Received medians**
  (:class:`~repro.core.transformation.ReceivedMedians`): the view over one
  median per split list must equal the per-member, per-level dicts the
  splits would have filled, on random transforms with the a-balance
  maintenance on and off.
* **Memory**: one level-0 request on a fresh balanced 4 096-key graph (a
  rebuild of every member at every level) stays within 10 MB traced.
"""

import random
import tracemalloc
from unittest import mock

import pytest
from reference.kernel_reference import ReferenceDynamicSkipGraph

import repro.core.dsg as dsg_module
import repro.core.transformation as transformation_module
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import DemoteOp, OpRecorder, Plan, PromoteOp, apply_ops
from repro.simulation.rng import make_rng
from repro.skipgraph.build import build_balanced_skip_graph, build_skip_graph

pytestmark = pytest.mark.kernel


def typed(ops):
    return [(type(op), tuple(op)) for op in ops]


def _served_pairs(n, count, seed):
    rng = random.Random(seed)
    return [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(count)]


class TestPlanSequence:
    @pytest.mark.parametrize("a", [2, 3])
    def test_a_plan_reads_as_the_op_by_op_recorders_ops(self, a):
        keys = list(range(1, 129))
        shipping = DynamicSkipGraph(keys=keys, config=DSGConfig(a=a, seed=a))
        reference = ReferenceDynamicSkipGraph(keys=keys, config=DSGConfig(a=a, seed=a))
        runs = 0
        for u, v in [(1, 2)] + _served_pairs(128, 40, a):
            before = shipping.graph.copy()
            got, want = shipping.request(u, v), reference.request(u, v)
            plan = got.ops
            assert isinstance(plan, Plan) and isinstance(want.ops, Plan)
            runs += sum(type(record) is tuple for record in plan._records)
            expanded = list(want.ops)
            assert typed(plan) == typed(expanded)
            assert len(plan) == len(expanded)
            assert plan == expanded and expanded == plan and plan == want.ops
            assert [plan[index] for index in range(len(plan))] == expanded
            assert [plan[index] for index in range(-len(plan), 0)] == expanded
            assert typed(plan[index] for index in range(len(plan))) == typed(expanded)
            assert plan[1:-1:3] == expanded[1:-1:3]
            for index in (len(plan), -len(plan) - 1):
                with pytest.raises(IndexError):
                    plan[index]
            apply_ops(before, plan)
            assert before.membership_table() == shipping.graph.membership_table()
        assert runs > 0  # the level-0 rebuild stored runs

    def test_equality_needs_the_same_ops_in_order(self):
        graph = build_balanced_skip_graph(range(1, 17))
        recorder = OpRecorder(graph)
        recorder.demote_run([1, 3, 5, 7, 9, 11, 13, 15], 0)
        ops = list(recorder.ops)
        assert ops == [DemoteOp(key, 0) for key in range(1, 17, 2)]
        assert recorder.ops == ops and recorder.ops != ops[:-1] and recorder.ops != ops[::-1]
        assert recorder.ops != tuple(ops) and Plan() == [] and not Plan()
        with pytest.raises(TypeError):
            hash(recorder.ops)

    def test_a_runs_keys_do_not_alias_the_callers_list(self):
        graph = build_balanced_skip_graph(range(1, 17))
        recorder = OpRecorder(graph)
        demoted = [key for key in range(1, 17)]
        recorder.demote_run(demoted, 0)
        zero = [key for key in range(1, 17) if key % 2]
        recorder.promote_run(zero, 1, 1)
        expected = [DemoteOp(key, 0) for key in range(1, 17)] + [PromoteOp(key, 1, 1) for key in zero]
        demoted.clear()
        zero.reverse()
        zero.append(99)
        assert recorder.ops == expected


class TestReceivedMedians:
    @pytest.mark.parametrize("use_exact_median", [False, True])
    @pytest.mark.parametrize("maintain", [True, False])
    def test_the_view_equals_the_per_member_dicts(self, maintain, use_exact_median):
        """The medians every split hands out, recorded per member and level
        as they are computed, against the view T2 reads."""
        levels = []  # the level of the split being run, innermost last
        handed_out = {}
        split = transformation_module._Transformation.split
        approximate, exact = transformation_module.approximate_median, transformation_module.exact_median
        apply_rules = dsg_module.apply_timestamp_rules

        def tracking_split(self, members, level, *args):
            levels.append(level)
            try:
                return split(self, members, level, *args)
            finally:
                levels.pop()

        def hand_out(keys, median):
            for key in keys:
                handed_out.setdefault(key, {})[levels[-1] - 1] = median[0]

        def recording_approximate(values, **kwargs):
            result = approximate(values, **kwargs)
            hand_out(values, result.median)
            return result

        def recording_exact(order):
            median = exact(order)
            hand_out([key for _, _, key in order], median)
            return median

        compared = []

        def checking_rules(states, ctx):
            view = ctx.received_medians
            expected = {key: handed_out.get(key, {}) for key in ctx.members}
            assert {key: dict(medians) for key, medians in view.items()} == expected
            assert len(view) == len(ctx.members) and list(view) == sorted(ctx.members)
            compared.append(sum(map(len, expected.values())))
            handed_out.clear()
            apply_rules(states, ctx)

        rng = make_rng(17)
        graph = build_skip_graph(range(1, 97), rng)
        config = DSGConfig(a=2, seed=5, use_exact_median=use_exact_median, maintain_a_balance=maintain)
        dsg = DynamicSkipGraph(graph=graph, config=config)
        with mock.patch.object(transformation_module._Transformation, "split", tracking_split), \
                mock.patch.object(transformation_module, "approximate_median", recording_approximate), \
                mock.patch.object(transformation_module, "exact_median", recording_exact), \
                mock.patch.object(dsg_module, "apply_timestamp_rules", checking_rules):
            for u, v in _served_pairs(96, 60, 11):
                dsg.request(u, v)
        assert len(compared) == 60 and max(compared) > 96  # deep rebuilds were among them

    def test_a_non_member_is_a_key_error(self):
        dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=1))
        seen = []
        apply_rules = dsg_module.apply_timestamp_rules

        def capture(states, ctx):
            seen.append(ctx.received_medians)
            with pytest.raises(KeyError):
                ctx.received_medians[10_000]
            assert ctx.received_medians.get(0) is None
            apply_rules(states, ctx)

        with mock.patch.object(dsg_module, "apply_timestamp_rules", capture):
            dsg.request(1, 2)
        assert len(seen) == 1


def test_a_level_0_rebuild_of_4096_keys_stays_within_10_mb():
    """Plan records and median records per run, not per member and level:
    the rebuild's traced peak was 13.95 MB with both held per op/member."""
    dsg = DynamicSkipGraph(keys=range(1, 4097), config=DSGConfig(seed=1))
    assert dsg.graph.common_level(1, 2) == 0
    tracemalloc.start()
    try:
        result = dsg.request(1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.ops) > 50_000
    assert peak <= 10 * 1024 * 1024, f"{peak / 1e6:.2f} MB traced"
