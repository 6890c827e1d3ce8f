"""The planner's recorder collects each plan's touched keys: held to the spec.

The pipelined driver's write sets come from the planner's own application
of each plan: :class:`~repro.core.local_ops.OpRecorder` with a ``touched``
set collects, while it applies, the keys whose links the plan rewires.
:func:`~repro.core.local_ops.apply_ops_touched` is the specification: it
replays the plan op by op on a copy of the pre-plan graph and reads each
op's flanks around its own write.  The bulk ``*_run`` paths splice a whole
run at once and pass through none of the op-by-op intermediate states, so
their flank reads are what these tests pin:

* every plan of seeded request / join / leave schedules (n <= 64,
  a in {2, 3, 4}), served by a planner whose ``touched`` is set, collects exactly
  the spec's set, and every bulk kind ran with more than one key;
* random bulk calls outside what the planner emits — a promote run into a
  list that already has members, a single-key promote that rewrites an
  existing bit or descends past a padded level, a demote run that leaves
  part of a subtree behind, removals of real keys, unordered insert
  batches — collect exactly the spec's set as well.

Run with the pipeline lane (``-m pipeline``).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.core.local_ops import OpRecorder, apply_ops_touched
from repro.simulation.rng import make_rng
from repro.skipgraph import MembershipVector, SkipGraph, SkipGraphNode

pytestmark = pytest.mark.pipeline

BULK = ("promote_run", "demote_run", "remove_run", "insert_dummy_run")


@pytest.fixture
def bulk_calls(monkeypatch):
    """Count the recorder's bulk calls that carried more than one key."""
    calls = Counter()
    for name in BULK:
        original = getattr(OpRecorder, name)

        def counted(self, keys, *args, name=name, original=original):
            if len(keys) > 1:
                calls[name] += 1
            return original(self, keys, *args)

        monkeypatch.setattr(OpRecorder, name, counted)
    return calls


def _collected(planner, serve):
    """Serve one event; return (recorder's set, spec's set on a pre-plan copy)."""
    before = planner.graph.copy()
    touched = planner.touched = set()
    ops = serve()
    return touched, apply_ops_touched(before, ops)


@pytest.mark.parametrize("a", [2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_each_plan_collects_what_op_by_op_replay_touches(a, seed, bulk_calls):
    rng = make_rng(100 * a + seed)
    n = rng.choice([24, 40, 64])
    planner = DynamicSkipGraph(keys=range(1, n + 1), config=DSGConfig(a=a, seed=seed))
    next_key = n + 1
    for event in range(120):
        peers = sorted(planner.states)
        draw = rng.random()
        if draw < 0.1:
            key, next_key = next_key, next_key + 1

            def serve(key=key):
                planner.add_node(key)
                return planner.last_churn_ops
        elif draw < 0.2 and len(peers) > 8:

            def serve(key=rng.choice(peers)):
                planner.remove_node(key)
                return planner.last_churn_ops
        else:

            def serve(pair=rng.sample(peers, 2)):
                return planner.request(*pair).ops
        collected, expected = _collected(planner, serve)
        assert collected == expected, f"event {event}"
    assert all(bulk_calls[name] for name in BULK), bulk_calls


def _random_graph(rng, n):
    keys = sorted(rng.sample(range(1, 10 * n), n))
    nodes = []
    for key in keys:
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        nodes.append(SkipGraphNode(key=key, membership=MembershipVector(bits)))
    return SkipGraph(nodes)


def _bulk_call(graph, recorder, rng):
    """One random bulk call whose run satisfies the graph's preconditions."""
    keys = graph.keys
    bits = graph.membership(rng.choice(keys)).bits
    draw = rng.random()
    if draw < 0.3:
        # Promote some carriers of exactly ``bits`` one level down, into a
        # list that may already have members.
        carriers = [key for key in keys if graph.membership(key).bits == bits]
        run = sorted(rng.sample(carriers, rng.randint(1, len(carriers))))
        recorder.promote_run(run, len(bits) + 1, rng.randint(0, 1))
    elif draw < 0.4:
        # One key: a rewrite at an existing level, or a padded descent.
        key = rng.choice(keys)
        recorder.promote_run([key], rng.randint(1, len(graph.membership(key)) + 3), rng.randint(0, 1))
    elif draw < 0.55 and bits:
        length = rng.randrange(len(bits))
        below = [key for key in keys if graph.membership(key).bits[:length] == bits[:length]]
        run = sorted(rng.sample(below, rng.randint(1, len(below))))
        recorder.demote_run(run, length)
    elif draw < 0.75 and len(keys) > 12:
        recorder.remove_run(sorted(rng.sample(keys, rng.randint(2, 4))))
    else:
        entries = []
        for _ in range(rng.randint(2, 5)):
            index = rng.randrange(len(keys) - 1)
            dummy = keys[index] + (keys[index + 1] - keys[index]) * (0.25 + 0.5 * rng.random())
            if dummy not in graph and dummy not in dict(entries):
                lower = graph.membership(keys[index]).bits
                entries.append((dummy, lower[: rng.randint(0, len(lower))] + (rng.randint(0, 1),)))
        recorder.insert_dummy_run(entries)


@pytest.mark.parametrize("seed", range(12))
def test_bulk_runs_collect_what_op_by_op_replay_touches(seed):
    rng = make_rng(seed)
    graph = _random_graph(rng, 40)
    for call in range(40):
        before = graph.copy()
        recorder = OpRecorder(graph)
        recorder.touched = set()
        _bulk_call(graph, recorder, rng)
        assert recorder.touched == apply_ops_touched(before, recorder.ops), f"call {call}"


def test_a_centralized_recorder_collects_nothing():
    dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(a=2, seed=1))
    assert dsg.touched is None and dsg._recorder().touched is None
    dsg.touched = set()
    assert dsg._recorder().touched is dsg.touched


def test_the_driver_collects_only_when_a_window_reads_conflicts():
    from repro.distributed import DistributedDSG

    for window, collects in ((1, False), (4, True)):
        driver = DistributedDSG(range(1, 33), window=window)
        driver.request(3, 29)
        assert (driver.planner.touched is not None) is collects
