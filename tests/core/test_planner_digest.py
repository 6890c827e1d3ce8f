"""The planner's observable output, pinned as SHA-256 digests.

``TestKernelDifferential`` holds the shipping kernel to the op-by-op
reference kernel, but both run the same planner (``transform``, AMF, the
group-id and timestamp rules), so a rewrite of the planner is invisible
there.  This test serves fixed schedules through
:class:`~repro.core.dsg.DynamicSkipGraph` and hashes everything the
planner decides — every request's plan, Equation-1 terms, ``alpha``,
``d_prime``, dummies and height, every churn plan, and afterwards the
membership table, every node's timestamps / group-ids / dominating flags /
group-base and the RNG state — against digests recorded before any planner
optimisation.  A faster planner must reproduce them bit for bit.

On a mismatch the per-event trail in ``planner_digest_trail.json`` (a short
running digest after every event, recorded with the pins) names the first
event whose record diverged.  Everything hashed is ``repr`` of ints, floats,
strings and tuples of them, with dictionaries flattened to sorted items, so
the digests do not depend on the Python version or on hash seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.skipgraph.balance import a_balance_violations
from repro.skipgraph.build import build_skip_graph
from repro.workloads.sequences import temporal_locality, uniform_pairs

TRAIL = Path(__file__).with_name("planner_digest_trail.json")

#: Final digest per schedule, recorded on the unoptimised planner.
PINNED = {
    "temporal-a2": "d065243a7d568b9c5c0965da142db1aae97571e03b40dedf58772ec6ce83f75a",
    "temporal-a3": "c96d666f14e8ffbacf24a66040efdb56fc6e8488b7c194fb92fba8e4c0d4931e",
    "temporal-a4": "e1f804dab29a4a739d6d481dd4523bef480c3016118b7866425fda89497eced4",
    "uniform": "511c54d5d86ca88425178c511565ce0f4f27c7cf67a8c551da3bcd5c7aef3ad5",
    "churn": "a61c8dce0e188a0f08d12fe2053241de8d634cc8c789c1a7b016237b1cbbb5b2",
    "exact-median": "e7e2b88e05a63b7623c0e7f3b524a4fe3347585eff0eca6c79417e6c79ad67a0",
    "no-a-balance": "c327089a4b5441dbe8313884432ee44097e30537dbbacd8cf1cd3e461b2e406e",
    "churn-from-start-a2": "34078a1ac7a72bc73879c7879f89b0f9abc0d172a93d111c6b939f1c71879da7",
    "churn-from-start-a3": "0470647e04e58017123a595ccfc246aa0edb7de1965aa465ae8aa58dc6a64549",
    "residual-then-churn": "afebe562a164e4a04b9ead188640dedd531bab77f8baeb305360de27cdc6214f",
    "random-start-churn": "f4f95db90de5e505fe282e433c8bf749c6140c3f6f92db2098cff41033731e21",
    "requests-then-churn": "db764861a1cac279d972014785e00c9dbdec7c502a7f0d675bc4fe6ec93a2a00",
}


def _temporal(a: int, **config):
    keys = list(range(1, 97))
    requests = temporal_locality(keys, 90, seed=40 + a, working_set_size=12, drift_probability=0.1)
    dsg = DynamicSkipGraph(keys=keys, config=DSGConfig(a=a, seed=a, **config))
    return dsg, [("request", u, v) for u, v in requests]


def _uniform():
    keys = list(range(1, 65))
    graph = build_skip_graph(keys, random.Random(7))
    dsg = DynamicSkipGraph(graph=graph, config=DSGConfig(seed=11))
    return dsg, [("request", u, v) for u, v in uniform_pairs(keys, 60, seed=12)]


def _churn():
    """Requests among a drifting population, with a join or a leave in two events of five."""
    dsg = DynamicSkipGraph(keys=range(1, 65), config=DSGConfig(seed=21))
    rng = random.Random(22)
    live = list(range(1, 65))
    next_key = 65
    events = []
    for _ in range(100):
        draw = rng.random()
        if draw < 0.2:
            events.append(("join", next_key))
            live.append(next_key)
            next_key += 1
        elif draw < 0.4 and len(live) > 16:
            events.append(("leave", live.pop(rng.randrange(len(live)))))
        else:
            u, v = rng.sample(live[:24], 2)
            events.append(("request", u, v))
    return dsg, events


def _churn_events(live, count, seed):
    """``count`` events over ``live`` (mutated), a join or a leave in two of
    five, the first one a join: the first a-balance repair runs at event 0."""
    rng = random.Random(seed)
    next_key = max(live) + 1
    events = []
    for index in range(count):
        draw = 0.0 if index == 0 else rng.random()
        if draw < 0.2:
            events.append(("join", next_key))
            live.append(next_key)
            next_key += 1
        elif draw < 0.4 and len(live) > 16:
            events.append(("leave", live.pop(rng.randrange(len(live)))))
        else:
            u, v = rng.sample(live[:24], 2)
            events.append(("request", u, v))
    return events


def _churn_from_start(a: int):
    """A balanced start whose first event is a join."""
    live = list(range(1, 65))
    dsg = DynamicSkipGraph(keys=live, config=DSGConfig(a=a, seed=30 + a))
    return dsg, _churn_events(live, 60, seed=40 + a)


def _residual_then_churn():
    """Requests across the whole key range leave runs longer than ``a`` behind
    (the transformation does not repair every list) before the first join."""
    live = list(range(1, 129))
    dsg = DynamicSkipGraph(keys=live, config=DSGConfig(a=2, seed=5))
    rng = random.Random(6)
    events = [("request", rng.randrange(1, 17), rng.randrange(113, 129)) for _ in range(12)]
    return dsg, events + _churn_events(live, 30, seed=7)


def _random_start_churn():
    """A random start topology, which holds violations before any event."""
    live = list(range(1, 65))
    graph = build_skip_graph(live, random.Random(8))
    dsg = DynamicSkipGraph(graph=graph, config=DSGConfig(a=3, seed=9))
    return dsg, _churn_events(live, 40, seed=10)


def _requests_then_churn():
    """A request-only stretch whose changes touch many more (list, key) pairs
    than the graph holds, then churn."""
    live = list(range(1, 65))
    requests = temporal_locality(live, 60, seed=11, working_set_size=12, drift_probability=0.1)
    dsg = DynamicSkipGraph(keys=live, config=DSGConfig(a=3, seed=12))
    return dsg, [("request", u, v) for u, v in requests] + _churn_events(live, 30, seed=13)


SCHEDULES = {
    "temporal-a2": lambda: _temporal(2),
    "temporal-a3": lambda: _temporal(3),
    "temporal-a4": lambda: _temporal(4),
    "uniform": _uniform,
    "churn": _churn,
    "exact-median": lambda: _temporal(4, use_exact_median=True),
    "no-a-balance": lambda: _temporal(4, maintain_a_balance=False),
    "churn-from-start-a2": lambda: _churn_from_start(2),
    "churn-from-start-a3": lambda: _churn_from_start(3),
    "residual-then-churn": _residual_then_churn,
    "random-start-churn": _random_start_churn,
    "requests-then-churn": _requests_then_churn,
}


def _ops(ops):
    return tuple((type(op).__name__,) + tuple(op) for op in ops)


def _event_record(dsg: DynamicSkipGraph, event) -> tuple:
    kind = event[0]
    if kind == "join":
        dsg.add_node(event[1])
        return (kind, event[1], _ops(dsg.last_churn_ops))
    if kind == "leave":
        dsg.remove_node(event[1])
        return (kind, event[1], _ops(dsg.last_churn_ops))
    result = dsg.request(event[1], event[2], keep_result=False)
    return (
        kind,
        result.time,
        result.source,
        result.destination,
        result.alpha,
        tuple(result.routing.path),
        tuple(result.routing.hop_levels),
        result.transformation_rounds,
        result.total_work_rounds,
        result.notification_rounds,
        result.cost,
        result.amf_calls,
        result.levels_rebuilt,
        result.d_prime,
        result.dummies_added,
        result.dummies_removed,
        result.height_after,
        _ops(result.ops),
    )


def _final_record(dsg: DynamicSkipGraph) -> tuple:
    graph = dsg.graph
    states = tuple(
        (
            key,
            state.uid,
            tuple(sorted(state.timestamps.items())),
            tuple(sorted(state.group_ids.items())),
            tuple(sorted(state.dominating.items())),
            state.group_base,
        )
        for key, state in sorted(dsg.states.items())
    )
    return (
        tuple(sorted(graph.membership_table().items())),
        tuple(graph.dummy_keys()),
        states,
        dsg.total_cost(),
        dsg._rng.getstate(),
    )


def serve(name: str):
    """``(final digest, per-event trail, events)`` of one schedule."""
    dsg, events = SCHEDULES[name]()
    digest = hashlib.sha256()
    trail = []
    for event in events:
        digest.update(repr(_event_record(dsg, event)).encode())
        trail.append(digest.hexdigest()[:12])
    digest.update(repr(_final_record(dsg)).encode())
    return digest.hexdigest(), trail, events


@pytest.mark.parametrize("name", sorted(PINNED))
def test_planner_output_matches_the_pinned_digest(name):
    digest, trail, events = serve(name)
    if digest == PINNED[name]:
        return
    pinned_trail = json.loads(TRAIL.read_text())[name]
    for index, (got, want) in enumerate(zip(trail, pinned_trail)):
        if got != want:
            pytest.fail(f"{name}: event {index} {events[index]!r} is the first whose record differs")
    pytest.fail(f"{name}: every event matches; the final state (topology, node states or RNG) differs")


def test_the_tracker_schedules_reach_the_paths_they_pin():
    """Residual runs exist before the first join, the random start holds
    violations, and the request stretch outgrows the tracker's mark budget
    (it goes all-dirty, so the first churn repair is a full rescan)."""
    dsg, events = _residual_then_churn()
    for event in events[:12]:
        _event_record(dsg, event)
    assert events[12][0] == "join" and a_balance_violations(dsg.graph, 2)
    dsg, _ = _random_start_churn()
    assert a_balance_violations(dsg.graph, 3)
    dsg, events = _requests_then_churn()
    went_all_dirty = False
    for event in events[:60]:
        _event_record(dsg, event)
        went_all_dirty |= dsg.graph.tracker._all_dirty
    assert went_all_dirty and events[60][0] == "join"


if __name__ == "__main__":  # re-record: python tests/core/test_planner_digest.py
    trails = {}
    for schedule in sorted(PINNED):
        final, trail, _ = serve(schedule)
        trails[schedule] = trail
        print(f'    "{schedule}": "{final}",')
    TRAIL.write_text(json.dumps(trails, indent=0) + "\n")
