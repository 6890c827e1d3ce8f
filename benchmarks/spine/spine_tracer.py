"""Outside-in span tracer for the measurement spine.

Nothing under ``src/`` knows about this module.  A layer is measured by
rebinding one of its *public* names at the site the caller looks it up —
a module attribute (``repro.core.dsg.transform``) or a class attribute
(``SkipGraph.promote_run``) — to a wrapper that records a span around the
original, and restoring the original when the traced pass ends.  Private
helpers (``_split_recursive``, ``_serve``) are deliberately not wrapped:
their time is their caller's self time.

A span is ``(name, start_ns, end_ns, parent, items)``; spans of one request
share :attr:`Tracer.request_id` (the event index the driving loop sets).
Self time is duration minus the part covered by child spans, accumulated
while the spans close, so the per-name totals exist the moment the pass
ends.  Raw spans are kept for the current request only and retained for
the :data:`KEPT_REQUESTS` slowest ones, whose folded span trees the runner
writes next to the result file.
"""

from __future__ import annotations

import heapq
import importlib
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Requests whose span trees survive the pass (the slowest ones).
KEPT_REQUESTS = 20

#: ``observe(counters, args, kwargs, result) -> items``: the optional hook a
#: rebinding carries to count work at the boundary it wraps.
Observer = Callable[[Dict[str, float], tuple, dict, object], int]


def _len_of(position: int, keyword: Optional[str] = None) -> Observer:
    """Item count = ``len`` of one argument (positional, or by keyword)."""

    def observe(counters, args, kwargs, result) -> int:
        if keyword is not None and keyword in kwargs:
            return len(kwargs[keyword])
        return len(args[position])

    return observe


def _observe_request(counters, args, kwargs, result) -> int:
    counters["core.dsg.dummies_created"] += result.dummies_added
    counters["core.dsg.dummies_destroyed"] += result.dummies_removed
    return len(result.ops) if result.ops else 0


def _observe_transform(counters, args, kwargs, result) -> int:
    counters["core.transformation.levels_rebuilt"] += result.levels_rebuilt
    return len(kwargs["members"])


def _observe_restore(counters, args, kwargs, result) -> int:
    counters["core.dsg.dummies_created"] += result
    return result


#: ``(owner, attribute, span name, observer)``.  ``owner`` is the dotted path
#: of the module — or ``module:Class`` — whose attribute callers resolve at
#: call time.  A name imported into several modules is rebound at each site.
REBINDINGS: List[Tuple[str, str, str, Optional[Observer]]] = [
    # --- core.dsg: the request front end and what Algorithm 1 calls ---------
    ("repro.core.dsg:DynamicSkipGraph", "request", "core.dsg.request", _observe_request),
    ("repro.core.dsg:DynamicSkipGraph", "add_node", "core.dsg.add_node", None),
    ("repro.core.dsg:DynamicSkipGraph", "remove_node", "core.dsg.remove_node", None),
    ("repro.core.dsg:DynamicSkipGraph", "restore_a_balance", "skipgraph.balance.restore", _observe_restore),
    ("repro.core.dsg", "route", "skipgraph.routing.route", None),
    ("repro.core.dsg", "transform", "core.transformation.transform", _observe_transform),
    ("repro.core.dsg", "compute_priorities", "core.priorities.compute", _len_of(1)),
    ("repro.core.dsg", "apply_timestamp_rules", "core.timestamps.apply", None),
    ("repro.core.dsg", "draw_membership_bits", "skipgraph.build.draw_bits", None),
    ("repro.core.dsg", "merge_groups_at_alpha", "core.groups.merge", None),
    ("repro.core.dsg", "glower_update", "core.groups.glower", None),
    ("repro.core.dsg", "update_group_bases_after_transformation", "core.groups.group_bases", None),
    ("repro.core.working_set:CommunicationHistory", "record", "core.working_set.record", None),
    # --- core.transformation: what the level-by-level split calls ----------
    ("repro.core.transformation", "approximate_median", "core.amf.median", _len_of(0)),
    ("repro.core.transformation", "distributed_sum", "skiplist.distributed_sum.sum", None),
    ("repro.core.transformation", "assign_group_ids_after_split", "core.groups.assign_ids", None),
    ("repro.core.transformation", "find_straddled_group", "core.groups.straddled", None),
    # --- skipgraph.skipgraph: bulk splices and single-key writes ------------
    ("repro.skipgraph.skipgraph:SkipGraph", "promote_run", "skipgraph.skipgraph.promote_run", _len_of(1)),
    ("repro.skipgraph.skipgraph:SkipGraph", "demote_run", "skipgraph.skipgraph.demote_run", _len_of(1)),
    ("repro.skipgraph.skipgraph:SkipGraph", "insert_run", "skipgraph.skipgraph.insert_run", _len_of(1)),
    ("repro.skipgraph.skipgraph:SkipGraph", "remove_run", "skipgraph.skipgraph.remove_run", _len_of(1)),
    ("repro.skipgraph.skipgraph:SkipGraph", "set_membership", "skipgraph.skipgraph.set_membership", None),
    ("repro.skipgraph.skipgraph:SkipGraph", "add_node", "skipgraph.skipgraph.add_node", None),
    ("repro.skipgraph.skipgraph:SkipGraph", "remove_node", "skipgraph.skipgraph.remove_node", None),
    # --- simulation.engine ---------------------------------------------------
    ("repro.simulation.engine:Simulator", "run", "simulation.engine.run", None),
    ("repro.simulation.engine:Simulator", "step", "simulation.engine.step", None),
    # --- distributed driver --------------------------------------------------
    ("repro.distributed.dsg_protocol:PipelinedDSG", "run_scenario", "distributed.dsg_protocol.serve", None),
    ("repro.distributed.dsg_protocol", "apply_ops_touched", "distributed.pipeline.touched", _len_of(1)),
    ("repro.distributed.dsg_protocol", "apply_local_op", "workloads.scenarios.apply_local_op", None),
    ("repro.distributed.dsg_protocol", "NeighborTable", "distributed.routing_protocol.table_refresh", None),
    ("repro.distributed.routing_protocol", "patch_network", "distributed.routing_protocol.patch", None),
    # --- failure arena -------------------------------------------------------
    ("repro.distributed.failover", "NeighborTable", "distributed.routing_protocol.table_refresh", None),
    ("repro.distributed.failover", "verify_skip_graph_integrity", "skipgraph.integrity.verify", None),
    ("repro.distributed.failover", "repair_crashes", "workloads.scenarios.repair_crashes", _len_of(2)),
    ("repro.distributed.failover", "apply_crash", "workloads.scenarios.apply_crash", None),
    ("repro.distributed.failover", "apply_recovery", "workloads.scenarios.apply_recovery", None),
    ("repro.distributed.routing_protocol", "repair_crash_links", "distributed.routing_protocol.repair_links", None),
    ("repro.distributed.routing_protocol", "rejoin_crash_links", "distributed.routing_protocol.rejoin_links", None),
]


def resolve_owner(path: str):
    """The module, or the class inside it, that ``path`` names."""
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Tracer:
    """Context-stack span recorder; see the module docstring."""

    def __init__(self) -> None:
        #: ``name -> [self_ns, inclusive_ns, calls, items]``.
        self.totals: Dict[str, List[int]] = {}
        #: Work counts the observers read off arguments and results.
        self.counters: Dict[str, float] = {
            "core.dsg.dummies_created": 0,
            "core.dsg.dummies_destroyed": 0,
            "core.transformation.levels_rebuilt": 0,
        }
        self.epoch = 0
        self.request_id = -1
        self._current: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._children: List[int] = []
        #: One cell: ns covered by the current request's top-level spans.
        self._request_ns: List[int] = [0]
        self._kept: List[Tuple[int, int, int, List[tuple]]] = []
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ rebinding
    def install(self) -> None:
        """Rebind every name of :data:`REBINDINGS` to its traced wrapper."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        for path, attribute, name, observe in REBINDINGS:
            owner = resolve_owner(path)
            original = owner.__dict__[attribute]
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        """Restore every rebound name (reverse order, idempotent)."""
        self.begin_request(-1)
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def checkpoint(self) -> tuple:
        """The totals and counters as of now, for :meth:`rollback`."""
        return {name: list(total) for name, total in self.totals.items()}, dict(self.counters)

    def rollback(self, checkpoint: tuple) -> None:
        """Forget what was recorded since ``checkpoint``; nothing may be open.

        Used to drop the spans of set-up work that a traced call performs
        before its timed part starts.
        """
        if self._stack:
            raise RuntimeError("rollback inside an open span")
        totals, counters = checkpoint
        for name, total in self.totals.items():
            total[:] = totals.get(name, (0, 0, 0, 0))
        self.counters.update(counters)
        self._current.clear()
        self._request_ns[0] = 0

    # ---------------------------------------------------------------- spans
    def wrap(self, name: str, function, observe: Optional[Observer] = None):
        """``function`` with a span named ``name`` recorded around each call."""
        total = self.totals.setdefault(name, [0, 0, 0, 0])
        current, stack, children = self._current, self._stack, self._children
        counters, clock, request_ns = self.counters, perf_counter_ns, self._request_ns

        def traced(*args, **kwargs):
            index = len(current)
            current.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            children.append(0)
            items = 0
            start = clock()
            try:
                result = function(*args, **kwargs)
                if observe is not None:
                    items = observe(counters, args, kwargs, result)
                return result
            finally:
                end = clock()
                stack.pop()
                covered = children.pop()
                duration = end - start
                if children:
                    children[-1] += duration
                else:
                    request_ns[0] += duration
                total[0] += duration - covered
                total[1] += duration
                total[2] += 1
                total[3] += items
                current[index] = (name, start, end, parent, items)

        traced.__wrapped__ = function
        return traced

    def begin_request(self, request_id: int) -> None:
        """Close the current request's span list and open ``request_id``'s.

        Must be called between top-level spans (nothing open).  The closed
        request's raw spans are retained only while it ranks among the
        :data:`KEPT_REQUESTS` slowest seen so far.
        """
        current = self._current
        if current:
            if self._stack:
                raise RuntimeError("begin_request inside an open span")
            duration = self._request_ns[0]
            if len(self._kept) < KEPT_REQUESTS:
                heapq.heappush(self._kept, (duration, self.epoch, self.request_id, list(current)))
            elif duration > self._kept[0][0]:
                heapq.heapreplace(self._kept, (duration, self.epoch, self.request_id, list(current)))
            current.clear()
            self._request_ns[0] = 0
        self.request_id = request_id

    # -------------------------------------------------------------- reading
    def self_seconds(self, prefix: str) -> float:
        """Total self time of every span whose name starts with ``prefix``."""
        return sum(t[0] for name, t in self.totals.items() if name.startswith(prefix)) / 1e9

    def inclusive_seconds(self, name: str) -> float:
        return self.totals.get(name, (0, 0, 0, 0))[1] / 1e9

    def calls(self, prefix: str) -> int:
        return sum(t[2] for name, t in self.totals.items() if name.startswith(prefix))

    def items(self, prefix: str) -> int:
        return sum(t[3] for name, t in self.totals.items() if name.startswith(prefix))

    def top_span(self) -> Tuple[str, float]:
        """``(name, self seconds)`` of the span with the largest self time."""
        name = max(self.totals, key=lambda key: self.totals[key][0])
        return name, self.totals[name][0] / 1e9

    def slowest_requests(self) -> List[dict]:
        """Folded span trees of the retained requests, slowest first.

        Same-name siblings are folded into one node (``calls`` counts them),
        so a 40 000-span rebuild reads as the handful of layers it crossed.
        """
        trees = []
        for duration, epoch, request_id, spans in sorted(self._kept, reverse=True):
            trees.append(
                {
                    "epoch": epoch,
                    "request_id": request_id,
                    "duration_us": duration / 1e3,
                    "spans": len(spans),
                    "tree": _fold(spans),
                }
            )
        return trees


def _fold(spans: List[tuple]) -> List[dict]:
    """Nest ``spans`` by parent, folding same-name siblings together."""
    by_parent: Dict[int, List[int]] = {}
    for index, (_, _, _, parent, _) in enumerate(spans):
        by_parent.setdefault(parent, []).append(index)

    def fold(indices: List[int]) -> List[dict]:
        groups: Dict[str, List[int]] = {}
        for index in indices:
            groups.setdefault(spans[index][0], []).append(index)
        nodes = []
        for name, members in groups.items():
            inclusive = sum(spans[i][2] - spans[i][1] for i in members)
            child_indices = [c for i in members for c in by_parent.get(i, ())]
            covered = sum(spans[c][2] - spans[c][1] for c in child_indices)
            node = {
                "name": name,
                "calls": len(members),
                "items": sum(spans[i][4] for i in members),
                "duration_us": inclusive / 1e3,
                "self_us": (inclusive - covered) / 1e3,
            }
            if child_indices:
                node["children"] = fold(child_indices)
            nodes.append(node)
        nodes.sort(key=lambda node: -node["duration_us"])
        return nodes

    return fold(by_parent.get(-1, []))
