"""The metric catalogue: every name ``BENCHMARK.json`` lists, and how it is read.

``END_TO_END`` metrics are what a user of the system sees; every workload
reports all of them from the **untraced** pass, and each carries the bound
by which it may worsen before a change counts as a regression.  ``PER_LAYER``
metrics are named ``<module>.<metric>`` after the layer they read; span self
times and call counts come from the **traced** pass, counts the program
already exposes (reports, ``phase_seconds``, ``plan_size_histogram``) and
latencies timed from outside come from the untraced one.  A layer a workload
never enters reads 0.

``exact`` metrics repeat digit for digit under a fixed seed: they are
counts of simulated work, not host time.
"""

from __future__ import annotations

import resource
from dataclasses import dataclass
from statistics import median
from typing import Callable, Dict, List, Optional

from spine_tracer import Tracer
from spine_workloads import EpochResult


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    read: Callable[["Reading"], float]
    exact: bool = False
    #: End-to-end only: allowed worsening, as a share of the parent's median.
    bound: Optional[float] = None


class Pool:
    """The epochs of one pass, pooled: counts add, peaks max, samples merge."""

    def __init__(self, epochs: List[EpochResult]) -> None:
        self.epochs = epochs
        self.requests = sum(epoch.requests for epoch in epochs)
        self.attempted = sum(epoch.attempted for epoch in epochs)
        self.wall_s = sum(epoch.wall_ns for epoch in epochs) / 1e9
        self.request_ns = sorted(sample for epoch in epochs for sample in epoch.request_ns)
        self.slice_ns = sorted(sample for epoch in epochs for sample in epoch.slice_ns)
        self.churn_ns = sorted(sample for epoch in epochs for sample in epoch.churn_ns)
        self.counts: Dict[str, float] = {}
        self.peaks: Dict[str, float] = {}
        self.plan_sizes: List[int] = []
        for epoch in epochs:
            for key, value in epoch.counts.items():
                self.counts[key] = self.counts.get(key, 0) + value
            for key, value in epoch.peaks.items():
                self.peaks[key] = max(self.peaks.get(key, value), value)
            for size, count in epoch.plan_sizes.items():
                self.plan_sizes.extend([size] * count)
        self.plan_sizes.sort()
        self.failures = [f"epoch {index}: {name}" for index, epoch in enumerate(epochs) for name in epoch.failures]

    def setup_s(self, part: Optional[str] = None) -> float:
        """Median over the epochs' cold set-ups (one part of it, or all)."""
        return median(
            (epoch.setup_ns[part] if part else sum(epoch.setup_ns.values())) / 1e9 for epoch in self.epochs
        )


@dataclass
class Reading:
    """What the metric readers see: the untraced pool, and the traced pass."""

    plain: Pool
    traced: Optional[Pool] = None
    tracer: Optional[Tracer] = None


def percentile(ordered: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ------------------------------------------------------------- end to end
def _peak_rss_mb(_: Reading) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


END_TO_END: List[Metric] = [
    # Generate inputs + build graph/driver/network; median of the epochs'
    # cold builds.  The widest bound: it is the least repeatable.
    Metric("setup_s", "s", "lower", lambda r: r.plain.setup_s(), bound=0.25),
    # Requests served / timed wall; churn operations and waves are in the wall.
    Metric("requests_per_s", "1/s", "higher", lambda r: ratio(r.plain.requests, r.plain.wall_s), bound=0.25),
    # Equation-1 rounds per request (routing + adjustment + 1); on
    # failure-waves, where nothing adjusts, messages (= hops) per request.
    Metric(
        "cost_per_request", "rounds", "lower",
        lambda r: ratio(r.plain.counts["cost"], r.plain.requests), exact=True, bound=0.1,
    ),
    Metric("peak_rss_mb", "MB", "lower", _peak_rss_mb, bound=0.05),
]


# -------------------------------------------------------------- per layer
def _leaf(name: str) -> str:
    return name.rsplit(".", 1)[1]


def _timed(name: str) -> Metric:
    """Self seconds of the spans ``name`` is called after.

    ``a.b.c_self_s`` reads span ``a.b.c``; ``a.b.self_s`` reads every span
    under ``a.b.`` (a layer entered through several names).
    """
    prefix = name[: -len("_self_s")] if name.endswith("_self_s") else name[: -len("self_s")]
    return Metric(name, "s", "lower", lambda r: r.tracer.self_seconds(prefix))


def _calls(name: str, span: str) -> Metric:
    return Metric(name, "count", "lower", lambda r: r.tracer.calls(span), exact=True)


def _items(name: str, span: str, unit: str = "count") -> Metric:
    return Metric(name, unit, "lower", lambda r: r.tracer.items(span), exact=True)


def _observed(name: str, unit: str = "count", better: str = "lower") -> Metric:
    """A count an observer read at a span boundary (``Tracer.counters``)."""
    return Metric(name, unit, better, lambda r: r.tracer.counters[name], exact=True)


def _counted(name: str, unit: str = "count", better: str = "lower", exact: bool = True) -> Metric:
    """A count the program reports itself, summed over the epochs."""
    return Metric(name, unit, better, lambda r: r.plain.counts.get(_leaf(name), 0), exact=exact)


def _peaked(name: str, unit: str = "count", better: str = "lower") -> Metric:
    """A program-reported maximum, over the epochs."""
    return Metric(name, unit, better, lambda r: r.plain.peaks.get(_leaf(name), 0), exact=True)


def _per_request(name: str, key: str, unit: str) -> Metric:
    return Metric(name, unit, "lower", lambda r: ratio(r.plain.counts.get(key, 0), r.plain.requests), exact=True)


def _setup_part(name: str, part: str) -> Metric:
    return Metric(name, "s", "lower", lambda r: r.plain.setup_s(part))


def _planner_s(r: Reading) -> float:
    # Inclusive: everything the embedded centralized planner did for the
    # distributed driver (0 where no driver runs).
    if not r.tracer.calls("distributed.dsg_protocol.serve"):
        return 0.0
    return sum(r.tracer.inclusive_seconds(f"core.dsg.{name}") for name in ("request", "add_node", "remove_node"))


def _engine_self_s(r: Reading) -> float:
    return r.tracer.self_seconds("simulation.engine.")


def _run_total(read: str) -> Callable[[Reading], float]:
    """Calls or items summed over the four bulk splices."""
    spans = [f"skipgraph.skipgraph.{kind}_run" for kind in ("promote", "demote", "insert", "remove")]
    return lambda r: sum(getattr(r.tracer, read)(span) for span in spans)


PER_LAYER: List[Metric] = [
    # --- core.dsg: the four existing buckets, plan sizes, the request tail ----
    _counted("core.dsg.route_s", "s", exact=False),
    _counted("core.dsg.plan_s", "s", exact=False),
    _counted("core.dsg.apply_s", "s", exact=False),
    _counted("core.dsg.repair_s", "s", exact=False),
    Metric("core.dsg.plan_ops_total", "ops", "lower", lambda r: sum(r.plain.plan_sizes), exact=True),
    Metric("core.dsg.plan_ops_p50", "ops", "lower", lambda r: percentile(r.plain.plan_sizes, 0.50), exact=True),
    Metric("core.dsg.plan_ops_p99", "ops", "lower", lambda r: percentile(r.plain.plan_sizes, 0.99), exact=True),
    Metric("core.dsg.plan_ops_max", "ops", "lower", lambda r: percentile(r.plain.plan_sizes, 1.0), exact=True),
    _observed("core.dsg.dummies_created"),
    _observed("core.dsg.dummies_destroyed", better="higher"),
    Metric(
        "core.dsg.dummies_per_node", "ratio", "lower",
        lambda r: ratio(r.plain.counts.get("dummies", 0), r.plain.counts["real_nodes"]), exact=True,
    ),
    _peaked("core.dsg.final_height", "levels"),
    _per_request("core.dsg.routing_cost_per_request", "routing", "hops"),
    # Share of the timed wall spent in the 100 slowest request() calls.
    Metric("core.dsg.heavy100_share", "ratio", "lower", lambda r: ratio(sum(r.plain.request_ns[-100:]) / 1e9, r.plain.wall_s)),
    Metric("core.dsg.request_p50_us", "us", "lower", lambda r: percentile(r.plain.request_ns, 0.50) / 1e3),
    Metric("core.dsg.request_p99_us", "us", "lower", lambda r: percentile(r.plain.request_ns, 0.99) / 1e3),
    Metric("core.dsg.request_p999_us", "us", "lower", lambda r: percentile(r.plain.request_ns, 0.999) / 1e3),
    Metric("core.dsg.request_max_ms", "ms", "lower", lambda r: percentile(r.plain.request_ns, 1.0) / 1e6),
    Metric("core.dsg.churn_op_p50_us", "us", "lower", lambda r: percentile(r.plain.churn_ns, 0.50) / 1e3),
    Metric("core.dsg.churn_op_p99_us", "us", "lower", lambda r: percentile(r.plain.churn_ns, 0.99) / 1e3),
    _timed("core.dsg.request_self_s"),
    _timed("core.dsg.add_node_self_s"),
    _timed("core.dsg.remove_node_self_s"),
    # --- the planner's parts ------------------------------------------------
    _timed("core.transformation.transform_self_s"),
    _calls("core.transformation.calls", "core.transformation.transform"),
    _items("core.transformation.members", "core.transformation.transform"),
    _observed("core.transformation.levels_rebuilt", "levels"),
    _timed("core.amf.median_self_s"),
    _calls("core.amf.calls", "core.amf.median"),
    _items("core.amf.values", "core.amf.median"),
    _timed("skiplist.distributed_sum.self_s"),
    _calls("skiplist.distributed_sum.calls", "skiplist.distributed_sum."),
    _timed("core.priorities.compute_self_s"),
    _items("core.priorities.members", "core.priorities.compute"),
    _timed("core.groups.self_s"),
    _calls("core.groups.glower_calls", "core.groups.glower"),
    _timed("core.timestamps.apply_self_s"),
    _timed("core.working_set.record_self_s"),
    Metric(
        "core.working_set.ws_bound_ratio", "ratio", "lower",
        lambda r: ratio(r.plain.counts.get("routing", 0), r.plain.counts.get("ws_bound", 0)), exact=True,
    ),
    _timed("skipgraph.routing.route_self_s"),
    _calls("skipgraph.routing.route_calls", "skipgraph.routing.route"),
    # --- skipgraph.skipgraph: bulk splices beside single-key writes ----------
    _timed("skipgraph.skipgraph.promote_run_self_s"),
    _timed("skipgraph.skipgraph.demote_run_self_s"),
    _timed("skipgraph.skipgraph.insert_run_self_s"),
    _timed("skipgraph.skipgraph.remove_run_self_s"),
    _timed("skipgraph.skipgraph.set_membership_self_s"),
    _timed("skipgraph.skipgraph.add_node_self_s"),
    _timed("skipgraph.skipgraph.remove_node_self_s"),
    Metric("skipgraph.skipgraph.run_calls", "count", "lower", _run_total("calls"), exact=True),
    Metric("skipgraph.skipgraph.run_keys", "count", "lower", _run_total("items"), exact=True),
    Metric(
        "skipgraph.skipgraph.keys_per_run", "ratio", "higher",
        lambda r: ratio(_run_total("items")(r), _run_total("calls")(r)), exact=True,
    ),
    # --- the churn path, and the parts of set-up ----------------------------
    _timed("skipgraph.balance.restore_self_s"),
    _calls("skipgraph.balance.restore_calls", "skipgraph.balance.restore"),
    _items("skipgraph.balance.dummies_inserted", "skipgraph.balance.restore"),
    _counted("skipgraph.balance.residual_runs"),
    _peaked("skipgraph.balance.max_residual_run"),
    _timed("skipgraph.build.draw_bits_self_s"),
    _calls("skipgraph.build.draw_calls", "skipgraph.build.draw_bits"),
    _setup_part("skipgraph.build.build_s", "build"),
    _setup_part("workloads.scenarios.generate_s", "generate"),
    _setup_part("distributed.routing_protocol.network_build_s", "network"),
    # --- simulation.engine (run and step spans together) --------------------
    Metric("simulation.engine.run_self_s", "s", "lower", _engine_self_s),
    _calls("simulation.engine.run_calls", "simulation.engine.run"),
    _counted("simulation.engine.rounds", "rounds"),
    _counted("simulation.engine.messages"),
    _counted("simulation.engine.total_bits", "bits"),
    _peaked("simulation.engine.max_message_bits", "bits"),
    _counted("simulation.engine.congestion_violations"),
    _counted("simulation.engine.dropped_messages"),
    _per_request("simulation.engine.rounds_per_request", "rounds", "rounds"),
    _per_request("simulation.engine.messages_per_request", "messages", "count"),
    Metric(
        "simulation.engine.host_us_per_round", "us", "lower",
        lambda r: ratio(_engine_self_s(r) * 1e6, r.plain.counts.get("rounds", 0)),
    ),
    Metric(
        "simulation.engine.host_us_per_message", "us", "lower",
        lambda r: ratio(_engine_self_s(r) * 1e6, r.plain.counts.get("messages", 0)),
    ),
    # --- the distributed driver ---------------------------------------------
    # Host us per request of the median 64-event slice (one run_scenario call).
    Metric("distributed.dsg_protocol.slice_p50_us", "us", "lower", lambda r: percentile(r.plain.slice_ns, 0.50) / 1e3),
    _timed("distributed.dsg_protocol.serve_self_s"),
    Metric("distributed.dsg_protocol.planner_s", "s", "lower", _planner_s),
    _counted("distributed.dsg_protocol.ops_executed", "ops"),
    _counted("distributed.dsg_protocol.abandoned_plans"),
    _counted("distributed.dsg_protocol.reanchored_plans"),
    _counted("distributed.pipeline.conflict_stalls"),
    _peaked("distributed.pipeline.max_in_flight", better="higher"),
    _timed("distributed.pipeline.touched_self_s"),
    _timed("workloads.scenarios.apply_local_op_self_s"),
    _timed("distributed.routing_protocol.patch_self_s"),
    _calls("distributed.routing_protocol.patch_calls", "distributed.routing_protocol.patch"),
    _timed("distributed.routing_protocol.table_refresh_self_s"),
    _calls("distributed.routing_protocol.table_refreshes", "distributed.routing_protocol.table_refresh"),
    # --- the failure arena --------------------------------------------------
    _timed("skipgraph.integrity.verify_self_s"),
    _calls("skipgraph.integrity.verify_calls", "skipgraph.integrity.verify"),
    _timed("distributed.routing_protocol.repair_links_self_s"),
    _timed("distributed.routing_protocol.rejoin_links_self_s"),
    _counted("distributed.routing_protocol.route_arounds"),
    _counted("distributed.routing_protocol.repair_links"),
    _counted("distributed.routing_protocol.rejoin_links"),
    _timed("workloads.scenarios.apply_crash_self_s"),
    _timed("workloads.scenarios.apply_recovery_self_s"),
    _timed("workloads.scenarios.repair_crashes_self_s"),
    _counted("distributed.failover.waves"),
    Metric(
        "distributed.failover.wave_mean_ms", "ms", "lower",
        lambda r: ratio(r.plain.wall_s * 1e3, r.plain.counts.get("waves", 0)),
    ),
    Metric("distributed.failover.wave_max_ms", "ms", "lower", lambda r: r.plain.peaks.get("wave_max_ns", 0) / 1e6),
    _counted("distributed.failover.retried"),
    _counted("distributed.failover.retried_delivered", better="higher"),
    _counted("distributed.failover.mid_wave_crashes"),
    _counted("distributed.failover.recoveries"),
    _per_request("distributed.failover.stale_failed_fraction", "stale_failed", "ratio"),
    # --- the instrument's own cost ------------------------------------------
    Metric("trace.overhead_ratio", "ratio", "lower", lambda r: ratio(r.traced.wall_s, r.plain.wall_s) - 1.0),
    # Self times are disjoint, so this is the share of the traced wall that no
    # named span covers: the driving loop, and a caller that is not wrapped.
    Metric(
        "trace.unattributed_share", "ratio", "lower",
        lambda r: 1.0 - ratio(r.tracer.self_seconds(""), r.traced.wall_s),
    ),
]


def read_metrics(metrics: List[Metric], reading: Reading) -> Dict[str, float]:
    return {metric.name: metric.read(reading) for metric in metrics}
