"""The five spine workloads: input builders, epoch runners, output checks.

A run is a fixed number of **epochs**.  Each epoch generates its inputs from
``(seed, epoch)``, builds a fresh system (one cold set-up sample), serves the
schedule in a closed loop with one client — the next event is issued when
the previous one returns — and checks the outputs outside the timed window.
Metrics pool over the epochs of a run.

Why epochs instead of one long schedule: a DSG run is chaotic in its input.
Re-ordering the body of one ``scale_scenario`` schedule moves its wall clock
by +-25 %, a different seed by 5x, because what follows a deep rebuild
depends on every earlier coin.  A 10-run median cannot resolve a 10 % change
on such a quantity, so each workload is shaped until the seed picks *which*
keys talk and crash but not *how much* work that is: independent epochs
average, heavy events are stratified (``central-aligned`` ends each epoch
with exactly one level-0 first contact, ``failure-waves`` draws schedules
until one has the target wave count), and sizes are small enough that a run
holds many heavy events (``central-temporal``).

``--seed`` seeds the input generators only; the algorithm under test always
runs with ``DSGConfig(seed=ALGORITHM_SEED)``.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro.baselines.adapter import DSGAdapter
from repro.core.dsg import DSGConfig
from repro.distributed import PipelinedDSG, run_failure_arena, segment_waves
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng
from repro.skipgraph.balance import a_balance_violations
from repro.skipgraph.build import build_balanced_skip_graph
from repro.skipgraph.integrity import verify_skip_graph_integrity
from repro.skipgraph.routing import route, route_reference
from repro.workloads import (
    CrashEvent,
    JoinEvent,
    LeaveEvent,
    RecoveryEvent,
    RequestEvent,
    Scenario,
    failure_scenario,
    scale_scenario,
)
from repro.workloads.sequences import generate_workload

from spine_tracer import Tracer

#: Seed of the algorithm under test (AMF coins, dummy keys, engine).
ALGORITHM_SEED = 1
#: Epochs are sized to about this long on the 2-core reference box, so
#: ``--seconds 10`` is three of them.
EPOCH_SECONDS = 10 / 3
#: Balance parameter every workload runs with (the DSGConfig default).
A_BALANCE = 4
#: Real pairs on which ``route == route_reference`` is checked per epoch; the
#: reference scans every node per hop, so large graphs get fewer pairs (the
#: product pairs x nodes is capped, never below two pairs).
ROUTE_SAMPLES = 200
ROUTE_SCAN_BUDGET = 30_000
#: Events per ``PipelinedDSG.run_scenario`` call: the smallest unit of the
#: pipelined schedule that can be timed from outside (four windows deep, so
#: draining at its end costs the pipeline little).
PIPELINE_SLICE = 64
#: In-flight window of the pipelined driver.
PIPELINE_WINDOW = 16
#: Per-request chance that the temporal working set swaps one member out.
TEMPORAL_DRIFT = 0.05


@dataclass
class EpochResult:
    """What one epoch measured.  ``counts`` add across epochs, ``peaks`` max."""

    setup_ns: Dict[str, int]
    wall_ns: int
    requests: int
    attempted: int
    #: Host ns of every ``request()`` call (central-*).
    request_ns: List[int] = field(default_factory=list)
    #: Host ns per request of every slice of the pipelined schedule.
    slice_ns: List[float] = field(default_factory=list)
    churn_ns: List[int] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    peaks: Dict[str, float] = field(default_factory=dict)
    plan_sizes: Dict[int, int] = field(default_factory=dict)
    #: Names of the output checks that failed (empty when correct).
    failures: List[str] = field(default_factory=list)


# ----------------------------------------------------------------- central
def _aligned_scenario(n, length, seed, hot_pair_count, flash_count, crowd_size) -> Scenario:
    """``scale_scenario`` without far pairs, closed by one level-0 first contact.

    The far pair differs in rank bit 0, so in the balanced start topology its
    highest common list is the base list: serving it rebuilds all ``n``
    members, whatever the seed.  It comes last because the re-sinking that
    follows such a rebuild is the chaotic part (see the module docstring).
    """
    scenario = scale_scenario(
        n=n, length=length, seed=seed, hot_pair_count=hot_pair_count, cross_pair_count=0,
        flash_count=flash_count, crowd_size=crowd_size, churn_rate=0.0005, name="central-aligned",
    )
    busy = set()
    for event in scenario.events:
        if isinstance(event, RequestEvent):
            busy.update((event.source, event.destination))
        else:
            busy.add(event.key)
    rng = make_rng(seed + 1)
    while True:
        u, v = rng.randrange(n), rng.randrange(n)
        if (u ^ v) & 1 and u + 1 not in busy and v + 1 not in busy:
            break
    scenario.events.append(RequestEvent(u + 1, v + 1))
    return scenario


def _temporal_scenario(n, length, seed, working_set_size) -> Scenario:
    """A temporal-locality request list with the expected number of newcomers.

    A key entering the working set is the heavy event here (its first
    contact is a deep transformation) and their number is Poisson under the
    generator, so request lists are drawn from ``seed, seed + 1, ...`` until
    one touches the expected number of distinct keys, give or take one.
    """
    keys = list(range(1, n + 1))
    expected = working_set_size + round(TEMPORAL_DRIFT * length)
    for attempt in range(10_000):
        requests = generate_workload(
            "temporal", keys, length, seed=seed * 10_000 + attempt,
            working_set_size=working_set_size, drift_probability=TEMPORAL_DRIFT,
        )
        if abs(len({key for pair in requests for key in pair}) - expected) <= 1:
            return Scenario("central-temporal", keys, [RequestEvent(u, v) for u, v in requests])
    raise RuntimeError("no temporal request list with the expected number of distinct keys")


def _churn_scenario(n, length, seed, hot_pair_count) -> Scenario:
    """``scale_scenario`` with every other event a join or a leave."""
    return scale_scenario(
        n=n, length=length, seed=seed, hot_pair_count=hot_pair_count, cross_pair_count=0,
        flash_count=0, churn_rate=0.5, name="central-churn",
    )


def _central_epoch(workload: "Workload", shape: dict, seed: int, tracer: Optional[Tracer]) -> EpochResult:
    clock = perf_counter_ns
    began = clock()
    scenario = workload.scenario(seed=seed, **shape)
    generated = clock()
    adapter = DSGAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=ALGORITHM_SEED))
    built = clock()

    program: List[Tuple[int, int, int]] = []
    for event in scenario.events:
        if isinstance(event, RequestEvent):
            program.append((0, event.source, event.destination))
        else:
            program.append((1 if isinstance(event, JoinEvent) else 2, event.key, 0))
    request, join, leave = adapter.request, adapter.join, adapter.leave
    begin = tracer.begin_request if tracer else None
    request_ns: List[int] = []
    churn_ns: List[int] = []
    gc.collect()
    with tracer or nullcontext():
        started = clock()
        for index, (kind, a, b) in enumerate(program):
            if begin:
                begin(index)
            t0 = clock()
            if kind == 0:
                request(a, b)
                request_ns.append(clock() - t0)
            elif kind == 1:
                join(a)
                churn_ns.append(clock() - t0)
            else:
                leave(a)
                churn_ns.append(clock() - t0)
        wall = clock() - started

    dsg, graph = adapter.dsg, adapter.dsg.graph
    joins = sum(1 for kind, _, _ in program if kind == 1)
    leaves = sum(1 for kind, _, _ in program if kind == 2)
    phases = adapter.phase_seconds()
    result = EpochResult(
        setup_ns={"generate": generated - began, "build": built - generated, "network": 0},
        wall_ns=wall,
        requests=len(request_ns),
        attempted=len(program),
        request_ns=request_ns,
        churn_ns=churn_ns,
        counts={
            "cost": adapter.total_cost,
            "routing": adapter.total_routing,
            "ws_bound": adapter.working_set_bound(),
            "dummies": adapter.dummy_count(),
            "real_nodes": adapter.population(),
            **{f"{phase}_s": seconds for phase, seconds in phases.items()},
        },
        peaks={"final_height": adapter.height()},
        plan_sizes=adapter.plan_size_histogram(),
    )

    residual_runs = a_balance_violations(graph, A_BALANCE)
    result.counts["residual_runs"] = len(residual_runs)
    result.peaks["max_residual_run"] = max((len(run.run_keys) for run in residual_runs), default=0)
    checks = {
        "integrity_clean": not verify_skip_graph_integrity(graph),
        # restore_a_balance leaves no violation behind, so a churn schedule
        # (whose requests are all 4-op) must end a-balanced.  Deep request
        # transformations leave residual runs by design (experiment E10
        # counts them); there they are reported as metrics, not checked.
        "a_balance": not (workload.ends_a_balanced and residual_runs),
        "cost_is_routing_plus_adjustment_plus_requests": (
            adapter.total_cost == adapter.total_routing + adapter.total_adjustment + adapter.requests_served
            and adapter.total_cost == dsg.total_cost()
        ),
        "population_is_initial_plus_joins_minus_leaves": (
            adapter.population() == len(scenario.initial_keys) + joins - leaves
        ),
        "route_equals_reference": _routes_match_reference(graph, seed),
    }
    result.failures = [name for name, ok in checks.items() if not ok]
    return result


def _routes_match_reference(graph, seed: int) -> bool:
    rng = make_rng(seed)
    real = graph.real_keys
    for _ in range(max(2, min(ROUTE_SAMPLES, ROUTE_SCAN_BUDGET // len(graph)))):
        u, v = rng.sample(real, 2)
        fast, reference = route(graph, u, v), route_reference(graph, u, v)
        if fast.path != reference.path or fast.distance != reference.distance:
            return False
    return True


# ---------------------------------------------------------------- pipeline
def _pipeline_scenario(n, hot_pairs, mid_pairs, body, churn, seed) -> Scenario:
    """The ``bench_e17`` traffic with alternating join/leave barriers.

    Hot pairs sit in distinct deepest-stride subtrees (disjoint conflict
    sets, so the window overlaps them), mid pairs share stride-64 lists
    (their contacts serialize); 90/10 mix after one warm-up pass.  ``churn``
    joins and leaves of uninvolved keys are spread evenly over the body.
    """
    rng = make_rng(seed)
    top_stride = 1 << ((n - 1).bit_length() - 1)
    mid_stride = 64 if n > 128 else 16
    starts = rng.sample(range(n - top_stride), hot_pairs)
    hot = [(start + 1, start + top_stride + 1) for start in starts]
    mid: List[Tuple[int, int]] = []
    while len(mid) < mid_pairs:
        start = rng.randrange(n - mid_stride)
        pair = (start + 1, start + mid_stride + 1)
        if pair not in mid and pair not in hot:
            mid.append(pair)
    involved = {key for pair in hot + mid for key in pair}
    bystanders = [key for key in range(1, n + 1) if key not in involved]
    events = [RequestEvent(u, v) for u, v in hot + mid]
    every = body // churn if churn else 0
    next_key = n + 1
    for index in range(body):
        pool = hot if rng.random() < 0.9 else mid
        events.append(RequestEvent(*pool[rng.randrange(len(pool))]))
        if every and index % every == every - 1:
            if (index // every) % 2 == 0:
                events.append(JoinEvent(next_key))
                next_key += 1
            else:
                events.append(LeaveEvent(bystanders.pop(rng.randrange(len(bystanders)))))
    return Scenario("dist-pipeline", list(range(1, n + 1)), events)


def _pipeline_epoch(workload: "Workload", shape: dict, seed: int, tracer: Optional[Tracer]) -> EpochResult:
    clock = perf_counter_ns
    began = clock()
    scenario = workload.scenario(seed=seed, **shape)
    slices = [
        Scenario("slice", [], scenario.events[start:start + PIPELINE_SLICE])
        for start in range(0, len(scenario.events), PIPELINE_SLICE)
    ]
    generated = clock()
    driver = PipelinedDSG(
        scenario.initial_keys,
        config=DSGConfig(seed=ALGORITHM_SEED, track_working_set=False),
        seed=ALGORITHM_SEED,
        strict=True,
        window=PIPELINE_WINDOW,
    )
    built = clock()

    begin = tracer.begin_request if tracer else None
    slice_ns: List[float] = []
    gc.collect()
    with tracer or nullcontext():
        started = clock()
        for index, piece in enumerate(slices):
            if begin:
                begin(index)
            t0 = clock()
            driver.run_scenario(piece)
            elapsed = clock() - t0
            served = piece.request_count
            if served:
                slice_ns.append(elapsed / served)
        wall = clock() - started

    report = driver.report()
    planner = driver.planner
    result = EpochResult(
        setup_ns={"generate": generated - began, "build": 0, "network": built - generated},
        wall_ns=wall,
        requests=report.requests,
        attempted=len(scenario.events),
        slice_ns=slice_ns,
        counts={
            "cost": report.total_cost,
            "routing": report.total_routing,
            "dummies": planner.dummy_count(),
            "real_nodes": report.final_nodes,
            "rounds": report.rounds,
            "messages": report.messages,
            "total_bits": report.total_bits,
            "congestion_violations": report.congestion_violations,
            "dropped_messages": report.dropped_messages,
            "ops_executed": sum(outcome.ops_executed for outcome in report.outcomes),
            "abandoned_plans": report.abandoned_plans,
            "reanchored_plans": report.reanchored_plans,
            "conflict_stalls": report.conflict_stalls,
            **{f"{phase}_s": seconds for phase, seconds in planner.phase_seconds.items()},
        },
        peaks={
            "final_height": report.final_height,
            "max_message_bits": report.max_message_bits,
            "max_in_flight": report.max_in_flight,
        },
        plan_sizes=planner.plan_size_histogram(),
    )
    checks = {
        "served_every_event": (
            report.requests == scenario.request_count
            and report.joins == scenario.join_count
            and report.leaves == scenario.leave_count
        ),
        "matches_planner": report.matches_planner,
        "topology_matches_planner": driver.topology_matches_planner(),
        "network_matches_topology": driver.network_matches_topology(),
        "zero_violations_and_drops": report.congestion_violations == 0 and report.dropped_messages == 0,
        "messages_within_congest_budget": (
            report.max_message_bits <= congest_budget_bits(len(scenario.initial_keys))
        ),
    }
    result.failures = [name for name, ok in checks.items() if not ok]
    return result


# ----------------------------------------------------------------- failure
def _stale_requests(scenario: Scenario) -> int:
    """Requests whose destination is crashed when they are issued.

    These are the schedule's intended failures (a client holding a stale
    reference); the arena must fail exactly them and deliver the rest.
    """
    crashed, stale = set(), 0
    for event in scenario.events:
        if isinstance(event, CrashEvent):
            crashed.add(event.key)
        elif isinstance(event, RecoveryEvent):
            crashed.discard(event.key)
        elif isinstance(event, RequestEvent) and event.destination in crashed:
            stale += 1
    return stale


def _failure_scenario(n, length, crash_rate, mid_wave_fraction, waves, k, seed) -> Scenario:
    """An independent-crash schedule with exactly ``waves`` waves.

    Wave count is Poisson under ``failure_scenario`` and each wave pays one
    integrity sweep (most of its cost), so schedules are drawn from
    ``seed, seed + 1, ...`` until one has the target count, a mid-wave
    crash, a recovery and a stale-destination request: the seed picks who
    crashes and who talks to whom, not how many sweeps run.
    """
    for attempt in range(10_000):
        scenario = failure_scenario(
            n=n, length=length, seed=seed * 10_000 + attempt, mode="independent", crash_rate=crash_rate,
            recovery_fraction=0.6, mid_wave_fraction=mid_wave_fraction, stale_fraction=0.05,
            adjacent_crash_limit=k - 1, name="failure-waves",
        )
        if (
            len(segment_waves(scenario)) == waves
            and scenario.recovery_count > 0
            and any(isinstance(e, CrashEvent) and e.mid_wave for e in scenario.events)
            and _stale_requests(scenario) > 0
        ):
            return scenario
    raise RuntimeError("no failure schedule with the target wave count")


class WaveClock:
    """Reads ``run_failure_arena``'s wave boundaries from outside.

    The arena is one call that builds its own network and engine, so two
    names in its module are rebound for the duration: ``segment_waves`` is
    called once, right after that set-up, and ``verify_skip_graph_integrity``
    once at the end of every wave.  Their call times split the call into
    set-up and waves.  Entered *inside* the tracer so the sweep wrapper sits
    on top of the traced one.
    """

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer
        self.marks: List[int] = []
        self.waves: list = []

    def __enter__(self) -> "WaveClock":
        import repro.distributed.failover as failover

        self._module = failover
        segment, verify = failover.segment_waves, failover.verify_skip_graph_integrity
        self._originals = (segment, verify)
        tracer, marks = self.tracer, self.marks
        checkpoint = tracer.checkpoint() if tracer else None

        def segment_and_mark(scenario):
            self.waves = segment(scenario)
            if tracer:
                tracer.rollback(checkpoint)
                tracer.begin_request(0)
            marks.append(perf_counter_ns())
            return self.waves

        def verify_and_mark(*args, **kwargs):
            violations = verify(*args, **kwargs)
            marks.append(perf_counter_ns())
            if tracer:
                tracer.begin_request(len(marks) - 1)
            return violations

        failover.segment_waves = segment_and_mark
        failover.verify_skip_graph_integrity = verify_and_mark
        return self

    def __exit__(self, *exc_info) -> None:
        self._module.segment_waves, self._module.verify_skip_graph_integrity = self._originals


def _failure_epoch(workload: "Workload", shape: dict, seed: int, tracer: Optional[Tracer]) -> EpochResult:
    clock = perf_counter_ns
    began = clock()
    scenario = workload.scenario(seed=seed, **shape)
    generated = clock()
    graph = build_balanced_skip_graph(scenario.initial_keys)
    built = clock()
    gc.collect()
    with tracer or nullcontext(), WaveClock(tracer) as waves:
        entered = clock()
        report = run_failure_arena(scenario, k=shape["k"], seed=ALGORITHM_SEED, graph=graph)
        returned = clock()
    marks = waves.marks
    stale = _stale_requests(scenario)
    result = EpochResult(
        setup_ns={"generate": generated - began, "build": built - generated, "network": marks[0] - entered},
        wall_ns=returned - marks[0],
        requests=report.requests,
        attempted=report.requests,
        counts={
            # No adjustment runs here, so Equation 1 degenerates to hops:
            # one message per hop, route-around detours included.
            "cost": report.messages,
            "real_nodes": graph.real_count,
            "rounds": report.rounds,
            "messages": report.messages,
            "total_bits": report.total_bits,
            "congestion_violations": report.congestion_violations,
            "dropped_messages": report.dropped_messages,
            "route_arounds": report.route_arounds,
            "repair_links": report.repair_links,
            "rejoin_links": report.rejoin_links,
            "waves": len(report.waves),
            "retried": report.retried,
            "retried_delivered": report.retried_delivered,
            "mid_wave_crashes": report.mid_wave_crashes,
            "recoveries": report.recoveries,
            "stale_failed": report.failed,
        },
        peaks={
            "final_height": graph.height(),
            "max_message_bits": report.max_message_bits,
            "wave_max_ns": max(b - a for a, b in zip(marks, marks[1:])),
        },
    )
    checks = {
        "served_every_request": report.requests == scenario.request_count,
        "conserved": report.conserved,
        "integrity_clean": report.integrity_clean and not verify_skip_graph_integrity(graph),
        "failed_equals_stale_requests": report.failed == stale,
        "mid_wave_crashes_happened": report.mid_wave_crashes > 0,
        "recoveries_happened": report.recoveries > 0,
        "zero_congestion_violations": report.congestion_violations == 0,
    }
    result.failures = [name for name, ok in checks.items() if not ok]
    return result


# -------------------------------------------------------------- the table
@dataclass(frozen=True)
class Workload:
    """One named workload: its reason, its builders, its two shapes."""

    name: str
    why: str
    #: ``scenario(seed=..., **shape)`` builds the inputs of one epoch.
    scenario: Callable[..., Scenario]
    #: ``epoch(workload, shape, seed, tracer)`` builds, serves and checks it.
    epoch: Callable[..., EpochResult]
    full: dict
    quick: dict
    #: The schedule's requests are all 4-op, so it must end a-balanced.
    ends_a_balanced: bool = False


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="central-aligned",
            why="Traffic aligned to the start topology (the e13/e15 shape): 4-op steady path sets p50, "
            "one level-0 first contact per epoch (deep-rebuild path) sets requests_per_s.",
            scenario=_aligned_scenario,
            epoch=_central_epoch,
            full=dict(n=8192, length=8000, hot_pair_count=64, flash_count=2, crowd_size=12),
            quick=dict(n=256, length=250, hot_pair_count=8, flash_count=1, crowd_size=8),
        ),
        Workload(
            name="central-temporal",
            why="The paper's own traffic model (16-node temporal working set over random keys, not aligned): "
            "every request is a mid-size transformation, so it reads per-member planner cost.",
            scenario=_temporal_scenario,
            epoch=_central_epoch,
            full=dict(n=512, length=660, working_set_size=16),
            quick=dict(n=64, length=40, working_set_size=8),
        ),
        Workload(
            name="central-churn",
            why="Joins and leaves beside requests (half the events): reads a-balance repair, membership-bit "
            "draws and single-key add/remove, where a bulk-splice win can cost single-key churn.",
            scenario=_churn_scenario,
            epoch=_central_epoch,
            full=dict(n=16384, length=16000, hot_pair_count=64),
            quick=dict(n=512, length=200, hot_pair_count=8),
            ends_a_balanced=True,
        ),
        Workload(
            name="dist-pipeline",
            why="The CONGEST engine and the pipelined distributed driver (window 16, strict): per-round "
            "engine cost, conflict sets, network patching; the embedded planner is a minor share.",
            scenario=_pipeline_scenario,
            epoch=_pipeline_epoch,
            full=dict(n=4096, hot_pairs=16, mid_pairs=4, body=3800, churn=12),
            quick=dict(n=256, hot_pairs=8, mid_pairs=2, body=120, churn=4),
        ),
        Workload(
            name="failure-waves",
            why="Crash, serve through the dark window, repair, integrity sweep, recover: no DSG adjustment "
            "runs, so every core.* change should move nothing here.",
            scenario=_failure_scenario,
            epoch=_failure_epoch,
            full=dict(n=2048, length=600, crash_rate=0.005, mid_wave_fraction=0.004, waves=5, k=3),
            quick=dict(n=128, length=150, crash_rate=0.02, mid_wave_fraction=0.02, waves=4, k=3),
        ),
    )
}


def run_epoch(workload: Workload, seed: int, epoch: int, quick: bool, tracer: Optional[Tracer]) -> EpochResult:
    """Epoch ``epoch`` of a run: inputs from ``(seed, epoch)``, a fresh system."""
    if tracer:
        tracer.epoch = epoch
    shape = workload.quick if quick else workload.full
    return workload.epoch(workload, shape, seed * 1000 + epoch, tracer)
