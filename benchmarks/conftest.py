"""Shared helpers for the benchmark suite.

Every experiment benchmark runs the corresponding experiment exactly once
per measurement (``rounds=1``) — the quantity of interest is the experiment
outcome (the reproduced rows/series and their checks), the wall-clock time
is reported by pytest-benchmark as a by-product.

Quick mode: setting ``BENCH_QUICK=1`` in the environment makes
:func:`experiment_params` return the CLI's ``QUICK_PARAMS`` for the
experiment instead of the benchmark's paper-sized parameters, and the
scenario benches shrink their populations accordingly.  CI uses this as a
crash gate: every benchmark script must *run to completion* (checks
included) under quick parameters on every push, while the full-size runs
remain an on-demand/manual job.

Artifacts (``BENCH_*.json``, :mod:`repro.analysis.artifacts`) hold plain
dict rows; the two row shapes several benchmarks share are built here:
:func:`ledger_row` (a scenario run's Equation-1 ledger) and
:func:`protocol_row` (one CONGEST run's traffic).  So is the one arena two
benchmarks share, :func:`routing_under_churn` (e11 and e15).
"""

import os
import shutil
import time
from pathlib import Path

import pytest


def quick_mode() -> bool:
    """Whether the suite runs under the ``BENCH_QUICK=1`` crash gate.

    ``BENCH_QUICK=0`` (or empty) explicitly selects the full-size shapes.
    """
    return os.environ.get("BENCH_QUICK", "") not in ("", "0")


def experiment_params(experiment_id: str, **full_params):
    """Benchmark parameters for one experiment, honouring quick mode.

    Full-size (default): the keyword arguments given here.  Under
    ``BENCH_QUICK=1``: the experiment's ``QUICK_PARAMS`` entry from
    :mod:`repro.experiments.cli` — the same reduced sizes the tier-1 test
    suite already validates, so a quick benchmark pass is a pure
    does-it-crash gate.
    """
    if quick_mode():
        from repro.experiments.cli import QUICK_PARAMS

        return dict(QUICK_PARAMS.get(experiment_id, {}))
    return dict(full_params)


def artifact_dir():
    """Directory benchmark artifacts (``BENCH_*.json``) are written to.

    Defaults to ``benchmarks/artifacts/`` next to this file; override with
    ``BENCH_ARTIFACT_DIR`` (CI points it at the workflow's upload path).
    """
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "artifacts")
    return os.environ.get("BENCH_ARTIFACT_DIR", default)


def publish_artifact(artifact):
    """Write ``artifact`` to :func:`artifact_dir`; mirror full-size runs to the repo root.

    The perf-trajectory tooling scans the repository root for
    ``BENCH_*.json`` files, so every benchmark that produces an artifact
    publishes through this helper: the canonical copy lands in the artifact
    directory (uploaded by CI), the mirror next to ``README.md`` keeps the
    root history populated.  Quick-mode runs are not mirrored — the
    committed root files are full-size numbers, and a crash-gate pass must
    leave ``git status`` clean.  Returns the canonical path.
    """
    from repro.analysis.artifacts import write_artifact

    path = write_artifact(artifact, Path(artifact_dir()))
    repo_root = Path(__file__).resolve().parent.parent
    if not quick_mode() and path.parent.resolve() != repo_root:
        shutil.copy2(path, repo_root / path.name)
    return path


def ledger_row(name, report, working_set_bound, phases):
    """An ``algorithm`` row: one :class:`~repro.workloads.ScenarioReport`'s ledger.

    Equation 1 summed and per request, throughput, routing over Theorem 1's
    ``WS(σ)`` (``None`` without a bound), height and churn; ``phases`` (a
    ``phase_seconds()`` mapping, empty for uninstrumented algorithms) adds
    one ``<phase>_s`` column each plus the share of wall time they account for.
    """
    costs = report.costs
    row = {
        "kind": "algorithm",
        "name": name,
        "requests": costs.requests,
        "total_routing": costs.total_routing,
        "total_adjustment": costs.total_adjustment,
        "total_cost": costs.total_cost,
        "average_routing": costs.average_routing,
        "average_adjustment": costs.average_adjustment,
        "average_cost": costs.average_cost,
        "requests_per_s": report.requests_per_second,
        "ws_bound_ratio": costs.total_routing / working_set_bound if working_set_bound else None,
        "final_height": report.final_height,
        "joins": report.joins,
        "leaves": report.leaves,
        "wall_seconds": report.elapsed_seconds,
    }
    if phases:
        row.update((f"{phase}_s", seconds) for phase, seconds in phases.items())
        row["phase_share"] = sum(phases.values()) / report.elapsed_seconds
    return row


TRAFFIC = ("rounds", "messages", "total_bits", "max_message_bits",
           "congestion_violations", "dropped_messages")


def protocol_row(name, n, budget_bits, traffic, joins=0, leaves=0, wall_seconds=0.0):
    """A ``protocol`` row: one CONGEST run's traffic against its bit budget.

    ``traffic`` carries the :data:`TRAFFIC` counters under their one set of
    names: a run's ``MetricsCollector`` (``result.metrics``), a report, or
    a counter dict (``MetricsCollector.summary()`` / ``.window()``);
    ``joins`` / ``leaves`` count the churn replayed under it.
    """
    counters = traffic if isinstance(traffic, dict) else vars(traffic)
    return {"kind": "protocol", "name": name, "n": n,
            **{key: counters[key] for key in TRAFFIC}, "budget_bits": budget_bits,
            "joins": joins, "leaves": leaves, "wall_seconds": wall_seconds}


def shielded_churn(keys, length, seed, protected, next_key=None, joins=True):
    """A churn schedule over ``keys`` whose leave events avoid ``protected``.

    ``next_key`` is the high-water mark for fresh join keys (pass it when
    chaining waves so a second wave cannot re-issue a departed joiner's
    key); ``joins=False`` drops join events entirely (a broadcast phase
    measures departure resilience only).
    """
    from repro.workloads import JoinEvent, LeaveEvent, Scenario, churn_scenario

    scenario = churn_scenario(length=length, seed=seed, churn_rate=0.5,
                              initial_keys=keys, next_key=next_key)
    population = set(keys)
    events = []
    for event in scenario.events:
        if isinstance(event, JoinEvent):
            if not joins:
                continue
        elif isinstance(event, LeaveEvent):
            if event.key in protected:
                continue
            # Without joins, a leave of a key that only joined in the
            # unfiltered schedule would target a node that never existed.
            if not joins and event.key not in population:
                continue
        events.append(event)
    return Scenario(name=scenario.name, initial_keys=scenario.initial_keys,
                    events=events, params=scenario.params)


def routing_under_churn(n, churn_length, route_pairs, seed):
    """A router generation racing a replayed churn schedule on a fresh engine.

    ``route_pairs`` random (source, destination) pairs over keys ``1..n``
    are routed on a lenient simulator while a :func:`shielded_churn`
    schedule (its leaves spare every endpoint) joins and removes members
    under the messages in flight; joiners get routers.  Returns the
    ``routing`` :func:`protocol_row`, the number of routes completed, and
    the simulator and skip-graph mirror, for a next generation on the same
    engine.
    """
    from repro.distributed import install_routing, make_router, replay_scenario, skip_graph_network
    from repro.simulation import Simulator, SimulatorConfig
    from repro.simulation.message import congest_budget_bits
    from repro.simulation.rng import make_rng
    from repro.skipgraph import build_balanced_skip_graph

    keys = list(range(1, n + 1))
    graph = build_balanced_skip_graph(keys)
    simulator = Simulator(
        skip_graph_network(graph), SimulatorConfig(seed=seed, strict=False, max_rounds=50_000)
    )
    rng = make_rng(seed)
    pairs = [tuple(rng.sample(keys, 2)) for _ in range(route_pairs)]
    requests = {}
    for source, destination in pairs:
        requests.setdefault(source, []).append(destination)
    scenario = shielded_churn(keys, churn_length, seed, {key for pair in pairs for key in pair})

    started = time.perf_counter()
    install_routing(simulator, graph, requests)
    replay = replay_scenario(
        simulator, scenario, process_factory=lambda key: make_router(simulator.network, key), graph=graph
    )
    simulator.run()
    wall = time.perf_counter() - started
    completed = sum(process.completed for process in simulator.processes.values())
    row = protocol_row(
        "routing", n, congest_budget_bits(n), simulator.metrics.summary(),
        joins=replay.joins, leaves=replay.leaves, wall_seconds=wall,
    )
    return row, completed, simulator, graph


@pytest.fixture
def run_once(benchmark):
    """Run ``func`` exactly once under the benchmark timer and return its result."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
