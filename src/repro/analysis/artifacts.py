"""Benchmark artifacts: structured ``BENCH_*.json`` files and comparison reports.

The benchmark suite (``benchmarks/``) regenerates the paper's comparisons at
scale; this module gives those runs a durable, machine-readable output so CI
can archive them and humans can diff them across commits:

* :class:`AlgorithmResult` — one algorithm's aggregate outcome on one
  benchmark: request count, routing / adjustment / total cost (Equation 1),
  wall time, throughput and the ratio of its routing cost to the working
  set bound ``WS(σ)`` of Theorem 1 (the amortized lower bound every
  model-conforming algorithm is subject to).
* :class:`ProtocolResult` — one message-passing protocol's outcome on the
  CONGEST simulator (Section III): rounds, messages, bits, the maximum
  message size against the ``c * log2 n`` budget, congestion violations
  (must be zero for conformance) and churn-induced drops, which are
  accounted separately.  Emitted by ``bench_e11_congest`` /
  ``bench_e06_amf_rounds``.
* :class:`BenchmarkArtifact` — a benchmark run: configuration, total wall
  time, the sequence's working set bound, per-algorithm and per-protocol
  results and check outcomes.  Serialised to ``BENCH_<name>.json`` by
  :func:`write_artifact` and read back by :func:`load_artifact` /
  :func:`load_artifacts`.
* :class:`PlanSizeStats` — the distribution of local-operation plan sizes
  (``RequestResult.ops``) DSG emitted for one workload: percentiles of how
  many ops a request's restructuring took.  This is the empirical face of
  the paper's locality claim — under steady skewed traffic most requests
  emit tiny (often empty) plans.  Emitted by ``bench_e09_comparison`` and
  ``bench_e15_100k``.
* :func:`render_comparison` — a cross-algorithm markdown report over one or
  more artifacts (what ``dsg-experiments compare`` prints).

The JSON schema is flat and versioned (``schema_version``); artifacts are
self-describing so the ``compare`` CLI needs nothing but the files.  Every
committed ``BENCH_*.json`` is at the current version and the reader accepts
no other: an artifact from another version is regenerated by re-running
its benchmark, not converted on load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

__all__ = [
    "AlgorithmResult",
    "BenchmarkArtifact",
    "FailureResult",
    "PipelineResult",
    "PlanSizeStats",
    "ProtocolResult",
    "load_artifact",
    "load_artifacts",
    "render_comparison",
    "write_artifact",
]

SCHEMA_VERSION = 7


@dataclass
class AlgorithmResult:
    """Aggregate outcome of one algorithm on one benchmark workload.

    Parameters
    ----------
    name:
        Algorithm label (``dsg``, ``splaynet``, ``static-random``, ...).
    requests:
        Requests served.
    total_routing, total_adjustment, total_cost:
        Summed Equation 1 components (``total_cost`` includes the ``+1``
        per request).
    wall_seconds:
        Wall-clock serving time for this algorithm alone.
    ws_bound_ratio:
        ``total_routing / WS(σ)`` against Theorem 1's bound for the served
        sequence, when the artifact carries one (``None`` otherwise).
    final_height:
        Structure height after the run (``None`` where meaningless).
    joins, leaves:
        Churn events absorbed during the run.
    phases:
        Optional wall-clock breakdown of ``wall_seconds`` by serving phase
        (``route`` / ``plan`` / ``apply`` / ``repair`` for DSG — see
        :attr:`repro.core.dsg.DynamicSkipGraph.phase_seconds`).  Empty for
        algorithms that do not report one.
    """

    name: str
    requests: int
    total_routing: int
    total_adjustment: int
    total_cost: int
    wall_seconds: float
    ws_bound_ratio: Optional[float] = None
    final_height: Optional[int] = None
    joins: int = 0
    leaves: int = 0
    phases: Dict[str, float] = field(default_factory=dict)

    @property
    def average_routing(self) -> float:
        return self.total_routing / self.requests if self.requests else 0.0

    @property
    def average_adjustment(self) -> float:
        return self.total_adjustment / self.requests if self.requests else 0.0

    @property
    def average_cost(self) -> float:
        return self.total_cost / self.requests if self.requests else 0.0

    @property
    def requests_per_second(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.requests / self.wall_seconds


@dataclass
class ProtocolResult:
    """One message-passing protocol's outcome on the CONGEST simulator.

    Parameters
    ----------
    name:
        Protocol label (``routing``, ``broadcast``, ``sum``, ``amf``).
    n:
        Population the protocol ran over (at install time; churn may move
        it during the run).
    rounds, messages, total_bits:
        Synchronous rounds executed and traffic delivered.
    max_message_bits, budget_bits:
        Largest message observed versus the ``c * log2 n`` CONGEST budget
        it must stay within.
    congestion_violations:
        Per-link per-round violations — zero for a conforming protocol.
    dropped_messages:
        Messages lost to churn (links or receivers that disappeared);
        accounted separately from violations.
    joins, leaves:
        Churn events replayed while the protocol ran.
    wall_seconds:
        Wall-clock simulation time for this protocol alone.
    """

    name: str
    n: int
    rounds: int
    messages: int
    total_bits: int
    max_message_bits: int
    budget_bits: int
    congestion_violations: int
    dropped_messages: int = 0
    joins: int = 0
    leaves: int = 0
    wall_seconds: float = 0.0

    @property
    def within_budget(self) -> bool:
        return self.max_message_bits <= self.budget_bits

    @property
    def conformant(self) -> bool:
        """CONGEST conformance: within the bit budget, zero violations."""
        return self.within_budget and self.congestion_violations == 0


@dataclass
class PlanSizeStats:
    """Distribution of restructuring-plan sizes over one workload.

    Computed from the O(1)-per-request histogram DSG maintains
    (:meth:`~repro.core.dsg.DynamicSkipGraph.plan_size_histogram`): one row
    summarises how many local ops (:mod:`repro.core.local_ops`) each
    request's plan carried.  ``empty_fraction`` is the share of requests
    that restructured nothing beyond the already-adjacent pair — the
    steady-state regime the working set property predicts.
    """

    workload: str
    requests: int
    mean_ops: float
    p50_ops: int
    p90_ops: int
    p99_ops: int
    max_ops: int
    empty_fraction: float

    @classmethod
    def from_histogram(cls, workload: str, histogram: Mapping[int, int]) -> "PlanSizeStats":
        """Summarise a ``plan size -> request count`` histogram."""
        total = sum(histogram.values())
        if not total:
            return cls(
                workload=workload, requests=0, mean_ops=0.0,
                p50_ops=0, p90_ops=0, p99_ops=0, max_ops=0, empty_fraction=0.0,
            )
        sizes = sorted(histogram)
        weighted = sum(size * count for size, count in histogram.items())

        def percentile(fraction: float) -> int:
            threshold = fraction * total
            cumulative = 0
            for size in sizes:
                cumulative += histogram[size]
                if cumulative >= threshold:
                    return size
            return sizes[-1]

        return cls(
            workload=workload,
            requests=total,
            mean_ops=weighted / total,
            p50_ops=percentile(0.50),
            p90_ops=percentile(0.90),
            p99_ops=percentile(0.99),
            max_ops=sizes[-1],
            empty_fraction=histogram.get(0, 0) / total,
        )


@dataclass
class FailureResult:
    """One crash-stop failure arena's outcome (``bench_e16_failures``).

    Parameters
    ----------
    name:
        Failure shape label (``independent``, ``racks``, ``flash``).
    n, k:
        Initial population and the redundancy the network/tables ran with.
    waves:
        Crash-burst/dark-window/repair cycles executed.
    crashes, requests:
        Nodes killed and requests injected across all waves.
    delivered, failed:
        Requests that reached their destination on the first pass versus
        requests counted as ``failed_requests`` (stale destinations
        stranding at a hole's edge, or retries exhausted).
        ``delivered + failed + retried_delivered == requests`` for a
        conserving run (the last term absorbs mid-wave in-flight casualties
        that a later retry delivered).
    route_arounds:
        Hops re-forwarded through a k-redundant table because the primary
        neighbour was dark.
    repair_links, tables_refreshed:
        Links added closing lists over the holes, and surviving routers
        whose neighbour tables were rebuilt — the repair cost.
    rounds, messages:
        Synchronous rounds and messages over the whole arena.
    congestion_violations, dropped_messages:
        ``congestion_violations`` must be zero always.
        ``dropped_messages`` must be zero for quiescent-boundary shapes;
        mid-wave shapes legitimately count in-flight messages absorbed by
        a crash here (every one is ledger-accounted and retried).
    integrity_clean:
        Every post-repair integrity sweep came back clean.
    wall_seconds:
        Wall-clock simulation time for this arena alone.
    recoveries, rejoin_links:
        Crashed keys that rejoined as fresh identities, and the links
        added splicing them back into every level list.
    mid_wave_crashes:
        Crashes fired while requests were in flight.
    retried, retried_delivered:
        In-flight casualties re-injected after the repair wave, and how
        many of those eventually reached their destination.
    """

    name: str
    n: int
    k: int
    waves: int
    crashes: int
    requests: int
    delivered: int
    failed: int
    route_arounds: int
    repair_links: int
    tables_refreshed: int
    rounds: int
    messages: int
    congestion_violations: int
    dropped_messages: int = 0
    integrity_clean: bool = True
    wall_seconds: float = 0.0
    recoveries: int = 0
    mid_wave_crashes: int = 0
    retried: int = 0
    retried_delivered: int = 0
    rejoin_links: int = 0

    @property
    def conserved(self) -> bool:
        return self.delivered + self.failed + self.retried_delivered == self.requests


@dataclass
class PipelineResult:
    """One pipelined-serving arena outcome (``bench_e17_pipeline``).

    Parameters
    ----------
    name:
        Row label (``sequential``, ``window-1``, ``window-8``, ...).
    n:
        Initial population of the arena.
    window:
        Configured in-flight depth (1 for the sequential reference).
    requests:
        Requests served (K of rounds-to-serve-K).
    rounds:
        Synchronous rounds to serve the whole schedule.
    sequential_rounds:
        The sequential driver's rounds on the same schedule — the
        denominator of :attr:`speedup`.
    max_in_flight:
        Deepest overlap the conflict detector actually admitted.
    conflict_stalls:
        Head-of-line admissions refused because of a conflict-set overlap
        (each stalled event counted once).
    messages, congestion_violations, dropped_messages:
        Traffic and the two must-be-zero safety counters.
    total_cost:
        Total Equation-1 cost charged by the pipelined execution.
    matches_sequential:
        Final topology AND total cost equal to the sequential reference.
    wall_seconds:
        Wall-clock simulation time for this row alone.
    """

    name: str
    n: int
    window: int
    requests: int
    rounds: int
    sequential_rounds: int
    max_in_flight: int
    conflict_stalls: int
    messages: int
    congestion_violations: int
    dropped_messages: int = 0
    total_cost: int = 0
    matches_sequential: bool = True
    wall_seconds: float = 0.0

    @property
    def speedup(self) -> float:
        """Sequential rounds over this row's rounds (higher is better)."""
        return self.sequential_rounds / self.rounds if self.rounds else 0.0

    @property
    def rounds_per_request(self) -> float:
        """Rounds per served request — the rounds-to-serve-K headline."""
        return self.rounds / self.requests if self.requests else 0.0


@dataclass
class BenchmarkArtifact:
    """One benchmark run: config, timings, per-algorithm/protocol results, checks."""

    benchmark: str
    config: Dict[str, object] = field(default_factory=dict)
    wall_seconds: float = 0.0
    working_set_bound: Optional[float] = None
    algorithms: List[AlgorithmResult] = field(default_factory=list)
    protocols: List[ProtocolResult] = field(default_factory=list)
    plan_sizes: List[PlanSizeStats] = field(default_factory=list)
    failures: List[FailureResult] = field(default_factory=list)
    pipelines: List[PipelineResult] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def algorithm(self, name: str) -> AlgorithmResult:
        """Look up one algorithm's result by label."""
        for result in self.algorithms:
            if result.name == name:
                return result
        raise KeyError(f"no algorithm {name!r} in artifact {self.benchmark!r}")

    def protocol(self, name: str) -> ProtocolResult:
        """Look up one protocol's result by label (first match)."""
        for result in self.protocols:
            if result.name == name:
                return result
        raise KeyError(f"no protocol {name!r} in artifact {self.benchmark!r}")

    def failure(self, name: str) -> FailureResult:
        """Look up one failure arena's result by label."""
        for result in self.failures:
            if result.name == name:
                return result
        raise KeyError(f"no failure arena {name!r} in artifact {self.benchmark!r}")

    def pipeline(self, name: str) -> PipelineResult:
        """Look up one pipelined-serving row by label."""
        for result in self.pipelines:
            if result.name == name:
                return result
        raise KeyError(f"no pipeline row {name!r} in artifact {self.benchmark!r}")

    @property
    def all_checks_passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True


def _artifact_filename(benchmark: str) -> str:
    slug = "".join(ch if (ch.isalnum() or ch in "-_") else "_" for ch in benchmark)
    return f"BENCH_{slug}.json"


def write_artifact(artifact: BenchmarkArtifact, directory: Union[str, Path]) -> Path:
    """Serialise ``artifact`` to ``<directory>/BENCH_<benchmark>.json``.

    The directory is created if needed; an existing artifact of the same
    benchmark is overwritten (one file per benchmark, newest run wins).
    Returns the written path.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _artifact_filename(artifact.benchmark)
    path.write_text(json.dumps(asdict(artifact), indent=2, sort_keys=True, default=str) + "\n")
    return path


def load_artifact(path: Union[str, Path]) -> BenchmarkArtifact:
    """Read one ``BENCH_*.json`` file back into a :class:`BenchmarkArtifact`."""
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"artifact {path} has schema version {version}; this reader reads version "
            f"{SCHEMA_VERSION} only — re-run benchmark {data.get('benchmark')!r} to regenerate it"
        )
    return BenchmarkArtifact(
        benchmark=data["benchmark"],
        config=data["config"],
        wall_seconds=data["wall_seconds"],
        working_set_bound=data["working_set_bound"],
        algorithms=[AlgorithmResult(**entry) for entry in data["algorithms"]],
        protocols=[ProtocolResult(**entry) for entry in data["protocols"]],
        plan_sizes=[PlanSizeStats(**entry) for entry in data["plan_sizes"]],
        failures=[FailureResult(**entry) for entry in data["failures"]],
        pipelines=[PipelineResult(**entry) for entry in data["pipelines"]],
        checks=data["checks"],
    )


def load_artifacts(directory: Union[str, Path]) -> List[BenchmarkArtifact]:
    """Load every ``BENCH_*.json`` under ``directory``, sorted by benchmark."""
    directory = Path(directory)
    artifacts = [load_artifact(path) for path in sorted(directory.glob("BENCH_*.json"))]
    return sorted(artifacts, key=lambda artifact: artifact.benchmark)


def _format(value: Optional[float], digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def render_comparison(artifacts: Sequence[BenchmarkArtifact]) -> str:
    """Render a cross-algorithm markdown report over ``artifacts``.

    One section per benchmark: the configuration, a table with one row per
    algorithm (averages per request, throughput, WS-bound ratio) and the
    check outcomes.  Algorithms are ordered by average total cost, so the
    winner reads first.
    """
    lines: List[str] = ["# Benchmark comparison", ""]
    if not artifacts:
        lines.append("_No BENCH_*.json artifacts found._")
        return "\n".join(lines) + "\n"
    for artifact in artifacts:
        lines.append(f"## {artifact.benchmark}")
        lines.append("")
        if artifact.config:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(artifact.config.items()))
            lines.append(f"- config: {rendered}")
        lines.append(f"- wall time: {artifact.wall_seconds:.2f}s")
        if artifact.working_set_bound is not None:
            lines.append(f"- working set bound WS(σ): {artifact.working_set_bound:.1f} (Theorem 1)")
        lines.append("")
        if artifact.algorithms:
            lines.append(
                "| algorithm | requests | avg routing | avg adjustment | avg cost (Eq. 1) "
                "| req/s | routing / WS | height | churn |"
            )
            lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---:|")
            for result in sorted(artifact.algorithms, key=lambda r: r.average_cost):
                churn = f"+{result.joins}/-{result.leaves}" if (result.joins or result.leaves) else "-"
                lines.append(
                    f"| {result.name} | {result.requests} | {_format(result.average_routing)} "
                    f"| {_format(result.average_adjustment)} | {_format(result.average_cost)} "
                    f"| {_format(result.requests_per_second, 0)} | {_format(result.ws_bound_ratio)} "
                    f"| {_format(result.final_height)} | {churn} |"
                )
            lines.append("")
            phased = [result for result in artifact.algorithms if result.phases]
            if phased:
                phase_names: List[str] = []
                for result in phased:
                    for name in result.phases:
                        if name not in phase_names:
                            phase_names.append(name)
                header = " | ".join(f"{name} s" for name in phase_names)
                lines.append(f"| phase breakdown | {header} | accounted |")
                lines.append("|---|" + "---:|" * (len(phase_names) + 1))
                for result in phased:
                    cells = " | ".join(
                        _format(result.phases.get(name, 0.0), 1) for name in phase_names
                    )
                    accounted = sum(result.phases.values())
                    share = accounted / result.wall_seconds if result.wall_seconds else 0.0
                    lines.append(
                        f"| {result.name} | {cells} | {accounted:.1f} ({share * 100:.0f}%) |"
                    )
                lines.append("")
        if artifact.protocols:
            lines.append(
                "| protocol | n | rounds | messages | max bits | budget bits "
                "| violations | drops | churn |"
            )
            lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---:|")
            for result in artifact.protocols:
                churn = f"+{result.joins}/-{result.leaves}" if (result.joins or result.leaves) else "-"
                lines.append(
                    f"| {result.name} | {result.n} | {result.rounds} | {result.messages} "
                    f"| {result.max_message_bits} | {result.budget_bits} "
                    f"| {result.congestion_violations} | {result.dropped_messages} | {churn} |"
                )
            lines.append("")
        if artifact.failures:
            lines.append(
                "| failures | n | k | waves | crashes | mid-wave | recoveries | requests "
                "| delivered | failed | retried (ok) | route-arounds | repair links "
                "| rejoin links | integrity |"
            )
            lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
            for result in artifact.failures:
                lines.append(
                    f"| {result.name} | {result.n} | {result.k} | {result.waves} "
                    f"| {result.crashes} | {result.mid_wave_crashes} | {result.recoveries} "
                    f"| {result.requests} | {result.delivered} | {result.failed} "
                    f"| {result.retried} ({result.retried_delivered}) "
                    f"| {result.route_arounds} | {result.repair_links} "
                    f"| {result.rejoin_links} "
                    f"| {'clean' if result.integrity_clean else 'VIOLATED'} |"
                )
            lines.append("")
        if artifact.pipelines:
            lines.append(
                "| pipeline | n | window | requests | rounds | rounds/req | speedup "
                "| max in-flight | stalls | violations | drops | equivalent |"
            )
            lines.append("|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|---:|")
            for result in artifact.pipelines:
                lines.append(
                    f"| {result.name} | {result.n} | {result.window} | {result.requests} "
                    f"| {result.rounds} | {_format(result.rounds_per_request, 1)} "
                    f"| {_format(result.speedup, 2)}x | {result.max_in_flight} "
                    f"| {result.conflict_stalls} | {result.congestion_violations} "
                    f"| {result.dropped_messages} "
                    f"| {'yes' if result.matches_sequential else 'NO'} |"
                )
            lines.append("")
        if artifact.plan_sizes:
            lines.append(
                "| plan sizes (workload) | requests | mean ops | p50 | p90 | p99 | max "
                "| empty plans |"
            )
            lines.append("|---|---:|---:|---:|---:|---:|---:|---:|")
            for stats in artifact.plan_sizes:
                lines.append(
                    f"| {stats.workload} | {stats.requests} | {_format(stats.mean_ops)} "
                    f"| {stats.p50_ops} | {stats.p90_ops} | {stats.p99_ops} | {stats.max_ops} "
                    f"| {stats.empty_fraction * 100:.1f}% |"
                )
            lines.append("")
        if artifact.checks:
            lines.append("checks:")
            for name, passed in sorted(artifact.checks.items()):
                lines.append(f"- [{'PASS' if passed else 'FAIL'}] {name}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
