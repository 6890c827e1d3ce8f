"""Benchmark artifacts: structured ``BENCH_*.json`` files and comparison reports.

The benchmark suite (``benchmarks/``) regenerates the paper's comparisons at
scale; this module gives those runs a durable, machine-readable output so CI
can archive them and humans can diff them across commits.  Every artifact
has one schema::

    {benchmark, schema_version, config, checks, wall_seconds,
     rows: [{kind, name, **fields}, ...]}

* ``rows`` are plain dicts a benchmark builds from the reports it already
  holds: an ``algorithm`` row is one run's Equation-1 ledger (routing,
  adjustment, total, and routing over the working set bound ``WS(σ)`` of
  Theorem 1), a ``protocol`` row one CONGEST run's traffic against the
  ``c * log2 n`` bit budget, and so on.  A ratio a reader wants (averages,
  req/s, speedup) is a field the benchmark writes, not arithmetic here.
* ``checks`` are the named verdicts the benchmark derived from its reports.
* :func:`plan_size_fields` summarises a plan-size histogram into the
  percentile fields of a ``plan-size`` row.
* :func:`render_comparison` draws one markdown table per row ``kind`` —
  columns in first-seen key order, rows in the benchmark's order — which
  is what ``dsg-experiments compare`` prints.

Artifacts are self-describing, so ``compare`` needs nothing but the files.
Every committed ``BENCH_*.json`` is at the current version and the reader
accepts no other: an artifact from another version is regenerated by
re-running its benchmark, not converted on load.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Union

__all__ = [
    "BenchmarkArtifact",
    "load_artifact",
    "load_artifacts",
    "plan_size_fields",
    "render_comparison",
    "write_artifact",
]

SCHEMA_VERSION = 8


@dataclass
class BenchmarkArtifact:
    """One benchmark run: config, named checks, total wall time and result rows.

    Each row is a dict with a ``kind`` (its table) and a ``name`` (its
    label) plus whatever fields the benchmark recorded for it; values must
    be JSON (numbers, strings, booleans, ``None``, lists and dicts of them).
    """

    benchmark: str
    schema_version: int = SCHEMA_VERSION
    config: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)
    wall_seconds: float = 0.0
    rows: List[Dict[str, object]] = field(default_factory=list)

    @property
    def all_checks_passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True


def plan_size_fields(histogram: Mapping[int, int]) -> Dict[str, object]:
    """Summarise a ``plan size -> request count`` histogram.

    The histogram is the O(1)-per-request one DSG maintains
    (:meth:`~repro.core.dsg.DynamicSkipGraph.plan_size_histogram`): how many
    local ops (:mod:`repro.core.local_ops`) each request's plan carried.
    ``empty_fraction`` is the share of requests that restructured nothing
    beyond the already-adjacent pair — the steady-state regime the working
    set property predicts.
    """
    total = sum(histogram.values())
    if not total:
        return dict(requests=0, mean_ops=0.0, p50_ops=0, p90_ops=0, p99_ops=0,
                    max_ops=0, empty_fraction=0.0)
    sizes = sorted(histogram)

    def percentile(fraction: float) -> int:
        threshold = fraction * total
        cumulative = 0
        for size in sizes:
            cumulative += histogram[size]
            if cumulative >= threshold:
                return size
        return sizes[-1]

    return dict(
        requests=total,
        mean_ops=sum(size * count for size, count in histogram.items()) / total,
        p50_ops=percentile(0.50),
        p90_ops=percentile(0.90),
        p99_ops=percentile(0.99),
        max_ops=sizes[-1],
        empty_fraction=histogram.get(0, 0) / total,
    )


def _artifact_filename(benchmark: str) -> str:
    slug = "".join(ch if (ch.isalnum() or ch in "-_") else "_" for ch in benchmark)
    return f"BENCH_{slug}.json"


def write_artifact(artifact: BenchmarkArtifact, directory: Union[str, Path]) -> Path:
    """Serialise ``artifact`` to ``<directory>/BENCH_<benchmark>.json``.

    The directory is created if needed; an existing artifact of the same
    benchmark is overwritten (one file per benchmark, newest run wins).
    Keys keep their order, so a reloaded row renders its columns as the
    benchmark wrote them.  A value that is not JSON raises ``TypeError``
    before anything is written.  Returns the written path.
    """
    text = json.dumps(asdict(artifact), indent=2) + "\n"
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / _artifact_filename(artifact.benchmark)
    path.write_text(text)
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
    return BenchmarkArtifact(**data)


def load_artifacts(directory: Union[str, Path]) -> List[BenchmarkArtifact]:
    """Load every ``BENCH_*.json`` under ``directory``, sorted by benchmark."""
    directory = Path(directory)
    artifacts = [load_artifact(path) for path in sorted(directory.glob("BENCH_*.json"))]
    return sorted(artifacts, key=lambda artifact: artifact.benchmark)


def _format(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_comparison(artifacts: Sequence[BenchmarkArtifact]) -> str:
    """Render a markdown report over ``artifacts``.

    One section per benchmark: the configuration, the wall time, one table
    per row ``kind`` (in first-seen order) and the check outcomes.  A
    table's columns are its rows' keys in first-seen order; a row without
    a column shows ``-`` there.
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
        lines.append("")
        tables: Dict[str, List[Dict[str, object]]] = {}
        for row in artifact.rows:
            tables.setdefault(row["kind"], []).append(row)
        for kind, rows in tables.items():
            columns = list(dict.fromkeys(
                key for row in rows for key in row if key not in ("kind", "name")
            ))
            lines.append("| " + " | ".join([kind, *columns]) + " |")
            lines.append("|---|" + "---:|" * len(columns))
            for row in rows:
                cells = [_format(row.get(column)) for column in columns]
                lines.append("| " + " | ".join([str(row["name"]), *cells]) + " |")
            lines.append("")
        if artifact.checks:
            lines.append("checks:")
            for name, passed in sorted(artifact.checks.items()):
                lines.append(f"- [{'PASS' if passed else 'FAIL'}] {name}")
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"
