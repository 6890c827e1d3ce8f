"""Competitive ratios, statistics and result rendering.

The experiments (E1-E12) produce structured results; this subpackage turns
them into the numbers the paper's claims are stated in:

* the working set bound ``WS(σ)`` and the competitive ratios of a run's
  :class:`~repro.core.costs.CostLedger` against it (Theorems 1, 4, 5),
* summary statistics (means, percentiles, log-fit slopes for the
  ``O(log n)`` scaling claims),
* plain-text tables and CSV export used by the benchmark harness and the
  CLI,
* benchmark artifacts: structured ``BENCH_*.json`` files and the
  cross-algorithm markdown comparison the ``dsg-experiments compare``
  subcommand renders from them (:mod:`repro.analysis.artifacts`).
"""

from repro.analysis.competitive import CompetitiveReport, competitive_report
from repro.analysis.statistics import describe, log2_fit_slope, percentile
from repro.analysis.tables import Table, render_table, to_csv
from repro.analysis.artifacts import (
    AlgorithmResult,
    BenchmarkArtifact,
    FailureResult,
    PlanSizeStats,
    load_artifact,
    load_artifacts,
    render_comparison,
    write_artifact,
)

__all__ = [
    "AlgorithmResult",
    "BenchmarkArtifact",
    "CompetitiveReport",
    "FailureResult",
    "PlanSizeStats",
    "Table",
    "competitive_report",
    "describe",
    "load_artifact",
    "load_artifacts",
    "log2_fit_slope",
    "percentile",
    "render_comparison",
    "render_table",
    "to_csv",
    "write_artifact",
]
