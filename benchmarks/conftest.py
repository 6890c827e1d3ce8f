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
"""

import os
import shutil
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


@pytest.fixture
def run_once(benchmark):
    """Run ``func`` exactly once under the benchmark timer and return its result."""

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
