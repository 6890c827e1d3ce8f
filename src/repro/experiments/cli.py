"""Command-line entry point: ``dsg-experiments``.

Examples
--------
Run one experiment::

    dsg-experiments run E5

Run everything with smaller, faster parameters and write CSVs::

    dsg-experiments run all --quick --csv-dir results/

Archive structured run artifacts (CI uploads these)::

    dsg-experiments run E1 --quick --artifact-dir bench-artifacts/

Render the cross-algorithm markdown report from ``BENCH_*.json`` artifacts
(written by ``--artifact-dir`` runs and the benchmark suite)::

    dsg-experiments compare bench-artifacts/ --output comparison.md

List what is available::

    dsg-experiments list
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.analysis.artifacts import (
    BenchmarkArtifact,
    load_artifacts,
    render_comparison,
    write_artifact,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment

__all__ = ["main", "build_parser"]

#: Reduced parameters used by ``--quick`` (keyed by experiment id).
#:
#: Semantics: when ``dsg-experiments run <id> --quick`` is given, the entry
#: for ``<id>`` is passed as keyword arguments to the experiment's ``run()``
#: in place of its (paper-sized) defaults — the experiment code itself has
#: no notion of a quick mode.  The values shrink the *sizes* (node counts,
#: sequence lengths, trial counts), never the logic: every check an
#: experiment performs still runs, so a quick pass is a faithful smoke test
#: of the full pipeline (CI runs ``run E1 --quick``), just on instances
#: small enough to finish in seconds.  ``--seed`` composes with these: an
#: explicit seed is merged into the same parameter dict.  Experiments
#: without an entry (e.g. E4, which replays the fixed Fig. 4 example) run
#: identically in both modes.
QUICK_PARAMS = {
    "E1": {"sizes": (16, 64)},
    "E2": {"n": 32, "length": 80},
    "E3": {"n": 32, "length": 80},
    "E4": {},
    "E5": {"sizes": (64, 256), "a_values": (3, 4), "trials": 3},
    "E6": {"sizes": (32, 64, 128), "trials": 2},
    "E7": {"n": 32, "length": 80},
    "E8": {"n": 32, "length": 100},
    "E9": {"n": 32, "length": 100, "workloads": ("repeated-pair", "hot-pairs", "temporal", "uniform", "churn")},
    "E10": {"n": 32, "length": 80, "a_values": (2, 4)},
    "E11": {"sizes": (32, 64)},
    "E12": {"sizes": (64, 256), "n": 32, "length": 80},
    "E13": {
        "n": 128,
        "length": 400,
        "zipf_n": 48,
        "zipf_length": 150,
        "consistency_n": 48,
        "consistency_length": 120,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsg-experiments",
        description="Reproduction experiments for 'Locally Self-Adjusting Skip Graphs' (ICDCS 2017).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(command="list")

    run_parser = subparsers.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument("experiment", help="experiment id (e.g. E5) or 'all'")
    run_parser.add_argument("--quick", action="store_true", help="use reduced sizes for a fast pass")
    run_parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    run_parser.add_argument("--csv-dir", type=Path, default=None, help="write every table as CSV into this directory")
    run_parser.add_argument(
        "--artifact-dir",
        type=Path,
        default=None,
        help="write a structured BENCH_<id>.json artifact per experiment into this directory",
    )

    compare_parser = subparsers.add_parser(
        "compare", help="render a markdown comparison report from BENCH_*.json artifacts"
    )
    compare_parser.add_argument("directory", type=Path, help="directory holding BENCH_*.json files")
    compare_parser.add_argument(
        "--output", type=Path, default=None, help="also write the markdown report to this file"
    )
    return parser


def _run_one(
    experiment_id: str,
    quick: bool,
    seed: Optional[int],
    csv_dir: Optional[Path],
    artifact_dir: Optional[Path] = None,
) -> ExperimentResult:
    params = dict(QUICK_PARAMS.get(experiment_id, {})) if quick else {}
    if seed is not None:
        params["seed"] = seed
    started = time.time()
    result = run_experiment(experiment_id, **params)
    elapsed = time.time() - started
    print(result.render())
    print(f"[{experiment_id}] finished in {elapsed:.1f}s, checks passed: {result.all_passed}")
    print()
    if csv_dir is not None:
        for index, table in enumerate(result.tables):
            path = csv_dir / f"{experiment_id.lower()}_{index}.csv"
            table.write_csv(path)
    if artifact_dir is not None:
        artifact = BenchmarkArtifact(
            benchmark=experiment_id,
            config={**result.parameters, "quick": quick},
            wall_seconds=elapsed,
            checks=dict(result.checks),
        )
        write_artifact(artifact, artifact_dir)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS, key=lambda e: int(e[1:])):
            spec = EXPERIMENTS[experiment_id]
            print(f"{experiment_id:>4}  {spec.title}  [{spec.paper_artifact}]")
        return 0

    if args.command == "compare":
        if not args.directory.is_dir():
            print(f"no such artifact directory: {args.directory}", file=sys.stderr)
            return 1
        try:
            artifacts = load_artifacts(args.directory)
        except ValueError as error:
            print(error, file=sys.stderr)
            return 1
        report = render_comparison(artifacts)
        print(report)
        if args.output is not None:
            args.output.parent.mkdir(parents=True, exist_ok=True)
            args.output.write_text(report)
        return 0

    targets = sorted(EXPERIMENTS, key=lambda e: int(e[1:])) if args.experiment.lower() == "all" else [args.experiment.upper()]
    failures: List[str] = []
    for experiment_id in targets:
        result = _run_one(
            experiment_id,
            quick=args.quick,
            seed=args.seed,
            csv_dir=args.csv_dir,
            artifact_dir=args.artifact_dir,
        )
        if not result.all_passed:
            failures.append(experiment_id)
    if failures:
        print(f"experiments with failed checks: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
