"""Measurement spine: run the five workloads, print every metric, check outputs.

Two ways in, one measurement underneath.

**One workload, one JSON line** (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/spine/run.py --workload central-churn --seed 7 --seconds 10 --trace 0

serves the workload in this process and prints, as the last line of standard
output, ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``
with every end-to-end metric (``--trace 0``, the untraced pass) or every
per-layer metric (``--trace 1``: an untraced pass, then a traced pass over
the same inputs, so the difference between them is the tracing overhead).

**All workloads, a table and a result file** (no ``--workload``, or several)::

    python3 benchmarks/spine/run.py [--workload NAME ...] [--seed S] [--repeat N]
                                    [--no-trace] [--quick] [--out FILE]
    python3 benchmarks/spine/run.py --compare A.json B.json

runs each workload in its own fresh interpreter, one at a time, prints every
metric by name with its unit, writes one JSON result (and the span trees of
the slowest requests next to it), and exits non-zero if an output check
fails or, at the default seed and shapes, an exact metric differs from
``baseline/default_seed.json``.  ``--compare`` judges file B against file A
with the bounds of the catalogue and exits non-zero on a regression.

``--seconds`` picks the amount of work, not a stopwatch: a run is
``round(seconds / 3.33)`` fixed-size epochs (about ``seconds`` of timed work
on the 2-core reference box), so that every count repeats exactly.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

SPINE = Path(__file__).resolve().parent
ROOT = SPINE.parents[1]
DEFAULT_SEED = 42
DEFAULT_SECONDS = 10
PINS = SPINE / "baseline" / "default_seed.json"


def load_suite():
    """Import the suite; ``src/`` is put on the path here, not by the caller."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no src/repro under {ROOT}: the spine measures a checkout of the repository")
    for path in (str(ROOT / "src"), str(SPINE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import spine_metrics
    import spine_tracer
    import spine_workloads

    return spine_metrics, spine_tracer, spine_workloads


# ------------------------------------------------------------ one workload
def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Serve workload ``name`` in this process and read its metrics.

    Returns ``correct`` / ``attempted`` / ``failed`` / ``failures``, the
    ``end_to_end`` metrics of the untraced pass and — with ``trace`` — the
    ``per_layer`` metrics, the top span by self time and the span trees of
    the slowest requests.
    """
    metrics, tracing, workloads = load_suite()
    workload = workloads.WORKLOADS[name]
    epochs = max(1, round(seconds / workloads.EPOCH_SECONDS))

    def one_pass(tracer):
        results = []
        for epoch in range(epochs):
            results.append(workloads.run_epoch(workload, seed, epoch, quick, tracer))
            gc.collect()
        return metrics.Pool(results)

    reading = metrics.Reading(plain=one_pass(None))
    result = {"workload": name, "seed": seed, "seconds": seconds, "quick": quick}
    result["end_to_end"] = metrics.read_metrics(metrics.END_TO_END, reading)
    failures = list(reading.plain.failures)
    if trace:
        reading.tracer = tracing.Tracer()
        reading.traced = one_pass(reading.tracer)
        failures += [f"traced {failure}" for failure in reading.traced.failures]
        result["per_layer"] = metrics.read_metrics(metrics.PER_LAYER, reading)
        top_name, top_seconds = reading.tracer.top_span()
        result["top_span"] = {"name": top_name, "self_s": top_seconds}
        result["slowest_requests"] = reading.tracer.slowest_requests()
    result.update(
        correct=not failures,
        attempted=reading.plain.attempted,
        failed=len(failures),
        failures=failures,
    )
    return result


def contract_line(result: dict, trace: bool) -> str:
    """The one JSON object the benchmark contract asks for."""
    metrics, _, _ = load_suite()
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    values = result["per_layer" if trace else "end_to_end"]
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in catalogue},
        }
    )


# ----------------------------------------------------------- all workloads
def run_suite(names: List[str], seed: int, seconds: float, repeat: int, trace: bool, quick: bool) -> List[dict]:
    """Each workload x repeat in its own fresh interpreter, one at a time."""
    runs = []
    for name in names:
        for offset in range(repeat):
            with tempfile.TemporaryDirectory() as scratch:
                detail = Path(scratch) / "detail.json"
                command = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed + offset), "--seconds", str(seconds), "--trace", str(int(trace)),
                    "--detail", str(detail),
                ] + (["--quick"] if quick else [])
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                if done.returncode != 0 or not detail.exists():
                    sys.exit(f"run.py: workload {name} (seed {seed + offset}) exited {done.returncode}")
                runs.append(json.loads(detail.read_text()))
            print_run(runs[-1])
    return runs


def print_run(run: dict) -> None:
    metrics, _, _ = load_suite()
    verdict = "ok" if run["correct"] else "FAILED " + "; ".join(run["failures"])
    print(f"\n== {run['workload']}  seed {run['seed']}  attempted {run['attempted']}  checks {verdict}")
    for kind, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        values = run.get(kind)
        if values is None:
            continue
        print(f"-- {kind.replace('_', ' ')}")
        for metric in catalogue:
            value = values[metric.name]
            if kind == "per_layer" and value == 0:
                continue  # a layer this workload never enters
            bound = f"  (bound {metric.bound:.0%})" if metric.bound is not None else ""
            print(f"   {metric.name:<52} {value:>16.6g} {metric.unit}{bound}")
    if "top_span" in run:
        print(f"-- top span by self time: {run['top_span']['name']} ({run['top_span']['self_s']:.3f} s)")
    sys.stdout.flush()


def pinned_differences(runs: List[dict]) -> List[str]:
    """Exact metrics that differ from the committed default-seed baseline."""
    metrics, _, _ = load_suite()
    if not PINS.exists():
        return []
    pinned = {run["workload"]: run for run in json.loads(PINS.read_text())["runs"]}
    differences = []
    for run in runs:
        pin = pinned.get(run["workload"])
        if pin is None:
            continue
        for kind, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
            if run.get(kind) is None or pin.get(kind) is None:
                continue
            for metric in catalogue:
                if metric.exact and run[kind][metric.name] != pin[kind][metric.name]:
                    differences.append(
                        f"{run['workload']} {metric.name}: {run[kind][metric.name]!r} != pinned {pin[kind][metric.name]!r}"
                    )
    return differences


def write_result(path: Path, runs: List[dict], seconds: float, quick: bool) -> None:
    """The result file, and the slowest requests' span trees next to it."""
    trees = {
        f"{run['workload']}@{run['seed']}": run.pop("slowest_requests")
        for run in runs
        if "slowest_requests" in run
    }
    path.write_text(json.dumps({"schema": 1, "seconds": seconds, "quick": quick, "runs": runs}, indent=1) + "\n")
    if trees:
        path.with_suffix(".traces.json").write_text(json.dumps(trees) + "\n")


# ----------------------------------------------------------------- compare
def spread(values: List[float]) -> float:
    """Distance between the quartiles (0 with fewer than two values)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return quartiles[2] - quartiles[0]


def compare(path_a: Path, path_b: Path) -> int:
    """Judge B against A on every end-to-end metric x workload; 1 on a regression.

    ``regressed``: B's median is worse than A's by more than the bound.
    ``unresolved``: either side's quartile spread is wider than the bound, so
    the medians cannot tell — unless every run of B beats every run of A.
    """
    metrics, _, _ = load_suite()
    sides = []
    for path in (path_a, path_b):
        by_workload: Dict[str, List[dict]] = {}
        for run in json.loads(path.read_text())["runs"]:
            by_workload.setdefault(run["workload"], []).append(run["end_to_end"])
        sides.append(by_workload)
    regressed = False
    print(f"{'workload':<18}{'metric':<18}{'A median':>14}{'B median':>14}{'worse by':>10}{'spread':>9}{'bound':>7}  verdict")
    for name in sides[0]:
        if name not in sides[1]:
            continue
        for metric in metrics.END_TO_END:
            a = [run[metric.name] for run in sides[0][name]]
            b = [run[metric.name] for run in sides[1][name]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if metric.better == "lower" else -1.0
            worse_by = sign * (median_b - median_a) / median_a
            widest = max(spread(a), spread(b)) / median_a
            b_always_better = (max(b) < min(a)) if metric.better == "lower" else (min(b) > max(a))
            if widest > metric.bound and not b_always_better:
                verdict = "unresolved"
            elif worse_by > metric.bound:
                verdict = "regressed"
                regressed = True
            else:
                verdict = "ok"
            print(
                f"{name:<18}{metric.name:<18}{median_a:>14.6g}{median_b:>14.6g}"
                f"{worse_by:>+10.1%}{widest:>9.1%}{metric.bound:>7.0%}  {verdict}"
            )
    return 1 if regressed else 0


# --------------------------------------------------------------------- cli
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="workload name (repeatable; default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seeds the input generators only")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS, help="timed work per run, in reference-box seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one workload, one JSON line: 0 end-to-end, 1 per-layer")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload, on seeds seed, seed+1, ...")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced pass (end-to-end metrics only)")
    parser.add_argument("--quick", action="store_true", help="smoke shapes: seconds, not minutes, for all five")
    parser.add_argument("--out", type=Path, help="write the result JSON here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"), help="judge B against A")
    parser.add_argument("--detail", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)

    _, _, workloads = load_suite()
    names = args.workload or list(workloads.WORKLOADS)
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {', '.join(workloads.WORKLOADS)}")

    if args.trace is not None:
        if len(names) != 1:
            parser.error("--trace takes exactly one --workload")
        result = run_workload(names[0], args.seed, args.seconds, bool(args.trace), args.quick)
        if args.detail:
            args.detail.write_text(json.dumps(result))
        for failure in result["failures"]:
            print(f"run.py: check failed: {failure}", file=sys.stderr)
        print(contract_line(result, bool(args.trace)))
        return 0

    runs = run_suite(names, args.seed, args.seconds, args.repeat, not args.no_trace, args.quick)
    failed = [f"{run['workload']}@{run['seed']}: {failure}" for run in runs for failure in run["failures"]]
    if args.seed == DEFAULT_SEED and args.seconds == DEFAULT_SECONDS and not args.quick:
        failed += pinned_differences([run for run in runs if run["seed"] == DEFAULT_SEED])
    if args.out:
        write_result(args.out, runs, args.seconds, args.quick)
    for failure in failed:
        print(f"FAILED {failure}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
