"""Benchmark target regenerating experiment E6: Theorem 3 / Section V — AMF round complexity.

Two measurements:

* ``test_e06_amf_rounds`` — the E6 experiment (structural + protocol round
  tables, sublinearity checks) at benchmark parameters.
* ``test_e06_protocol_scale`` — the message-level AMF protocol swept up to
  **4096 nodes** (feasible since the engine's active set follows the
  streaming frontier instead of invoking every process each round),
  asserting the O(log n)-flavour growth on the protocol itself and writing
  a ``BENCH_e06_amf_rounds.json`` artifact with one ``protocol`` row per
  size (rounds, messages, bits, violations, drops).

Under ``BENCH_QUICK=1`` both shrink to CI smoke shapes.
"""

import time
from pathlib import Path

from conftest import artifact_dir, experiment_params, protocol_row, publish_artifact, quick_mode

from repro.analysis.artifacts import BenchmarkArtifact, render_comparison
from repro.distributed import run_amf_protocol
from repro.experiments import run_experiment
from repro.simulation.message import congest_budget_bits
from repro.simulation.rng import make_rng

PARAMS = experiment_params("E6", sizes=(32, 64, 128, 256, 512), trials=2)
CRITICAL_CHECKS = ['structural_rounds_sublinear']

SCALE_SIZES = (32, 64, 128) if quick_mode() else (64, 256, 1024, 4096)
SCALE_SEED = 11


def test_e06_amf_rounds(run_once):
    result = run_once(run_experiment, "E6", **PARAMS)
    print()
    print(result.render())
    for check in CRITICAL_CHECKS:
        assert result.checks.get(check, False), f"E6 check failed: {check}"
    assert result.all_passed, [name for name, ok in result.checks.items() if not ok]


def test_e06_protocol_scale(run_once):
    def sweep():
        rows = []
        for n in SCALE_SIZES:
            rng = make_rng(SCALE_SEED + n)
            values = {i: float(rng.random()) for i in range(n)}
            started = time.perf_counter()
            result = run_amf_protocol(values, a=4, seed=SCALE_SEED + n)
            rows.append(protocol_row(
                "amf", n, congest_budget_bits(n), result.metrics,
                wall_seconds=time.perf_counter() - started,
            ))
            assert result.satisfies_lemma1(list(values.values()), a=4)
        return rows

    rows = run_once(sweep)

    growth = rows[-1]["rounds"] / max(rows[0]["rounds"], 1)
    linear_growth = SCALE_SIZES[-1] / SCALE_SIZES[0]
    checks = {
        "protocol_rounds_sublinear_at_scale": growth <= 0.75 * linear_growth,
        "zero_congestion_violations": all(row["congestion_violations"] == 0 for row in rows),
        "all_messages_within_budget": all(
            row["max_message_bits"] <= row["budget_bits"] for row in rows
        ),
        "no_drops_without_churn": all(row["dropped_messages"] == 0 for row in rows),
    }

    artifact = BenchmarkArtifact(
        benchmark="e06_amf_rounds",
        config={"sizes": list(SCALE_SIZES), "a": 4, "seed": SCALE_SEED, "quick": quick_mode()},
        wall_seconds=sum(row["wall_seconds"] for row in rows),
        rows=rows,
        checks=checks,
    )
    out_dir = Path(artifact_dir())
    json_path = publish_artifact(artifact)
    report_md = render_comparison([artifact])
    (out_dir / "BENCH_e06_amf_rounds.md").write_text(report_md)

    print()
    print(report_md)
    print(f"[e06-scale] artifact={json_path}")

    assert json_path.exists()
    failed = [name for name, ok in checks.items() if not ok]
    assert not failed, f"AMF scale checks failed: {failed}"
