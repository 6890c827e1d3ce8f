"""Smoke test of the measurement spine, collected by the tier-1 run as is.

Runs all five workloads twice at their ``--quick`` shapes, in-process, with
the traced pass on, and holds the suite to what ``BENCHMARK.json`` promises:
every metric it names is emitted with its unit, exact metrics repeat, the
tracer never attributes more time than passed, and the rebinding it does is
fully undone.
"""

import json
import re
from pathlib import Path

import pytest

import run as spine

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MANIFEST = json.loads((Path(spine.ROOT) / "BENCHMARK.json").read_text())

metrics, tracing, workloads = spine.load_suite()


def _bindings():
    """The object currently bound at every site the suite rebinds."""
    import repro.distributed.failover as failover

    bound = {
        (path, attribute): tracing.resolve_owner(path).__dict__[attribute]
        for path, attribute, _, _ in tracing.REBINDINGS
    }
    bound["segment_waves"] = failover.segment_waves
    return bound


@pytest.fixture(scope="module")
def runs():
    before = _bindings()
    results = {
        name: [spine.run_workload(name, seed=7, seconds=3, trace=True, quick=True) for _ in range(2)]
        for name in workloads.WORKLOADS
    }
    assert _bindings() == before, "a traced pass left a name rebound"
    return results


def test_manifest_matches_the_catalogue():
    assert MANIFEST["command"] == ["python3", "benchmarks/spine/run.py"]
    assert MANIFEST["paths"] == ["benchmarks/spine"]
    assert MANIFEST["run_seconds"] == spine.DEFAULT_SECONDS
    assert [(w["name"]) for w in MANIFEST["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in MANIFEST["workloads"])
    assert MANIFEST["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in metrics.END_TO_END
    ]
    assert MANIFEST["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]


def test_names_units_and_counts_are_within_the_contract():
    every = metrics.END_TO_END + metrics.PER_LAYER
    names = [m.name for m in every] + list(workloads.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(UNIT.fullmatch(m.unit) and m.better in ("lower", "higher") for m in every)
    assert 2 <= len(workloads.WORKLOADS) <= 5
    assert len(metrics.END_TO_END) <= 16 and len(metrics.PER_LAYER) <= 128
    assert all(m.bound is not None and 0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    setup = next(m for m in metrics.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metrics.END_TO_END)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_metric_and_passes_its_checks(runs, name):
    first, second = runs[name]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        for trace, catalogue in ((False, metrics.END_TO_END), (True, metrics.PER_LAYER)):
            line = json.loads(spine.contract_line(result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m.name for m in catalogue]
            for metric in catalogue:
                emitted = line["metrics"][metric.name]
                assert emitted["unit"] == metric.unit
                assert isinstance(emitted["value"], (int, float))
        assert all(value > 0 for value in result["end_to_end"].values())
        # Self times are disjoint by construction, so they cannot sum past
        # the wall of the pass they were recorded in.
        assert 0.0 <= result["per_layer"]["trace.unattributed_share"] <= 1.0
        assert result["top_span"]["self_s"] > 0
        assert result["slowest_requests"] and result["slowest_requests"][0]["tree"]
    for kind, catalogue in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        for metric in catalogue:
            if metric.exact:
                assert first[kind][metric.name] == second[kind][metric.name], metric.name


def test_another_seed_gives_another_schedule_that_still_passes():
    other = spine.run_workload("central-churn", seed=8, seconds=3, trace=False, quick=True)
    same = spine.run_workload("central-churn", seed=7, seconds=3, trace=False, quick=True)
    assert other["correct"] and same["correct"]
    assert other["end_to_end"]["cost_per_request"] != same["end_to_end"]["cost_per_request"]


def test_compare_flags_a_regression_and_passes_a_twin(tmp_path, runs, capsys):
    base = [pair[0] for pair in runs.values()]
    slower = json.loads(json.dumps(base))
    for run in slower:
        run["end_to_end"]["requests_per_s"] *= 0.5
    for label, content in (("a", base), ("twin", base), ("slow", slower)):
        (tmp_path / f"{label}.json").write_text(json.dumps({"runs": content}, default=str))
    assert spine.compare(tmp_path / "a.json", tmp_path / "twin.json") == 0
    assert spine.compare(tmp_path / "a.json", tmp_path / "slow.json") == 1
    assert "regressed" in capsys.readouterr().out
