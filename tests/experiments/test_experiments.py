"""Tests for the experiment harness, registry and CLI.

Each experiment is run with reduced parameters (the same ones the CLI's
``--quick`` mode uses) and its checks — the empirical claims from the paper
— must pass.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment, run_experiment
from repro.experiments.base import ExperimentResult
from repro.experiments.cli import QUICK_PARAMS, build_parser, main


class TestRegistry:
    def test_all_experiments_registered(self):
        assert sorted(EXPERIMENTS) == sorted(f"E{i}" for i in range(1, 13))
        assert len(EXPERIMENTS) == 12

    def test_every_quick_shape_names_an_experiment(self):
        assert set(QUICK_PARAMS) <= set(EXPERIMENTS)

    def test_get_experiment_case_insensitive(self):
        assert get_experiment("e5").experiment_id == "E5"

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_every_spec_documents_paper_artifact(self):
        for spec in EXPERIMENTS.values():
            assert spec.paper_artifact
            assert spec.title


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS, key=lambda e: int(e[1:])))
def test_experiment_checks_pass(experiment_id):
    params = QUICK_PARAMS.get(experiment_id, {})
    result = run_experiment(experiment_id, **params)
    assert isinstance(result, ExperimentResult)
    assert result.tables, "every experiment must report at least one table"
    failed = [name for name, passed in result.checks.items() if not passed]
    assert not failed, f"{experiment_id} failed checks: {failed}"


class TestResultRendering:
    def test_render_contains_tables_and_checks(self):
        result = run_experiment("E2", **QUICK_PARAMS["E2"])
        text = result.render()
        assert "E2" in text
        assert "checks:" in text
        assert "PASS" in text

    def test_all_passed_property(self):
        result = ExperimentResult(experiment_id="X", title="t")
        assert result.all_passed
        result.checks["bad"] = False
        assert not result.all_passed


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E12" in output

    def test_run_single_quick(self, capsys):
        assert main(["run", "E2", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "checks passed: True" in output

    def test_run_writes_csv(self, tmp_path, capsys):
        assert main(["run", "E2", "--quick", "--csv-dir", str(tmp_path)]) == 0
        files = list(tmp_path.glob("e2_*.csv"))
        assert files

    def test_parser_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            main(["run", "E99", "--quick"])
