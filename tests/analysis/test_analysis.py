"""Tests for competitive reports, statistics and tables."""

import math

import pytest

from repro.analysis import (
    Table,
    competitive_report,
    describe,
    log2_fit_slope,
    percentile,
    render_table,
    to_csv,
)
from repro.baselines import DirectLinkOracle
from repro.core.costs import CostLedger, RequestCost
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.workloads import generate_workload

KEYS = list(range(1, 33))


class TestCompetitive:
    def test_oracle_is_below_every_bound(self):
        requests = generate_workload("repeated-pair", KEYS, 50, seed=3)
        run = DirectLinkOracle().serve(requests)
        report = competitive_report(run, requests, len(KEYS))
        assert report.routing_ratio <= 1.0
        assert report.working_set_bound > 0

    def test_dsg_routing_within_constant_on_skewed_traffic(self):
        dsg = DynamicSkipGraph(keys=KEYS, config=DSGConfig(seed=5))
        requests = generate_workload("temporal", KEYS, 150, seed=5, working_set_size=6)
        dsg.run_sequence(requests)
        report = competitive_report(dsg.costs, requests, len(KEYS))
        assert report.routing_within_constant
        assert report.log_n == pytest.approx(5.0)

    def test_precomputed_bound_is_used(self):
        ledger = CostLedger(name="x")
        ledger.record(RequestCost(1, 2, routing=10))
        report = competitive_report(ledger, [(1, 2)], 32, precomputed_bound=5.0)
        assert report.routing_ratio == pytest.approx(2.0)


class TestStatistics:
    def test_percentile_basic(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 50) == 3
        assert percentile(values, 100) == 5
        assert percentile(values, 25) == 2.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 150)

    def test_percentile_single_value(self):
        assert percentile([7], 95) == 7.0

    def test_describe(self):
        stats = describe([1, 2, 3, 4])
        assert stats["count"] == 4
        assert stats["mean"] == 2.5
        assert stats["min"] == 1 and stats["max"] == 4

    def test_describe_empty(self):
        assert describe([])["count"] == 0

    def test_log2_fit_slope_recovers_constant(self):
        points = [(n, 3 * math.log2(n) + 1) for n in (16, 32, 64, 128, 256)]
        assert log2_fit_slope(points) == pytest.approx(3.0)

    def test_log2_fit_slope_validation(self):
        with pytest.raises(ValueError):
            log2_fit_slope([(4, 1)])
        with pytest.raises(ValueError):
            log2_fit_slope([(4, 1), (4, 2)])


class TestTables:
    def make_table(self):
        table = Table(title="Example", columns=["name", "value", "ok"])
        table.add_row("alpha", 1.23456, True)
        table.add_row("beta", None, False)
        return table

    def test_add_row_validates_arity(self):
        table = self.make_table()
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_render_contains_all_cells(self):
        table = self.make_table()
        text = render_table(table)
        assert "Example" in text
        assert "alpha" in text and "beta" in text
        assert "1.235" in text
        assert "yes" in text and "no" in text
        assert "-" in text  # None cell

    def test_notes_rendered(self):
        table = self.make_table()
        table.add_note("footnote")
        assert "note: footnote" in table.render()

    def test_column_accessor(self):
        table = self.make_table()
        assert table.column("name") == ["alpha", "beta"]

    def test_to_csv(self):
        table = self.make_table()
        text = to_csv(table)
        lines = text.strip().splitlines()
        assert lines[0] == "name,value,ok"
        assert lines[1].startswith("alpha,")

    def test_write_csv(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "out" / "table.csv"
        table.write_csv(path)
        assert path.read_text().startswith("name,value,ok")
