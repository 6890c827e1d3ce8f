"""Tests for the one Equation-1 ledger (repro.core.costs).

Two halves:

* **The ledger itself.** A streaming (``keep_costs=False``) ledger reports
  every aggregate a retained one does, and the steady-state tail reads
  the retained costs.
* **One invariant across the layers.** Every layer that reports an
  Equation-1 total — a :class:`~repro.core.dsg.DynamicSkipGraph`, the
  adapter in front of it, a scenario run and the distributed driver —
  reads it from a ledger, and on one run they all agree, kept and
  streamed requests alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import DSGAdapter
from repro.core.costs import CostLedger, RequestCost
from repro.core.dsg import DSGConfig, DynamicSkipGraph
from repro.distributed import DistributedDSG
from repro.workloads import churn_scenario, run_scenario

cost_lists = st.lists(
    st.builds(
        RequestCost,
        source=st.integers(1, 50),
        destination=st.integers(1, 50),
        routing=st.integers(0, 40),
        adjustment=st.integers(0, 25),
    ),
    max_size=60,
)


class TestCostLedger:
    @given(costs=cost_lists)
    @settings(max_examples=60, deadline=None)
    def test_streaming_counters_equal_retained_sums(self, costs):
        retained = CostLedger(name="r", keep_costs=True)
        streaming = CostLedger(name="s", keep_costs=False)
        for cost in costs:
            retained.record(cost)
            streaming.record(cost)

        assert retained.costs == costs
        assert streaming.costs == []
        # The retained list is the ground truth; both counter sets must match it.
        for ledger in (retained, streaming):
            assert ledger.requests == len(costs)
            assert ledger.total_routing == sum(c.routing for c in costs)
            assert ledger.total_adjustment == sum(c.adjustment for c in costs)
            assert ledger.total_cost == sum(c.total for c in costs)
            assert ledger.max_routing == max((c.routing for c in costs), default=0)

    def test_empty_streaming_run(self):
        ledger = CostLedger(name="x", keep_costs=False)
        assert ledger.average_cost == 0.0
        assert ledger.costs == []

    def test_costs_are_recorded_never_passed_in(self):
        # A pre-filled list would bypass the counters: only record() feeds them.
        with pytest.raises(TypeError):
            CostLedger(name="x", costs=[RequestCost(1, 2, routing=3)])

    def test_routing_tail(self):
        ledger = CostLedger(name="x")
        for routing in (4, 4, 1, 1):
            ledger.record(RequestCost(1, 2, routing=routing))
        assert ledger.routing_tail(0.5) == 1.0
        assert ledger.routing_tail(1.0) == 2.5

    def test_empty_tail(self):
        assert CostLedger(name="x").routing_tail() == 0.0
        streaming = CostLedger(name="s", keep_costs=False)
        streaming.record(RequestCost(1, 2, routing=7))
        assert streaming.routing_tail() == 0.0


class _MixedKeepAdapter(DSGAdapter):
    """Serves every other request with ``keep_result=True``."""

    def _request(self, source, destination):
        result = self.dsg.request(source, destination, keep_result=self.dsg.time % 2 == 1)
        return RequestCost(source, destination, result.routing_cost, result.transformation_rounds)


class TestOneInvariantAcrossTheLedgers:
    def test_scenario_adapter_and_dsg_ledgers_agree(self):
        scenario = churn_scenario(n=32, length=160, seed=9, base="temporal", churn_rate=0.05)
        assert scenario.join_count > 0 and scenario.leave_count > 0
        adapter = _MixedKeepAdapter(keys=scenario.initial_keys, config=DSGConfig(seed=4))
        report = run_scenario(scenario, algorithm=adapter, keep_costs=True)
        dsg = adapter.dsg
        assert 0 < len(dsg.results) < report.costs.requests == scenario.request_count
        totals = {
            report.costs.total_cost,
            sum(cost.total for cost in report.costs.costs),
            adapter.total_cost,
            dsg.total_cost(),
            dsg.costs.total_cost,
        }
        assert len(totals) == 1
        assert dsg.costs.requests == adapter.requests_served == report.costs.requests

    def test_streamed_request_is_counted(self):
        dsg = DynamicSkipGraph(keys=range(1, 33), config=DSGConfig(seed=1))
        first = dsg.request(1, 17)
        streamed = dsg.request(2, 30, keep_result=False)
        third = dsg.request(5, 9)
        assert len(dsg.results) == 2
        assert dsg.costs.requests == 3
        assert dsg.costs.total_cost == dsg.total_cost() == first.cost + streamed.cost + third.cost
        assert dsg.costs.total_routing == (
            first.routing_cost + streamed.routing_cost + third.routing_cost
        )

    @pytest.mark.parametrize("window", [1, 16])
    def test_distributed_total_is_the_sum_of_its_outcomes(self, window):
        scenario = churn_scenario(n=32, length=80, seed=7, base="temporal", churn_rate=0.1)
        driver = DistributedDSG(
            scenario.initial_keys, config=DSGConfig(seed=7), seed=2, strict=True, window=window
        )
        report = driver.run_scenario(scenario)
        outcomes = report.outcomes
        assert report.requests == driver.costs.requests == len(outcomes) == scenario.request_count
        assert report.total_cost == driver.costs.total_cost == sum(o.cost for o in outcomes)
        assert report.total_routing == sum(o.measured_distance for o in outcomes)
        assert report.matches_planner
