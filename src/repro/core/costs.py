"""Equation-1 cost accounting: the one ledger every layer adds costs up in.

Serving request ``σ_t = (u, v)`` on structure ``S_t`` costs
``d_{S_t}(σ_t) + ρ(A, S_t, σ_t) + 1`` — routing distance plus adjustment
rounds plus one (**Equation 1**, Section III).  :class:`RequestCost` is one
request's breakdown; :class:`CostLedger` adds a sequence of them up.

Every total reported anywhere — a :class:`~repro.core.dsg.DynamicSkipGraph`,
each comparison algorithm behind the adapter, a scenario run and the
distributed driver — is read from a ledger, so the aggregates (request
count, routing / adjustment / total cost, max routing) are running counters
updated in :meth:`CostLedger.record` and O(1) to read however long the run.
The per-request :class:`RequestCost` list is only retained when
``keep_costs=True`` (what tail and percentile analysis needs); streaming
runs pass ``keep_costs=False`` and retain nothing per request.

The module imports nothing from the package, so the front end
(:mod:`repro.core.dsg`) and every layer above it can share it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List

__all__ = ["CostLedger", "RequestCost"]

Key = Hashable


@dataclass(frozen=True)
class RequestCost:
    """Cost breakdown of one request under some algorithm.

    Parameters
    ----------
    source, destination:
        Endpoint keys of the request ``σ_t = (source, destination)``.
    routing:
        Number of intermediate nodes on the communication path (the paper's
        routing distance ``d_S``).
    adjustment:
        Rounds spent reorganising the topology after the request
        (``ρ(A, S_t, σ_t)``; 0 for static baselines).
    """

    source: Key
    destination: Key
    routing: int
    adjustment: int = 0

    @property
    def total(self) -> int:
        """Equation 1: ``routing + adjustment + 1``."""
        return self.routing + self.adjustment + 1


@dataclass
class CostLedger:
    """Running Equation-1 totals of one request sequence.

    Parameters
    ----------
    name:
        Label of the algorithm the ledger belongs to (tables, artifacts).
    keep_costs:
        When ``True`` every recorded :class:`RequestCost` is retained in
        :attr:`costs` (needed for tail averages and per-request series);
        when ``False`` only the running aggregates are kept and
        :attr:`costs` stays empty.

    The aggregates read counters updated by :meth:`record`, so they are
    identical between a retained and a streaming ledger over the same
    sequence (property-tested in ``tests/core/test_costs.py``).
    """

    name: str
    keep_costs: bool = True
    costs: List[RequestCost] = field(default_factory=list, init=False)
    _requests: int = field(default=0, init=False, repr=False)
    _total_routing: int = field(default=0, init=False, repr=False)
    _total_adjustment: int = field(default=0, init=False, repr=False)
    _max_routing: int = field(default=0, init=False, repr=False)

    def record(self, cost: RequestCost) -> None:
        """Fold one request into the running aggregates (O(1))."""
        self._requests += 1
        self._total_routing += cost.routing
        self._total_adjustment += cost.adjustment
        if cost.routing > self._max_routing:
            self._max_routing = cost.routing
        if self.keep_costs:
            self.costs.append(cost)

    @property
    def requests(self) -> int:
        return self._requests

    @property
    def total_routing(self) -> int:
        return self._total_routing

    @property
    def total_adjustment(self) -> int:
        return self._total_adjustment

    @property
    def total_cost(self) -> int:
        """Equation 1 sum: every request pays routing + adjustment + 1."""
        return self._total_routing + self._total_adjustment + self._requests

    @property
    def max_routing(self) -> int:
        return self._max_routing

    @property
    def average_routing(self) -> float:
        return self._total_routing / self._requests if self._requests else 0.0

    @property
    def average_adjustment(self) -> float:
        return self._total_adjustment / self._requests if self._requests else 0.0

    @property
    def average_cost(self) -> float:
        return self.total_cost / self._requests if self._requests else 0.0

    def routing_tail(self, fraction: float = 0.5) -> float:
        """Average routing cost of the last ``fraction`` of the retained costs.

        Self-adjusting algorithms pay a warm-up; comparisons of the steady
        state use the tail average (0.0 when nothing was retained).
        """
        tail = self.costs[int(len(self.costs) * (1 - fraction)):]
        return sum(cost.routing for cost in tail) / len(tail) if tail else 0.0
