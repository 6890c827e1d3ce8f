"""Common result types for baselines (Equation 1 cost accounting).

Every comparison algorithm in this subpackage reports its costs in the
paper's model (Section III): serving request ``σ_t = (u, v)`` on structure
``S_t`` costs ``d_{S_t}(σ_t) + ρ(A, S_t, σ_t) + 1`` — routing distance plus
adjustment rounds plus one (**Equation 1**).  :class:`RequestCost` is one
request's breakdown; :class:`BaselineRun` aggregates a sequence of them.

``BaselineRun`` maintains every aggregate (request count, routing /
adjustment / total cost, max routing) as a *running counter* updated in
:meth:`BaselineRun.record`, so reading an aggregate is O(1) no matter how
long the run is.  The per-request :class:`RequestCost` list is only
retained when ``keep_costs=True`` (the default, used by the experiments for
tail/percentile analysis); large benchmark runs pass ``keep_costs=False``
and stream millions of requests through the same accounting without
per-request retention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, List

__all__ = ["BaselineRun", "RequestCost"]

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
class BaselineRun:
    """Aggregate outcome of serving a request sequence.

    Parameters
    ----------
    name:
        Algorithm label the run belongs to (used in tables and artifacts).
    keep_costs:
        When ``True`` every recorded :class:`RequestCost` is retained in
        :attr:`costs` (needed for tail averages and per-request series);
        when ``False`` only the running aggregates are kept and
        :attr:`costs` stays empty — the streaming mode used by the
        large-scale benchmarks.
    costs:
        The retained per-request breakdowns (empty in streaming mode).

    The aggregate properties (:attr:`requests`, :attr:`total_routing`,
    :attr:`total_adjustment`, :attr:`total_cost`, :attr:`max_routing` and
    the averages) read running counters updated by :meth:`record`, so they
    are O(1) and — by construction — identical between a retained and a
    streaming run over the same sequence (property-tested in
    ``tests/baselines/test_adapter.py``).
    """

    name: str
    keep_costs: bool = True
    costs: List[RequestCost] = field(default_factory=list)
    _requests: int = field(default=0, repr=False)
    _total_routing: int = field(default=0, repr=False)
    _total_adjustment: int = field(default=0, repr=False)
    _max_routing: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        # Support construction from a pre-filled cost list: seed the running
        # counters so the aggregates stay consistent.
        for cost in self.costs:
            self._requests += 1
            self._total_routing += cost.routing
            self._total_adjustment += cost.adjustment
            if cost.routing > self._max_routing:
                self._max_routing = cost.routing

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

    def routing_series(self) -> List[int]:
        """Per-request routing distances (empty when ``keep_costs=False``)."""
        return [cost.routing for cost in self.costs]
