"""Competitive ratios against the working set bound (Theorems 1, 4 and 5).

Theorem 1 lower-bounds the amortized cost of *any* model-conforming
algorithm by ``WS(σ)``; Theorem 4 states DSG's routing cost is within a
constant factor of it and Theorem 5 that the total cost (including
transformations) is within a logarithmic factor.  The report computed here
makes those three quantities, and their ratios, explicit for one run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Optional, Sequence, Tuple

from repro.analysis.costs import CostSummary
from repro.core.working_set import working_set_bound

__all__ = ["CompetitiveReport", "competitive_report"]

Request = Tuple[Hashable, Hashable]


@dataclass
class CompetitiveReport:
    """Ratios of an algorithm's cost to the working set bound."""

    name: str
    requests: int
    working_set_bound: float
    total_routing: int
    total_cost: int
    routing_ratio: float
    cost_ratio: float
    #: ``log2(n)`` of the instance, for judging the Theorem 5 factor.
    log_n: float

    @property
    def routing_within_constant(self) -> bool:
        """Whether routing is within a (generous) constant of the bound."""
        return self.routing_ratio <= 8.0


def competitive_report(
    summary: CostSummary,
    requests: Sequence[Request],
    total_nodes: int,
    precomputed_bound: Optional[float] = None,
) -> CompetitiveReport:
    """Build a :class:`CompetitiveReport` for ``summary`` over ``requests``."""
    bound = precomputed_bound if precomputed_bound is not None else working_set_bound(requests, total_nodes)
    bound = max(bound, 1e-9)
    return CompetitiveReport(
        name=summary.name,
        requests=summary.requests,
        working_set_bound=bound,
        total_routing=summary.total_routing,
        total_cost=summary.total_cost,
        routing_ratio=summary.total_routing / bound,
        cost_ratio=summary.total_cost / bound,
        log_n=math.log2(max(total_nodes, 2)),
    )
