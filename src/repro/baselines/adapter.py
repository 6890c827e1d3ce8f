"""Unified algorithm adapter: one driving interface for DSG and baselines.

Experiment E9 compares DSG against four comparators (Theorems 4-5), and the
scenario layer (:mod:`repro.workloads.scenarios`) replays event schedules —
requests interleaved with node joins and leaves (Section IV-G) — against a
live structure.  This module is the seam between the two:
:class:`ServingAlgorithm` is the protocol every comparison algorithm
implements, so a single runner can drive *any* of them through *any*
scenario (churn, scale mixes, zipf drift, flash crowds) interchangeably.

The protocol is deliberately small:

``request(u, v) -> RequestCost``
    Serve one communication request and return its Equation 1 breakdown.
``join(key)`` / ``leave(key)``
    Membership churn.  Every implementation accepts joins of fresh keys and
    leaves of current members; static structures patch their topology
    (random membership vector for the newcomer), SplayNet performs a BST
    insert/delete, DSG runs the Section IV-G operations.
``serve(requests, keep_costs=True) -> CostLedger``
    Convenience loop over ``request`` for plain (churn-free) sequences.

Streaming accounting: every adapter carries a lifetime
:class:`~repro.core.costs.CostLedger` in streaming mode
(``keep_costs=False``), so ``requests_served`` / ``total_routing`` /
``total_adjustment`` / ``total_cost`` are O(1) running counters regardless
of run length — a 100k-request benchmark run retains nothing per-request.

The one scenario runner is :func:`repro.workloads.scenarios.run_scenario`:
it drives any :class:`ServingAlgorithm` (``algorithm=``) through any event
schedule, request by request, and hands the run's own ledger back on its
report (``report.costs``; with ``keep_costs=True`` it retains the
per-request :class:`RequestCost` list E9 uses for tail analysis).
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.costs import CostLedger, Key, RequestCost
from repro.core.dsg import DSGConfig, DynamicSkipGraph

__all__ = ["DSGAdapter", "ServingAlgorithm", "make_comparison_algorithms"]

Request = Tuple[Key, Key]


class ServingAlgorithm:
    """Base class / protocol for every algorithm E9 and the runners drive.

    Subclasses implement :meth:`_request` (serve one request, return its
    :class:`RequestCost`) plus :meth:`join` / :meth:`leave`, and inherit the
    streaming accounting: the public :meth:`request` records every cost into
    the lifetime counters before returning it.
    """

    #: Algorithm label used in tables, reports and artifacts.
    name: str = "algorithm"

    def __init__(self, name: Optional[str] = None) -> None:
        if name is not None:
            self.name = name
        self._lifetime = CostLedger(name=self.name, keep_costs=False)

    # ------------------------------------------------------------- protocol
    def _request(self, source: Key, destination: Key) -> RequestCost:
        raise NotImplementedError

    def join(self, key: Key) -> None:
        """A new peer with ``key`` enters the structure."""
        raise NotImplementedError

    def leave(self, key: Key) -> None:
        """The peer with ``key`` departs the structure."""
        raise NotImplementedError

    def height(self) -> int:
        """Current height of the structure (1 for the flat oracle)."""
        return 1

    def population(self) -> int:
        """Number of (real) peers currently in the structure."""
        raise NotImplementedError

    def working_set_bound(self) -> float:
        """``WS(σ)`` of the stream served so far, when the algorithm tracks
        it (only DSG does); 0.0 otherwise."""
        return 0.0

    def dummy_count(self) -> int:
        """Auxiliary nodes currently held (DSG's a-balance dummies)."""
        return 0

    def plan_size_histogram(self) -> dict:
        """Distribution of restructuring-plan sizes (``len(ops) -> count``).

        Only DSG emits local-op plans; every other algorithm reports an
        empty histogram, which the artifact pipeline skips.
        """
        return {}

    def phase_seconds(self) -> Dict[str, float]:
        """Wall-clock breakdown of serving time by phase.

        DSG reports ``route`` / ``plan`` / ``apply`` / ``repair`` seconds
        (:attr:`repro.core.dsg.DynamicSkipGraph.phase_seconds`); algorithms
        without instrumentation report an empty mapping, which the artifact
        pipeline records as-is.
        """
        return {}

    # -------------------------------------------------------------- serving
    def request(self, source: Key, destination: Key) -> RequestCost:
        """Serve one request; fold its cost into the lifetime counters."""
        cost = self._request(source, destination)
        self._lifetime.record(cost)
        return cost

    def serve(self, requests: Iterable[Request], keep_costs: bool = True) -> CostLedger:
        """Serve a plain request sequence and return its own ledger.

        The returned :class:`CostLedger` covers exactly this call (the
        lifetime counters keep accumulating across calls); pass
        ``keep_costs=False`` to stream arbitrarily long sequences through
        O(1) aggregates.
        """
        run = CostLedger(name=self.name, keep_costs=keep_costs)
        for source, destination in requests:
            run.record(self.request(source, destination))
        return run

    # ------------------------------------------------------------- counters
    @property
    def requests_served(self) -> int:
        return self._lifetime.requests

    @property
    def total_routing(self) -> int:
        return self._lifetime.total_routing

    @property
    def total_adjustment(self) -> int:
        return self._lifetime.total_adjustment

    @property
    def total_cost(self) -> int:
        return self._lifetime.total_cost


class DSGAdapter(ServingAlgorithm):
    """Drive a :class:`~repro.core.dsg.DynamicSkipGraph` through the
    adapter protocol.

    Translation is one-to-one: ``routing`` is the request's routing
    distance ``d_{S_t}``, ``adjustment`` its transformation rounds
    ``ρ(A, S_t, σ_t)`` (so ``RequestCost.total`` equals
    ``RequestResult.cost``, Equation 1) and joins/leaves map to the
    Section IV-G node operations.  The adapter's lifetime ledger and the
    DSG's own (``dsg.costs``) are fed independently, so their agreement is
    a check, not an identity.
    """

    name = "dsg"

    def __init__(
        self,
        keys: Optional[Iterable[Key]] = None,
        config: Optional[DSGConfig] = None,
        dsg: Optional[DynamicSkipGraph] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        if dsg is None:
            dsg = DynamicSkipGraph(keys=keys, config=config)
        self.dsg = dsg

    def _request(self, source: Key, destination: Key) -> RequestCost:
        result = self.dsg.request(source, destination, keep_result=False)
        return RequestCost(
            source=source,
            destination=destination,
            routing=result.routing_cost,
            adjustment=result.transformation_rounds,
        )

    def join(self, key: Key) -> None:
        self.dsg.add_node(key)

    def leave(self, key: Key) -> None:
        self.dsg.remove_node(key)

    def height(self) -> int:
        return self.dsg.height()

    def population(self) -> int:
        return self.dsg.n

    def working_set_bound(self) -> float:
        if not self.dsg.config.track_working_set:
            return 0.0
        return self.dsg.working_set_bound()

    def dummy_count(self) -> int:
        return self.dsg.dummy_count()

    def plan_size_histogram(self) -> dict:
        return self.dsg.plan_size_histogram()

    def phase_seconds(self) -> Dict[str, float]:
        return dict(self.dsg.phase_seconds)


def make_comparison_algorithms(
    keys: Sequence[Key],
    requests: Sequence[Request],
    seed: Optional[int] = None,
    a: int = 4,
    rng: Optional[random.Random] = None,
    dsg_config: Optional[DSGConfig] = None,
) -> List[ServingAlgorithm]:
    """Instantiate the five E9 comparison algorithms over one population.

    ``requests`` is the full request sequence the offline-static baseline
    optimises for (its defining premise: the frequencies are known in
    advance).  Returns, in reporting order: the direct-link oracle, DSG,
    the offline-optimal static skip graph, SplayNet, and the random static
    skip graph.
    """
    from repro.baselines.offline_static import OfflineStaticBaseline
    from repro.baselines.oracle import DirectLinkOracle
    from repro.baselines.splaynet import SplayNetBaseline
    from repro.baselines.static_skipgraph import StaticSkipGraphBaseline
    from repro.simulation.rng import make_rng

    rng = rng or make_rng(seed)
    return [
        DirectLinkOracle(keys),
        DSGAdapter(keys=keys, config=dsg_config or DSGConfig(seed=seed, a=a)),
        OfflineStaticBaseline(keys, requests, rng=random.Random(rng.getrandbits(64))),
        SplayNetBaseline(keys),
        StaticSkipGraphBaseline(keys, topology="random", rng=random.Random(rng.getrandbits(64))),
    ]
