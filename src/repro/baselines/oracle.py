"""Direct-link oracle.

The self-adjusting model charges ``d + ρ + 1`` per request (Equation 1); an
omniscient adversary-free oracle that always happens to have the
communicating pair directly linked pays ``0 + 0 + 1 = 1``.  This is the
trivial per-request floor of the cost model and is reported alongside the
working set bound (the *meaningful* lower bound, Theorem 1) in the
comparison tables.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set

from repro.baselines.adapter import ServingAlgorithm
from repro.core.costs import RequestCost
from repro.skipgraph.node import Key

__all__ = ["DirectLinkOracle"]


class DirectLinkOracle(ServingAlgorithm):
    """Every request costs exactly one round.

    Parameters
    ----------
    keys:
        Optional initial population.  The oracle does not need one to serve
        (every pair is adjacent by fiat); tracking it makes the churn
        accounting (``population()``, join/leave validity) uniform with the
        other adapters.
    """

    name = "oracle-direct-link"

    def __init__(self, keys: Optional[Iterable[Key]] = None) -> None:
        super().__init__()
        self._members: Set[Key] = set(keys) if keys is not None else set()

    def _request(self, source: Key, destination: Key) -> RequestCost:
        return RequestCost(source=source, destination=destination, routing=0)

    def join(self, key: Key) -> None:
        if key in self._members:
            raise ValueError(f"key {key!r} already present")
        self._members.add(key)

    def leave(self, key: Key) -> None:
        if key not in self._members:
            raise KeyError(f"no node with key {key!r}")
        self._members.discard(key)

    def height(self) -> int:
        """A clique of direct links is flat."""
        return 1

    def population(self) -> int:
        return len(self._members)
