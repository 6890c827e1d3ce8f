"""Reference adjustment kernel (test oracle).

The executable specifications the shipping kernel is held to, kept out of
``src/`` so no production parameter, hook or branch exists for their sake:

* :func:`draw_membership_bits_reference` — the seed O(n)-scan join rule,
  moved here verbatim from ``repro/skipgraph/build.py``;
* :class:`OpByOpRecorder` — an :class:`~repro.core.local_ops.OpRecorder`
  whose ``*_run`` methods never try the skip graph's bulk entry points:
  every op lands through :func:`~repro.core.local_ops.apply_op`, one cache
  invalidation at a time;
* :class:`ReferenceDynamicSkipGraph` — a
  :class:`~repro.core.dsg.DynamicSkipGraph` served on both of the above plus
  full a-balance rescans (``graph.tracker = None``).

The reference instance is reached from the outside: it subclasses the
front end and rebinds the ``repro.core.dsg`` module name the join path
resolves at call time — the technique ``benchmarks/spine/spine_tracer.py``
uses to measure layers.  Plans, Equation-1 costs, RNG draws and the final
topology must be byte-identical to the shipping instance on any schedule
(``tests/core/test_batched_kernel.py``, ``benchmarks/bench_e15_100k.py``).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple
from unittest import mock

import repro.core.dsg as dsg_module
from repro.core.dsg import DynamicSkipGraph
from repro.core.local_ops import Bits, Key, OpRecorder
from repro.skipgraph.skipgraph import SkipGraph

__all__ = ["OpByOpRecorder", "ReferenceDynamicSkipGraph", "draw_membership_bits_reference"]


def draw_membership_bits_reference(graph: SkipGraph, key: Key, rng: random.Random) -> List[int]:
    """Executable specification of :func:`draw_membership_bits` (O(n) scan).

    The seed implementation: the shared-prefix predicate re-scans every
    real key per drawn bit.  Kept for the property tests and for the
    full-scan replay path (:class:`ReferenceDynamicSkipGraph`) that the
    incremental churn machinery is proven equivalent against.
    """
    bits: List[int] = []

    def prefix_shared() -> bool:
        prefix = tuple(bits)
        for other in graph.real_keys:
            if other == key:
                continue
            membership = graph.membership(other)
            if len(membership) >= len(prefix) and membership.bits[: len(prefix)] == prefix:
                return True
        return False

    while prefix_shared():
        bits.append(rng.randint(0, 1))
    return bits


class OpByOpRecorder(OpRecorder):
    """Records the same plans as :class:`OpRecorder`, applied one op at a time."""

    __slots__ = ()

    def promote_run(self, keys: Sequence[Key], level: int, bit: int) -> None:
        for key in keys:
            self.promote(key, level, bit)

    def demote_run(self, keys: Sequence[Key], length: int) -> None:
        for key in keys:
            self.demote(key, length)

    def remove_run(self, keys: Sequence[Key]) -> None:
        for key in keys:
            self.remove_dummy(key)

    def insert_dummy_run(self, entries: Sequence[Tuple[Key, Bits]]) -> None:
        for key, bits in entries:
            self.insert_dummy(key, bits)


class ReferenceDynamicSkipGraph(DynamicSkipGraph):
    """The front end on op-by-op application, scan-based joins and full rescans."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.graph.tracker = None

    def _recorder(self) -> OpByOpRecorder:
        return OpByOpRecorder(self.graph)

    def add_node(self, key: Key, payload=None) -> None:
        with mock.patch.object(dsg_module, "draw_membership_bits", draw_membership_bits_reference):
            super().add_node(key, payload=payload)
