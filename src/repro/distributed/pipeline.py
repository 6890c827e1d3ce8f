"""Conflict-aware pipelining primitives for the distributed DSG.

At ``window=1`` the driver (:class:`repro.distributed.dsg_protocol.DistributedDSG`)
serves one request at a time — the paper's model, whose two-phase loop is
kept as the executable equivalence reference under
``tests/reference/sequential_driver_reference.py``.  This module provides
the pieces that let many requests be in flight at once *without changing
any observable result* but the round count:

* :class:`ConflictSet` — the touched region of one planned event.  The
  *read set* is the request's planned route path (the keys its ``route``
  message crosses in ``S_t``); the *write set* is the union of the plan's
  op-touched neighbourhoods (the set
  :func:`repro.core.local_ops.apply_ops_touched` specifies, collected by
  the planner's recorder while it applies the plan) and the ``l_alpha``
  subtree the transformation restructures (the ``list_of(u, alpha)``
  members).  Two events conflict when either one's writes intersect the
  other's reads or writes; read/read overlap is always safe — routes may
  overlap routes freely.

* :class:`PipelineWindow` — the FIFO in-flight window.  Admission is
  head-of-line: the oldest planned event is admitted as soon as the window
  has room and its conflict set is disjoint from every in-flight event's;
  a conflicting head *blocks* (no younger event may overtake it), which is
  what makes the all-conflict schedule degrade to exactly the sequential
  round count with no starvation.  Structural application is equally FIFO:
  completed events apply their ops in arrival order, and only at
  dissemination-free boundaries — while op messages roam the overlay the
  link structure stays frozen, so the per-link FIFO flow control of
  :class:`~repro.distributed.dsg_protocol.DSGProcess` keeps overlap
  congestion-safe and no rewiring can drop an in-flight message.

* :class:`AdmissionRecord` — one line of the admission trace, the
  determinism artifact the regression tests compare across same-seed runs.

The pieces that touch the simulator live in
:mod:`repro.distributed.dsg_protocol`: the per-node process, whose route
and op arrivals are tagged with a request id and recorded in a
driver-shared completion ledger, and the driver's serve loop, which wires
this window onto the CONGEST engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, NamedTuple, Optional

from repro.core.dsg import RequestResult
from repro.core.local_ops import LocalOp
from repro.skipgraph.node import Key

__all__ = [
    "AdmissionRecord",
    "ConflictSet",
    "PipelineEntry",
    "PipelineWindow",
    "entry_record",
]

#: Lifecycle phases of an in-flight entry.
PHASE_ROUTING = "routing"
PHASE_DISSEMINATING = "disseminating"
PHASE_COMPLETED = "completed"


@dataclass(frozen=True)
class ConflictSet:
    """The touched region of one planned event (see the module docstring)."""

    reads: FrozenSet[Key] = frozenset()
    writes: FrozenSet[Key] = frozenset()

    def conflicts_with(self, other: "ConflictSet") -> bool:
        """True unless the two regions may safely overlap in flight.

        Writes must be exclusive against everything; reads only against
        writes.  Read/read overlap is the whole point of pipelining: any
        number of routes may cross the same keys at once.
        """
        if self.writes and (self.writes & other.writes or self.writes & other.reads):
            return True
        return bool(other.writes and other.writes & self.reads)


@dataclass
class PipelineEntry:
    """One planned scenario event moving through the pipeline."""

    index: int
    kind: str  # "request" | "join" | "leave"
    rid: int
    conflict: ConflictSet
    ops: List[LocalOp]
    source: Optional[Key] = None
    destination: Optional[Key] = None
    plan: Optional[RequestResult] = None
    phase: str = PHASE_ROUTING
    measured: Optional[int] = None
    admit_round: int = -1
    complete_round: int = -1
    apply_round: int = -1
    #: Window occupancy at admission, the entry itself included.
    admitted_in_flight: int = 0
    stalled: bool = False
    #: ``"abandoned"`` / ``"reanchored"`` once a mid-request crash went
    #: through the plan repair; the planner is reseated when the entry applies.
    repair: Optional[str] = None


class AdmissionRecord(NamedTuple):
    """One applied event in the admission trace (arrival order).

    ``in_flight`` is the window occupancy at the entry's admission —
    counting the entry itself — which is how the adversarial serialization
    test asserts an all-conflict schedule never overlaps (always 1).
    """

    index: int
    kind: str
    rid: int
    admit_round: int
    complete_round: int
    apply_round: int
    in_flight: int


class PipelineWindow:
    """FIFO in-flight window with conflict-gated, head-of-line admission."""

    __slots__ = ("depth", "entries", "admitted", "max_in_flight", "conflict_stalls")

    def __init__(self, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"window depth must be >= 1, got {depth}")
        self.depth = depth
        self.entries: List[PipelineEntry] = []
        self.admitted = 0
        self.max_in_flight = 0
        self.conflict_stalls = 0

    def try_admit(self, entry: PipelineEntry) -> bool:
        """Admit ``entry`` if there is room and no in-flight conflict.

        A refusal due to conflict is counted once per stalled entry (the
        ``conflict_stalls`` statistic): the entry stays at the head of the
        planned queue and blocks everything younger until the conflicting
        in-flight work has been applied — FIFO head-of-line blocking, the
        serialization half of the scheduler.
        """
        if len(self.entries) >= self.depth:
            return False
        if any(entry.conflict.conflicts_with(inflight.conflict) for inflight in self.entries):
            if not entry.stalled:
                entry.stalled = True
                self.conflict_stalls += 1
            return False
        self.entries.append(entry)
        self.admitted += 1
        entry.admitted_in_flight = len(self.entries)
        self.max_in_flight = max(self.max_in_flight, len(self.entries))
        return True

    def work_in_flight(self) -> bool:
        """Whether any in-flight entry still owes simulator rounds."""
        return any(
            entry.phase in (PHASE_ROUTING, PHASE_DISSEMINATING) for entry in self.entries
        )

    def dissemination_in_flight(self) -> bool:
        """Whether any op messages may be roaming the overlay.

        While true, structural application is forbidden: op relays cross
        arbitrary keys, so rewiring *any* link could strand or drop one.
        Routes are exempt — their paths are read sets, conflict-checked
        against every writer before admission.
        """
        return any(entry.phase == PHASE_DISSEMINATING for entry in self.entries)

    def pop_completed_head(self) -> Optional[PipelineEntry]:
        """Pop the oldest entry iff it has completed (FIFO application)."""
        if self.entries and self.entries[0].phase == PHASE_COMPLETED:
            return self.entries.pop(0)
        return None


def entry_record(entry: PipelineEntry) -> AdmissionRecord:
    """The trace line for an applied entry (see :class:`AdmissionRecord`)."""
    return AdmissionRecord(
        index=entry.index,
        kind=entry.kind,
        rid=entry.rid,
        admit_round=entry.admit_round,
        complete_round=entry.complete_round,
        apply_round=entry.apply_round,
        in_flight=entry.admitted_in_flight,
    )
