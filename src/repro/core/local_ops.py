"""The local-operation kernel for DSG restructuring.

The paper's central locality claim is that every restructure a request (or a
churn event) triggers is a *bounded-neighbourhood* operation: a node flips or
forgets membership bits of its own vector, splices itself into (or out of) a
level list next to nodes it already knows, or creates/destroys a dummy
neighbour.  This module makes that vocabulary first class:

* :class:`PromoteOp` — assign the membership bit selecting the sublist at
  ``level`` (in the transformation this is always an *append*: the node
  descends one level and splices into the 0- or 1-sublist);
* :class:`DemoteOp` — truncate the membership vector to ``length`` bits (the
  node leaves every list deeper than ``length``; the lists it leaves close up
  over it);
* :class:`DummyInsertOp` / :class:`DummyRemoveOp` — create or destroy a dummy
  node (a-balance maintenance, Section IV-F; dummies destroy themselves when
  a transformation notification reaches them);
* :class:`NodeJoinOp` / :class:`NodeLeaveOp` — peer churn (Section IV-G).

Every structural mutation of the repository flows through this vocabulary:

* the **centralized hot path** plans and applies in one pass — the planners
  (:meth:`repro.core.dsg.DynamicSkipGraph._adjust`,
  :func:`repro.core.transformation.transform`,
  :meth:`repro.core.dsg.DynamicSkipGraph.restore_a_balance`) drive an
  :class:`OpRecorder`, which applies each op to the
  :class:`~repro.skipgraph.skipgraph.SkipGraph` *as it is emitted* (the
  planning maths reads the graph mid-plan, so application must be eager) and
  keeps the emitted sequence as the plan (plus the wall clock its bulk
  splices took — the only other thing a recorder holds; the a-balance dirty
  marks are emitted by the graph's own mutators, not by this module); a
  plan is a read-only :class:`Plan` that stores each bulk run as one
  record and expands it into per-key ops only when read, so a deep rebuild
  holds one record per list split, not one op per member and level;
* :func:`apply_ops` **replays** a recorded plan onto another graph — the
  applier the property tests use to prove a plan is self-contained
  (replaying ``result.ops`` on a copy of ``S_t`` reproduces ``S_{t+1}``)
  and the distributed protocol
  (:mod:`repro.distributed.dsg_protocol`) executes op by op;
* the simulation bridge (:func:`repro.distributed.bridge.apply_local_op`)
  turns each op into per-level link rewiring of a live CONGEST network;
  :func:`op_levels` is the one function that knows *which* levels — the
  touched-set extractors here and the link writer there both walk it.

Ops are plain tuples of ``O(1)`` words — a key, a level, a bit, or a short
bit string — so a single op always fits in an ``O(log n)``-bit CONGEST
message; :func:`op_to_payload` / :func:`op_from_payload` define that wire
format and :func:`op_anchor` names the node that executes the op (for a
dummy insertion, the dummy's base-list predecessor — the neighbour that
creates it; every other op is executed by the node it names).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence as SequenceABC
from itertools import repeat
from operator import eq
from time import perf_counter
from typing import Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.skipgraph.membership import MembershipVector, common_prefix_length
from repro.skipgraph.node import SkipGraphNode
from repro.skipgraph.skipgraph import SkipGraph

__all__ = [
    "DemoteOp",
    "DummyInsertOp",
    "DummyRemoveOp",
    "LocalOp",
    "NodeJoinOp",
    "NodeLeaveOp",
    "OpRecorder",
    "Plan",
    "PromoteOp",
    "apply_op",
    "apply_ops",
    "apply_ops_touched",
    "op_anchor",
    "op_from_payload",
    "op_levels",
    "op_to_payload",
    "stale_op_keys",
]

Key = Hashable
Bits = Tuple[int, ...]


class PromoteOp(NamedTuple):
    """Assign the membership bit selecting the sublist at ``level`` (>= 1)."""

    key: Key
    level: int
    bit: int


class DemoteOp(NamedTuple):
    """Truncate the membership vector to ``length`` bits."""

    key: Key
    length: int


class DummyInsertOp(NamedTuple):
    """Create the dummy node ``key`` with membership ``bits``."""

    key: Key
    bits: Bits


class DummyRemoveOp(NamedTuple):
    """Destroy the dummy node ``key``."""

    key: Key


class NodeJoinOp(NamedTuple):
    """A peer with ``key`` joins with membership ``bits`` (Section IV-G)."""

    key: Key
    bits: Bits


class NodeLeaveOp(NamedTuple):
    """The peer with ``key`` departs (Section IV-G)."""

    key: Key


LocalOp = Union[
    PromoteOp, DemoteOp, DummyInsertOp, DummyRemoveOp, NodeJoinOp, NodeLeaveOp
]


# ------------------------------------------------------------------ applier
def apply_op(graph: SkipGraph, op: LocalOp) -> None:
    """Apply one local op to ``graph`` (caches are patched incrementally).

    The semantics intentionally mirror what the planners do inline through
    :class:`OpRecorder`, so replaying a recorded sequence on a copy of the
    pre-plan graph reproduces the post-plan graph exactly.  The a-balance
    dirty marks are the graph's own business (:attr:`SkipGraph.tracker
    <repro.skipgraph.skipgraph.SkipGraph.tracker>`): its mutators emit them.
    """
    if type(op) is PromoteOp:
        graph.set_membership(op.key, graph.membership(op.key).with_bit(op.level, op.bit))
    elif type(op) is DemoteOp:
        membership = graph.membership(op.key)
        if len(membership) > op.length:
            graph.set_membership(op.key, membership.truncated(op.length))
    elif type(op) is DummyInsertOp:
        graph.add_node(
            SkipGraphNode(key=op.key, membership=MembershipVector(op.bits), is_dummy=True)
        )
    elif type(op) is NodeJoinOp:
        graph.add_node(SkipGraphNode(key=op.key, membership=MembershipVector(op.bits)))
    elif type(op) is DummyRemoveOp or type(op) is NodeLeaveOp:
        graph.remove_node(op.key)
    else:
        raise TypeError(f"unknown local op {op!r}")


def apply_ops(graph: SkipGraph, ops: Sequence[LocalOp]) -> None:
    """Replay a recorded op sequence onto ``graph``, in order.

    Order matters: a demote must run before the promotes that re-grow the
    vector, and a dummy insertion may name neighbours that a previous op put
    in place.
    """
    for op in ops:
        apply_op(graph, op)


# ------------------------------------------------------------- target sets
def op_levels(graph: SkipGraph, op: LocalOp) -> Tuple[Optional[Bits], Optional[Bits], range, range]:
    """The level lists ``op`` moves its key between, read *before* the op runs.

    Returns ``(old bits, new bits, levels left, levels entered)``: an
    insertion (``old`` is ``None``) enters levels ``0..len(bits)``, a
    departure (``new`` is ``None``) leaves them, and a membership rewrite
    leaves ``keep+1..len(old)`` and enters ``keep+1..len(new)``, where
    ``keep`` is the prefix the two vectors share; the list at level ``l`` is
    the one the first ``l`` bits of the respective vector name.  The one
    place that knows an op's levels: the touched sets below and the live
    link writer (:func:`repro.distributed.routing_protocol.patch_network`)
    both walk this tuple.  An unknown op is a :class:`TypeError`.
    """
    kind = type(op)
    if kind in (DummyInsertOp, NodeJoinOp):
        return None, op.bits, range(0), range(len(op.bits) + 1)
    if kind in (DummyRemoveOp, NodeLeaveOp):
        old = graph.membership(op.key).bits
        return old, None, range(len(old) + 1), range(0)
    if kind in (PromoteOp, DemoteOp):
        old = graph.membership(op.key)
        new = old.with_bit(op.level, op.bit) if kind is PromoteOp else old.truncated(op.length)
        keep = common_prefix_length(old, new)
        return old.bits, new.bits, range(keep + 1, len(old) + 1), range(keep + 1, len(new) + 1)
    raise TypeError(f"unknown local op {op!r}")


def apply_ops_touched(graph: SkipGraph, ops: Sequence[LocalOp]) -> set:
    """Replay a plan onto ``graph`` and return the keys whose links it rewires.

    The spec of a plan's write set, what the pipelined distributed
    driver's conflict detector reads.  Each op contributes its *bounded
    neighbourhood* — the set :func:`repro.distributed.routing_protocol.
    patch_network` reports as affected for it (both walk :func:`op_levels`;
    property-tested equal): its own key plus every list neighbour closed
    over at the levels it leaves (read before the op) or spliced against at
    the levels it enters (read after it).  The driver does not replay: its
    planner's :class:`OpRecorder` collects the same set as it applies the
    plan (``tests/distributed/test_touched_keys.py``).
    """
    touched: set = set()
    neighbors = graph.neighbors
    for op in ops:
        _, _, left, entered = op_levels(graph, op)
        key = op.key
        touched.add(key)
        for level in left:
            touched.update(neighbors(key, level))
        apply_op(graph, op)
        for level in entered:
            touched.update(neighbors(key, level))
    touched.discard(None)  # a list end has no neighbour on that side
    return touched


# --------------------------------------------------------------------- plan
#: ``_new_op(PromoteOp, (key, level, bit))`` is ``PromoteOp(key, level, bit)``
#: without the named tuple's Python-level ``__new__``: a plan expands one op
#: per key of a run, a few hundred thousand per second.
_new_op = tuple.__new__


class Plan(SequenceABC):
    """A recorded local-op plan: a read-only sequence, one record per bulk run.

    A bulk run (a split sublist's promotes, a rebuilt subtree's demotes, a
    notification's dummy removals) is one ``(op kind, start, stop, args)``
    record over the plan's own key list, which holds every run's keys back
    to back (one list, not a tuple per run: CPython keeps freed small
    tuples on per-size free lists); every other op is held as itself.
    Reading expands a run into ``kind(key, *args)`` per key, so iteration,
    ``len``, indexing and ``==`` against a list of ops give exactly the
    sequence a per-key recorder would have appended, and a reader that
    needs only ``len`` expands nothing.  Only the :class:`OpRecorder`
    writing it appends.
    """

    __slots__ = ("_records", "_keys", "_len")

    def __init__(self) -> None:
        self._records: List[Union[LocalOp, tuple]] = []
        self._keys: List[Key] = []
        self._len = 0

    def _add(self, op: LocalOp) -> None:
        self._records.append(op)
        self._len += 1

    def _add_run(self, kind: type, keys: Sequence[Key], *args: int) -> None:
        start = len(self._keys)
        self._keys.extend(keys)
        self._records.append((kind, start, len(self._keys), args))
        self._len += len(keys)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[LocalOp]:
        all_keys = self._keys
        for record in self._records:
            if type(record) is tuple:  # a run; an op's type is its named tuple
                kind, start, stop, args = record
                keys = all_keys[start:stop]
                yield from map(_new_op, repeat(kind), zip(keys, *map(repeat, args)))
            else:
                yield record

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("plan index out of range")
        for record in self._records:
            if type(record) is tuple:
                kind, start, stop, args = record
                if index < stop - start:
                    return _new_op(kind, (self._keys[start + index], *args))
                index -= stop - start
            elif index:
                index -= 1
            else:
                return record

    def __eq__(self, other) -> bool:
        if isinstance(other, (Plan, list)):
            return self._len == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Plan({list(self)!r})"


# ----------------------------------------------------------------- recorder
class OpRecorder:
    """Applies local ops to a graph eagerly while recording the sequence.

    The planners interleave planning reads with structural writes (the next
    split reads the lists the previous split produced), so the centralized
    path cannot plan first and apply later; instead every write goes through
    this recorder, which both mutates the graph and appends the op to
    :attr:`ops` (a :class:`Plan`; ``ops=`` continues a given one) — making
    "the plan" a byproduct of the existing computation at O(1) extra work
    per mutation, with cost accounting untouched.

    The ``promote_run`` / ``demote_run`` / ``remove_run`` bulk methods
    record a run once, as one :class:`Plan` record that reads back as
    exactly the per-key op sequence the singular methods would append, so
    the plan (and therefore the cost accounting and the wire traffic) is
    byte-identical either way; the *application* goes through the skip
    graph's bulk entry points — one list splice per run instead of one
    cache invalidation per op — which raise, graph untouched, when a run
    breaks their precondition.  :attr:`apply_seconds`
    accumulates the wall clock spent inside those bulk splices (the
    "apply" phase of :attr:`DynamicSkipGraph.phase_seconds
    <repro.core.dsg.DynamicSkipGraph.phase_seconds>`).

    With :attr:`touched` set, it collects there, as it applies, what
    :func:`apply_ops_touched` returns for :attr:`ops` on a pre-plan copy: a
    run's union is its keys' neighbours where it ends up (or, leaving, was).
    """

    __slots__ = ("graph", "ops", "apply_seconds", "touched")

    def __init__(self, graph: SkipGraph, ops: Optional[Plan] = None) -> None:
        self.graph = graph
        self.ops: Plan = ops if ops is not None else Plan()
        self.apply_seconds = 0.0
        self.touched: Optional[set] = None

    def _record(self, op: LocalOp) -> None:
        if self.touched is None:
            apply_op(self.graph, op)
        else:  # flanks where the op leaves, before the write; where it enters, after
            old, new, left, entered = op_levels(self.graph, op)
            self._touch_flanks(old, left, (op.key,))
            apply_op(self.graph, op)
            self._touch_flanks(new, entered, (op.key,))
        self.ops._add(op)

    def _touch_flanks(self, bits: Bits, levels: range, keys: Sequence[Key]) -> None:
        """Touch ``keys`` and their list neighbours at ``levels`` of ``bits``."""
        touched = self.touched
        touched.update(keys)
        graph = self.graph
        for level in levels:
            prefix = bits[:level]
            if level and graph.prefix_count(prefix) <= len(keys):
                continue
            members = graph.list_at(level, prefix)
            for key in keys:
                index = bisect_left(members, key)
                if index:
                    touched.add(members[index - 1])
                if index + 1 < len(members):
                    touched.add(members[index + 1])

    def _touch_each(self, keys: Sequence[Key], start: int) -> None:
        """Touch each key and its list neighbours at its levels from ``start`` up."""
        membership = self.graph.membership
        for key in keys:
            bits = membership(key).bits
            self._touch_flanks(bits, range(start, len(bits) + 1), (key,))

    def promote(self, key: Key, level: int, bit: int) -> None:
        self._record(PromoteOp(key, level, bit))

    def demote(self, key: Key, length: int) -> None:
        if len(self.graph.membership(key)) > length:
            self._record(DemoteOp(key, length))

    def promote_run(self, keys: Sequence[Key], level: int, bit: int) -> None:
        """Promote every key of ``keys`` (one split sublist) to ``level``.

        The plan holds the run as one record.  A singleton is one
        :meth:`SkipGraph.set_membership <repro.skipgraph.skipgraph.SkipGraph.set_membership>`
        — exactly what :func:`apply_op` does for a :class:`PromoteOp`,
        without the dispatch.
        """
        graph = self.graph
        touched = self.touched
        if len(keys) > 1:
            began = perf_counter()
            graph.promote_run(keys, level, bit)
            self.apply_seconds += perf_counter() - began
            self.ops._add_run(PromoteOp, keys, level, bit)
            if touched is not None:
                self._touch_flanks(graph.membership(keys[0]).bits, range(level, level + 1), keys)
            return
        for key in keys:
            if touched is None:
                graph.set_membership(key, graph.membership(key).with_bit(level, bit))
                self.ops._add(_new_op(PromoteOp, (key, level, bit)))
            else:
                self._record(PromoteOp(key, level, bit))

    def demote_run(self, keys: Sequence[Key], length: int) -> None:
        """Truncate every key of ``keys`` (one subtree's members) to ``length``."""
        graph = self.graph
        membership = graph.membership
        eligible = [key for key in keys if len(membership(key)) > length]
        if len(eligible) > 1:
            if self.touched is not None:
                self.touched.update(eligible)
                shared = membership(eligible[0]).bits[:length]
                # Unless the run is the whole subtree (it flanks itself):
                if graph.prefix_count(shared + (0,)) + graph.prefix_count(shared + (1,)) > len(eligible):
                    self._touch_each(eligible, length + 1)
            began = perf_counter()
            graph.demote_run(eligible, length)
            self.apply_seconds += perf_counter() - began
            self.ops._add_run(DemoteOp, eligible, length)
            return
        for key in eligible:
            self._record(DemoteOp(key, length))

    def remove_run(self, keys: Sequence[Key]) -> None:
        """Destroy every dummy in ``keys`` (ascending) in one bulk removal."""
        if len(keys) > 1:
            if self.touched is not None:
                self._touch_each(keys, 0)
            began = perf_counter()
            self.graph.remove_run(keys)
            self.apply_seconds += perf_counter() - began
            self.ops._add_run(DummyRemoveOp, keys)
            return
        for key in keys:
            self._record(DummyRemoveOp(key))

    def insert_dummy(self, key: Key, bits: Bits) -> None:
        self._record(DummyInsertOp(key, tuple(bits)))

    def insert_dummy_run(self, entries: Sequence[Tuple[Key, Bits]]) -> None:
        """Insert a batch of dummies (one chain pass or one repair round)."""
        if len(entries) > 1:
            ops = [DummyInsertOp(key, tuple(bits)) for key, bits in entries]
            make_vector = MembershipVector._from_trusted
            nodes = [
                SkipGraphNode(key=op.key, membership=make_vector(op.bits), is_dummy=True)
                for op in ops
            ]
            began = perf_counter()
            self.graph.insert_run(nodes)
            self.apply_seconds += perf_counter() - began
            for op in ops:
                self.ops._add(op)
            if self.touched is not None:
                self._touch_each([op.key for op in ops], 0)
            return
        for key, bits in entries:
            self._record(DummyInsertOp(key, tuple(bits)))

    def remove_dummy(self, key: Key) -> None:
        self._record(DummyRemoveOp(key))

    def join(self, key: Key, bits: Bits) -> None:
        self._record(NodeJoinOp(key, tuple(bits)))

    def leave(self, key: Key) -> None:
        self._record(NodeLeaveOp(key))


# ---------------------------------------------------------------- wire form
#: Numeric op tags used on the wire (one word each).
_OP_TAGS = {
    PromoteOp: 0,
    DemoteOp: 1,
    DummyInsertOp: 2,
    DummyRemoveOp: 3,
    NodeJoinOp: 4,
    NodeLeaveOp: 5,
}


def _encode_bits(bits: Bits) -> Tuple[int, int]:
    """Pack a membership bit string into ``(length, value)`` — two words.

    A membership vector has ``O(log n)`` bits, so the packed value is one
    ``O(log n)``-bit word; the explicit length keeps leading zero bits.
    """
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return len(bits), value


def _decode_bits(length: int, value: int) -> Bits:
    return tuple((value >> (length - 1 - index)) & 1 for index in range(length))


def op_to_payload(op: LocalOp) -> dict:
    """The op as a flat, O(1)-word message payload (see the module docstring)."""
    tag = _OP_TAGS[type(op)]
    if type(op) is PromoteOp:
        return {"t": tag, "k": op.key, "l": op.level, "b": op.bit}
    if type(op) is DemoteOp:
        return {"t": tag, "k": op.key, "l": op.length}
    if type(op) in (DummyInsertOp, NodeJoinOp):
        length, value = _encode_bits(op.bits)
        return {"t": tag, "k": op.key, "l": length, "b": value}
    return {"t": tag, "k": op.key}


def op_from_payload(payload: dict) -> LocalOp:
    """Inverse of :func:`op_to_payload`."""
    tag = payload["t"]
    key = payload["k"]
    if tag == 0:
        return PromoteOp(key, payload["l"], payload["b"])
    if tag == 1:
        return DemoteOp(key, payload["l"])
    if tag == 2:
        return DummyInsertOp(key, _decode_bits(payload["l"], payload["b"]))
    if tag == 3:
        return DummyRemoveOp(key)
    if tag == 4:
        return NodeJoinOp(key, _decode_bits(payload["l"], payload["b"]))
    if tag == 5:
        return NodeLeaveOp(key)
    raise ValueError(f"unknown op tag {tag!r}")


def op_anchor(op: LocalOp, graph: SkipGraph) -> Key:
    """The node that executes ``op`` in the distributed protocol.

    Promote/demote/leave are executed by the node they name; a dummy
    destroys itself on notification (Section IV-F), so the dummy is its own
    anchor; an *insertion* (dummy or joiner) is executed by the key's
    base-list predecessor in ``graph`` — the neighbour that creates the new
    node next to itself (falling back to the successor when the new key
    would become the new minimum).
    """
    if type(op) in (DummyInsertOp, NodeJoinOp):
        keys = graph.keys
        if not keys:
            raise ValueError("cannot anchor an insertion in an empty graph")
        index = bisect_left(keys, op.key)
        return keys[index - 1] if index > 0 else keys[0]
    return op.key


def stale_op_keys(ops: Sequence[LocalOp], dark: Sequence[Key]) -> frozenset:
    """The ops' *subject* keys that are dark — the unsalvageable part of a plan.

    A crash between a plan's route and execute phases invalidates the plan
    in one of two ways, and only one is repairable: a dark *anchor* (the
    base-list predecessor an insertion would execute at crashed) is fixed
    by recomputing :func:`op_anchor` against the repaired graph — the op
    itself is untouched; a dark *subject* (``op.key`` names the crashed
    node: its promote, demote, departure or dummy) cannot be re-aimed at
    anyone else, so a plan containing one must be abandoned rather than
    applied stale.  Returns the offending subjects (empty == re-anchorable).
    """
    dark_set = frozenset(dark)
    return frozenset(op.key for op in ops) & dark_set
