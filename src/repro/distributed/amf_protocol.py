"""Message-level AMF (Algorithm 2) over the balanced skip list's segment tree.

Every node starts with its own value.  Values travel towards the root one
per message per round (CONGEST): a node streams its current entries to its
parent, ends with a ``flush`` marker, and a parent only starts streaming
upward after every child has flushed.  A node whose top level ``T`` has
``T + 1 >= sampling_start`` then sorts what it received, keeps a uniform
sample of ``a * h`` entries and folds the discarded mass into rank weights.
The root picks the entry whose accounted rank is closest to the middle and
broadcasts it back down.  The sampling plan, the sampler and the pick are
:mod:`repro.core.amf`'s own (:func:`~repro.core.amf.sampling_plan`,
``_sample``, ``_pick_median``), but the schedule is not the structural
gather's: a node samples once, after all its children flushed, where the
structural gather samples again at every level, and it starts one level
lower.  The two therefore pick different medians on most inputs; both
satisfy Lemma 1 (row 9 of docs/DEVIATIONS.md).

:func:`run_amf_protocol` returns the median, ``n`` and the run's
``metrics`` (the engine's :class:`~repro.simulation.MetricsCollector`).

Each ``entry`` message carries a value and a weight (two words); ``flush``
and ``median`` carry one word — all well within the CONGEST budget, which
experiment E11 verifies by inspecting the recorded message sizes.

Processes are active only while they stream (one entry per round towards
the parent); waiting for children's flushes or for the median broadcast is
passive and message-driven, so the engine's active set follows the
streaming frontier instead of the whole population — at 4096 leaves the
run costs O(total messages) process invocations, which is what makes the
protocol measurable at benchmark scale (E6/E11 arenas).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from repro.core.amf import _pick_median, _sample, rank_interval, sampling_plan
from repro.distributed.sum_protocol import _require_values, segment_network, segment_tree
from repro.simulation import Message, NodeProcess, RoundContext, Simulator, SimulatorConfig
from repro.simulation.metrics import MetricsCollector
from repro.simulation.rng import make_rng
from repro.skiplist.balanced import BalancedSkipList

__all__ = ["AMFProtocolResult", "install_amf", "run_amf_protocol"]

Key = Hashable
Entry = Tuple[float, int]  # (value, weight of discarded values at or below it)


@dataclass
class AMFProtocolResult:
    """Outcome of one message-level AMF execution; ``metrics`` holds the run's traffic."""

    median: float
    n: int
    metrics: MetricsCollector

    def satisfies_lemma1(self, values: List[float], a: int) -> bool:
        low, high = rank_interval(values, self.median)
        slack = self.n / (2 * a)
        return not (high < self.n / 2 - slack or low > self.n / 2 + slack)


class _AMFProcess(NodeProcess):
    def __init__(
        self,
        key: Key,
        value: float,
        parent: Optional[Key],
        children: List[Key],
        sample: bool,
        sample_size: int,
    ) -> None:
        super().__init__(key)
        self.parent = parent
        self.children = list(children)
        self.pending = set(children)
        self.entries: List[Entry] = [(float(value), 0)]
        self.sample = sample
        self.sample_size = sample_size
        self.outbox: List[Entry] = []
        self.streaming = False
        self.flushed = False
        self.median: Optional[float] = None
        self.done = True  # passive until children report or streaming begins

    def memory_words(self) -> int:
        return 4 + 2 * max(len(self.entries), len(self.outbox)) + len(self.children)

    # The streaming discipline: once all children flushed, move the local
    # entries (sampled if required) to the outbox and send one per round.
    def _start_streaming_if_ready(self) -> None:
        if self.pending or self.streaming:
            return
        self.streaming = True
        # Sorted by (value, weight), here and again at the root (the folded
        # weights can reorder equal values): the core helpers sort by value
        # alone, stably, so they keep this order among equal values.
        entries = sorted(self.entries)
        if self.sample:
            entries = _sample(entries, self.sample_size)
        if self.parent is None:
            self.median = _pick_median(sorted(entries))[0]
        else:
            self.outbox = entries

    def _stream_one(self, ctx: RoundContext) -> None:
        if self.parent is None or not self.streaming or self.flushed:
            return
        if self.outbox:
            value, weight = self.outbox.pop(0)
            ctx.send(self.parent, "entry", [value, weight])
        else:
            # Everything sent: emit the flush marker exactly once.
            ctx.send(self.parent, "flush", None)
            self.flushed = True

    def _broadcast_median_if_known(self, ctx: RoundContext) -> None:
        if self.median is None:
            return
        for child in self.children:
            ctx.send(child, "median", self.median)

    def _refresh_done(self) -> None:
        # Active only while entries (or the flush marker) remain to stream;
        # every other state is woken by message delivery.
        self.done = not (self.streaming and not self.flushed and self.parent is not None)

    def on_start(self, ctx: RoundContext) -> None:
        self._start_streaming_if_ready()  # leaves begin immediately
        self._stream_one(ctx)
        self._broadcast_median_if_known(ctx)  # degenerate single-node tree
        self._refresh_done()

    def on_round(self, ctx: RoundContext, inbox: List[Message]) -> None:
        heard_median = False
        for message in inbox:
            if message.kind == "entry":
                value, weight = message.payload
                self.entries.append((float(value), int(weight)))
            elif message.kind == "flush":
                self.pending.discard(message.sender)
            elif message.kind == "median":
                self.median = message.payload
                heard_median = True
        had_median = self.median is not None and not heard_median
        self._start_streaming_if_ready()
        self._stream_one(ctx)
        if self.median is not None and not had_median:
            # The median became known this round (computed at the root or
            # received from the parent): broadcast it downward exactly once.
            self._broadcast_median_if_known(ctx)
        self._refresh_done()


def install_amf(
    simulator: Simulator,
    skiplist: BalancedSkipList,
    values: Mapping[Key, float],
    a: int = 4,
) -> Dict[Key, _AMFProcess]:
    """Register AMF processes over ``skiplist``'s segment tree.

    The simulator's network must contain the segment links
    (:func:`repro.distributed.sum_protocol.segment_network`); on a reused
    engine, retire the previous generation first.
    """
    _require_values(skiplist, values)
    sample_size, sampling_start = sampling_plan(skiplist.height, a)
    parents, children, top = segment_tree(skiplist)
    processes: Dict[Key, _AMFProcess] = {}
    for item in skiplist.levels[0]:
        # A node samples when it aggregates at or above the sampling level.
        aggregates_at = top[item] + 1
        process = _AMFProcess(
            key=item,
            value=values[item],
            parent=parents[item],
            children=children[item],
            sample=aggregates_at >= sampling_start,
            sample_size=sample_size,
        )
        processes[item] = process
        simulator.add_process(process)
    return processes


def run_amf_protocol(
    values: Mapping[Key, float],
    a: int = 4,
    seed: Optional[int] = None,
) -> AMFProtocolResult:
    """Run the message-level AMF over ``values`` (list order = iteration order)."""
    items = list(values.keys())
    if len(items) < 2:
        raise ValueError("the protocol needs at least two values")

    skiplist = BalancedSkipList(items, a=a, rng=make_rng(seed))
    network = segment_network(skiplist)
    simulator = Simulator(
        network,
        SimulatorConfig(seed=seed, max_rounds=50 * skiplist.height + 20 * len(items) + 100),
    )
    processes = install_amf(simulator, skiplist, values, a=a)
    metrics = simulator.run()

    median = processes[skiplist.root].median
    return AMFProtocolResult(float(median if median is not None else 0.0), len(items), metrics)
