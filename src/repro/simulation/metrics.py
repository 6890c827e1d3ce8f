"""Metrics collection for simulation runs.

Experiment E11 (CONGEST conformance) and the round-cost calibration of the
structural DSG engine both rely on the counters gathered here:

* number of rounds executed,
* number of messages delivered, total and per round,
* maximum message size in bits (to compare against ``c * log2 n``),
* per-link per-round usage (to detect CONGEST violations),
* dropped messages (sends over missing links in lenient mode, links removed
  while a message was in flight, deliveries to departed nodes) — kept
  *separate* from congestion violations so E11's "violations must be zero"
  check is not corrupted by churn-induced drops,
* failed requests (protocol-level outcomes reported through
  :meth:`~repro.simulation.node_process.RoundContext.report_failure`: a
  route that can make no progress because every remaining hop is dark, or
  whose destination crashed) — a *third* counter, distinct from drops: a
  drop is one lost message, a failure is one lost request, and the failure
  arena (``bench_e16_failures``) reports delivered-vs-failed from it,
* per-node peak memory estimate in words (as reported by processes).

A single :class:`MetricsCollector` can span several protocol executions on
a reused engine (churn arenas restart protocols on the same simulator);
:meth:`MetricsCollector.window` reports the counters of the rounds since a
checkpoint so each execution gets its own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List

__all__ = ["MetricsCollector", "RoundStats"]


@dataclass
class RoundStats:
    """Per-round aggregate counters."""

    round_index: int
    messages: int = 0
    bits: int = 0
    max_message_bits: int = 0
    congestion_violations: int = 0
    dropped_messages: int = 0
    failed_requests: int = 0


@dataclass
class MetricsCollector:
    """Accumulates counters across a simulation run."""

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    congestion_violations: int = 0
    dropped_messages: int = 0
    failed_requests: int = 0
    per_round: List[RoundStats] = field(default_factory=list)
    peak_memory_words: Dict[Hashable, int] = field(default_factory=dict)

    def start_round(self, round_index: int) -> RoundStats:
        stats = RoundStats(round_index=round_index)
        self.per_round.append(stats)
        self.rounds = round_index + 1
        return stats

    def record_message(self, stats: RoundStats, size_bits: int) -> None:
        stats.messages += 1
        stats.bits += size_bits
        stats.max_message_bits = max(stats.max_message_bits, size_bits)
        self.messages += 1
        self.total_bits += size_bits
        self.max_message_bits = max(self.max_message_bits, size_bits)

    def record_congestion(self, stats: RoundStats, count: int = 1) -> None:
        stats.congestion_violations += count
        self.congestion_violations += count

    def record_drop(self, stats: "RoundStats | None", count: int = 1) -> None:
        """Record ``count`` dropped messages.

        ``stats`` may be ``None`` for drops that happen before the first
        round starts (a lenient-mode send over a missing link during
        ``on_start``); such drops are still counted in the run totals.
        """
        if stats is not None:
            stats.dropped_messages += count
        self.dropped_messages += count

    def record_failure(self, stats: "RoundStats | None", count: int = 1) -> None:
        """Record ``count`` failed requests (protocol-level, not per message).

        Like :meth:`record_drop`, ``stats`` may be ``None`` for failures
        reported outside a running round (a request whose destination is
        already known-crashed at initiation time).
        """
        if stats is not None:
            stats.failed_requests += count
        self.failed_requests += count

    def record_memory(self, node: Hashable, words: int) -> None:
        current = self.peak_memory_words.get(node, 0)
        if words > current:
            self.peak_memory_words[node] = words

    # ------------------------------------------------------------------ query
    @property
    def max_memory_words(self) -> int:
        if not self.peak_memory_words:
            return 0
        return max(self.peak_memory_words.values())

    def summary(self) -> Dict[str, int]:
        """Plain-dict summary, keyed by the collector's attribute names."""
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "congestion_violations": self.congestion_violations,
            "dropped_messages": self.dropped_messages,
            "failed_requests": self.failed_requests,
            "max_memory_words": self.max_memory_words,
        }

    def window(self, start_round: int) -> Dict[str, int]:
        """Counters restricted to the rounds at or after ``start_round``.

        Protocol executions on a *reused* engine (the churn arenas restart a
        protocol on the same simulator after applying joins/leaves) call
        this with the engine's round at install time, so every execution
        reports only its own rounds/messages/bits/violations/drops.
        """
        rounds = [stats for stats in self.per_round if stats.round_index >= start_round]
        return {
            "rounds": len(rounds),
            "messages": sum(stats.messages for stats in rounds),
            "total_bits": sum(stats.bits for stats in rounds),
            "max_message_bits": max((stats.max_message_bits for stats in rounds), default=0),
            "congestion_violations": sum(stats.congestion_violations for stats in rounds),
            "dropped_messages": sum(stats.dropped_messages for stats in rounds),
            "failed_requests": sum(stats.failed_requests for stats in rounds),
        }
