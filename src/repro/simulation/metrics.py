"""Metrics collection for simulation runs.

Experiment E11 (CONGEST conformance) and the round-cost calibration of the
structural DSG engine both rely on the counters gathered here:

* number of rounds executed,
* number of messages delivered and their total size in bits,
* maximum message size in bits (to compare against ``c * log2 n``),
* CONGEST violations (more than one message on a directed link in a round),
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

The collector keeps run totals only, so its size does not grow with the
number of rounds.  A reused engine (churn arenas restart protocols on the
same simulator) gives each protocol execution its own counters through
:meth:`~repro.simulation.engine.Simulator.reset_metrics`, which installs a
fresh collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable

__all__ = ["MetricsCollector"]


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
    peak_memory_words: Dict[Hashable, int] = field(default_factory=dict)

    def record_round(self) -> None:
        self.rounds += 1

    def record_message(self, size_bits: int) -> None:
        self.messages += 1
        self.total_bits += size_bits
        self.max_message_bits = max(self.max_message_bits, size_bits)

    def record_congestion(self) -> None:
        self.congestion_violations += 1

    def record_drop(self) -> None:
        self.dropped_messages += 1

    def record_failure(self, count: int = 1) -> None:
        """Record ``count`` failed requests (protocol-level, not per message)."""
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
