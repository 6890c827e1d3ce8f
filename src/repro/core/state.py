"""Per-node DSG state (paper, Section IV-B).

    "DSG requires every node to hold H_t bits to store its membership
    vector.  In addition, each node stores a timestamp and a group-id for
    each of the levels. [...] Initially, all timestamps are set to zero and
    all group-ids are set to the corresponding node's identifier."

Each node also holds one *is-dominating-group* boolean per level
(Section IV-C, Case 2) and a single *group-base* integer (Appendix C).  All
of this is ``O(log n)`` words, i.e. ``O(log² n)`` bits — the paper states
``O(log n)`` bits per *variable*; the memory audit in experiment E11 reports
words per node so either reading can be checked.

Levels are indexed as in the paper: index ``d`` refers to the linked list at
level ``d``; timestamps/group-ids exist for ``d = 0 .. H_t``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Hashable, List

__all__ = ["DSGNodeState", "default_uid"]

Key = Hashable


def default_uid(key: Key) -> int:
    """Deterministic positive numeric identifier for ``key``.

    The value plays the role of the node's "ip address" in the paper's
    priority rule P3; it only needs to be a positive integer that is stable
    across runs and uncorrelated with the key order.
    """
    return (zlib.crc32(repr(key).encode("utf-8")) & 0x7FFFFFFF) or 1


@dataclass
class DSGNodeState:
    """Timestamps, group-ids, dominating flags and group-base of one node.

    ``uid`` is the node's *numeric identifier* used as a group-id by the
    priority rules ("group identifiers are non-negative integers (possibly
    an ip address of a node)", Section IV-C).  It is deliberately distinct
    from — and uncorrelated with — the routing ``key``: rule P3 orders
    non-communicating nodes by group-id, so a group-id that followed key
    order would make every split key-contiguous and flood the structure with
    dummy nodes (see docs/DEVIATIONS.md, row 5).
    """

    key: Key
    #: Numeric identifier used as the node's default group-id (positive int).
    uid: int = 0
    #: ``T^x_d`` — timestamp of the node for level ``d``.
    timestamps: Dict[int, int] = field(default_factory=dict)
    #: ``G^x_d`` — group-id of the node for level ``d``.
    group_ids: Dict[int, Key] = field(default_factory=dict)
    #: ``D^x_d`` — is-dominating-group flag of the node for level ``d``.
    dominating: Dict[int, bool] = field(default_factory=dict)
    #: ``B_x`` — the group-base: highest level at which the node belongs to
    #: its biggest group.
    group_base: int = 0

    def __post_init__(self) -> None:
        if not self.uid:
            self.uid = default_uid(self.key)

    # ------------------------------------------------------------- accessors
    def timestamp(self, level: int) -> int:
        """``T^x_level`` (0 when never set, as per the initialisation rule)."""
        return self.timestamps.get(level, 0)

    def set_timestamp(self, level: int, value: int) -> None:
        self.timestamps[level] = value

    def group_id(self, level: int) -> Key:
        """``G^x_level`` (defaults to the node's numeric identifier)."""
        return self.group_ids.get(level, self.uid)

    def set_group_id(self, level: int, value: Key) -> None:
        self.group_ids[level] = value

    def is_dominating(self, level: int) -> bool:
        """``D^x_level`` (defaults to ``False``)."""
        return self.dominating.get(level, False)

    def set_dominating(self, level: int, value: bool) -> None:
        self.dominating[level] = value

    # ------------------------------------------------------------ bookkeeping
    def reset(self) -> None:
        """Back to the initial state (all zeros / own identifier)."""
        self.timestamps.clear()
        self.group_ids.clear()
        self.dominating.clear()
        self.group_base = 0

    def memory_words(self, height: int) -> int:
        """Number of machine words the state occupies for a given height.

        One word per level for each of timestamp, group-id and dominating
        flag, plus the group-base and the key itself.  Used by the E11
        memory audit.
        """
        return 3 * (height + 1) + 2

    def snapshot(self, height: int) -> Dict[str, List]:
        """Plain-data view of the state up to ``height`` (for tests/display)."""
        return {
            "timestamps": [self.timestamp(level) for level in range(height + 1)],
            "group_ids": [self.group_id(level) for level in range(height + 1)],
            "dominating": [self.is_dominating(level) for level in range(height + 1)],
            "group_base": self.group_base,
        }
