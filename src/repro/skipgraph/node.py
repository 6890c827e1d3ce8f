"""Skip graph nodes.

A :class:`SkipGraphNode` is a peer with a totally ordered ``key`` (the paper
calls keys *identifiers*), a membership vector, and an optional application
payload.  Dummy nodes (Section IV-F of the paper) are marked with
``is_dummy=True``: they carry no data, participate in routing only, and are
destroyed when they receive a transformation notification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.skipgraph.membership import MembershipVector

__all__ = ["SkipGraphNode"]

Key = Any  # totally ordered; integers in all experiments


@dataclass
class SkipGraphNode:
    """One peer of the skip graph.

    Attributes
    ----------
    key:
        Totally ordered identifier; determines the position in every level
        linked list.
    membership:
        The node's membership vector (see :mod:`repro.skipgraph.membership`).
    payload:
        Arbitrary application data carried by the node (unused by the
        algorithms, present for the examples).
    is_dummy:
        ``True`` for the logical dummy nodes DSG inserts to preserve the
        a-balance property (paper, Section IV-F).
    """

    key: Key
    membership: MembershipVector = field(default_factory=MembershipVector)
    payload: Any = None
    is_dummy: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.membership, MembershipVector):
            self.membership = MembershipVector(self.membership)

    # ------------------------------------------------------------------ bits
    def bit(self, level: int) -> int:
        return self.membership.bit(level)

    # -------------------------------------------------------------- protocol
    def __lt__(self, other: "SkipGraphNode") -> bool:
        return self.key < other.key

    def __repr__(self) -> str:
        flag = ", dummy" if self.is_dummy else ""
        return f"SkipGraphNode(key={self.key!r}, m='{self.membership}'{flag})"
