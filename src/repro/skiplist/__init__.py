"""Skip list substrate.

The paper's AMF algorithm (Section V) builds a *balanced* probabilistic skip
list over the members of a skip graph linked list and reuses that skip list
for several auxiliary computations:

* finding the approximate median priority (Algorithm 2),
* distributed sums (Appendix D) for ``|g_s|``, ``L_low`` and ``L_high``,
* broadcasting new group-ids and the approximate median.

This subpackage provides:

``BalancedSkipList``
    The AMF construction: the left-most node is promoted with probability 1,
    every other node with probability ``1/a``, and the levels are locally
    repaired so that no two consecutive promoted nodes are supported by fewer
    than ``a/2`` or more than ``2a`` nodes.  Round costs of construction,
    broadcast and aggregation are accounted explicitly.
``distributed_sum``
    The Appendix D aggregation over a balanced skip list.
"""

from repro.skiplist.balanced import BalancedSkipList, SupportBounds
from repro.skiplist.distributed_sum import SumResult, distributed_sum

__all__ = [
    "BalancedSkipList",
    "SumResult",
    "SupportBounds",
    "distributed_sum",
]
