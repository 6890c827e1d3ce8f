"""The paper's core contribution: DSG and its supporting machinery.

Modules
-------
``amf``
    Approximate Median Finding (Section V, Algorithm 2, Lemma 1).
``working_set``
    Communication graphs, working set number / property / bound
    (Section III definitions, Theorem 1).
``state``
    Per-node DSG state: timestamps, group-ids, is-dominating-group flags and
    group-bases (Section IV-B).
``priorities``
    Priority rules P1-P4 (Section IV-C).
``groups``
    Group merge, group-id reassignment and group-base maintenance
    (Sections IV-D and Appendix C).
``timestamps``
    Timestamp rules T1-T6 (Section IV-E).
``transformation``
    The level-by-level topology transformation (Section IV-C: Case 1,
    Case 2 with the 1/3-2/3 split rules) and dummy-node placement
    (Section IV-F).
``costs``
    Equation-1 accounting: :class:`RequestCost` per request and the one
    :class:`CostLedger` every layer adds totals up in.
``dsg``
    The :class:`DynamicSkipGraph` front end (Algorithm 1): route, transform,
    account costs.
"""

from repro.core.amf import AMFResult, approximate_median, exact_median, rank_interval
from repro.core.costs import CostLedger, RequestCost
from repro.core.working_set import (
    CommunicationHistory,
    working_set_bound,
    working_set_number,
)
from repro.core.state import DSGNodeState
from repro.core.dsg import DSGConfig, DynamicSkipGraph, RequestResult

__all__ = [
    "AMFResult",
    "CommunicationHistory",
    "CostLedger",
    "DSGConfig",
    "DSGNodeState",
    "DynamicSkipGraph",
    "RequestCost",
    "RequestResult",
    "approximate_median",
    "exact_median",
    "rank_interval",
    "working_set_bound",
    "working_set_number",
]
