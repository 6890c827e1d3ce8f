"""Comparison baselines and the unified algorithm adapter.

The paper evaluates DSG analytically against the class of algorithms that
conform to its self-adjusting model (Theorem 1's working-set lower bound).
For the empirical comparison (experiment E9) this subpackage provides the
comparators the paper positions itself against:

``StaticSkipGraphBaseline``
    A standard skip graph (random or balanced membership vectors) that never
    adjusts — the "worst-case optimised, oblivious to skew" design DSG
    improves on.
``OfflineStaticBaseline``
    The best *static* skip graph built with full knowledge of the request
    frequencies (recursive balanced min-cut partitioning of the
    communication graph).  An upper bound on what any static topology can
    achieve, hence a strong yardstick for the benefit of self-adjustment.
``SplayNetBaseline``
    SplayNet (Avin et al. 2013), the self-adjusting binary search tree
    network the paper cites as the closest prior work.
``DirectLinkOracle``
    The trivial per-request lower bound of the model: every pair is already
    adjacent (routing distance 0), i.e. cost 1 per request.

All of them — and DSG itself, through :class:`DSGAdapter` — implement the
:class:`ServingAlgorithm` protocol (:mod:`repro.baselines.adapter`):
``request`` for traffic, ``join``/``leave`` for membership churn
(Section IV-G), ``serve(requests)`` returning a :class:`BaselineRun` for
plain sequences, and O(1) streaming cost counters.  The scenario runner
(:func:`repro.workloads.scenarios.run_scenario`) drives any of them through
any event schedule interchangeably; see ``docs/BASELINES.md``.
"""

from repro.baselines.base import BaselineRun, RequestCost
from repro.baselines.adapter import DSGAdapter, ServingAlgorithm, make_comparison_algorithms
from repro.baselines.static_skipgraph import StaticSkipGraphBaseline
from repro.baselines.offline_static import OfflineStaticBaseline
from repro.baselines.splaynet import SplayNetBaseline
from repro.baselines.oracle import DirectLinkOracle

__all__ = [
    "BaselineRun",
    "DSGAdapter",
    "DirectLinkOracle",
    "OfflineStaticBaseline",
    "RequestCost",
    "ServingAlgorithm",
    "SplayNetBaseline",
    "StaticSkipGraphBaseline",
    "make_comparison_algorithms",
]
