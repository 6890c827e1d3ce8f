"""Experiment harness: one module per reproduced figure/claim (E1-E13).

The paper has no empirical tables; the experiments regenerate its worked
figures and empirically validate each lemma/theorem (see DESIGN.md for the
index and EXPERIMENTS.md for recorded outcomes); E13 additionally validates
the reproduction's own scale machinery (routing fast path, incremental
working-set counters, churn).  Every experiment returns
an :class:`ExperimentResult` holding one or more
:class:`repro.analysis.Table` objects plus a dictionary of named boolean
*checks* (the claims the experiment verifies).  The CLI
(``dsg-experiments``) and the pytest-benchmark targets both go through
:func:`run_experiment`.
"""

from repro.experiments.base import ExperimentResult, ExperimentSpec
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "ExperimentSpec",
    "get_experiment",
    "run_experiment",
]
