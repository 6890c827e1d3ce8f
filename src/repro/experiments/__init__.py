"""Experiment harness: one module per reproduced figure/claim (E1-E12).

The paper has no empirical tables; the experiments regenerate its worked
figures and empirically validate each lemma/theorem (see docs/EXPERIMENTS.md
for the index and the recorded outcomes).  Every experiment returns
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
