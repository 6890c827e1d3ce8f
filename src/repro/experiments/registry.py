"""Registry of all experiments (the docs/EXPERIMENTS.md index, E1-E12)."""

from __future__ import annotations

from typing import Dict

from repro.experiments import (
    e01_structure,
    e02_working_set,
    e03_ws_bound,
    e04_fig4,
    e05_amf_accuracy,
    e06_amf_rounds,
    e07_height_bounds,
    e08_ws_property,
    e09_comparison,
    e10_dummy_abalance,
    e11_congest,
    e12_sum_groups,
)
from repro.experiments.base import ExperimentResult, ExperimentSpec

__all__ = ["EXPERIMENTS", "get_experiment", "run_experiment"]

EXPERIMENTS: Dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec("E1", "Skip graph structure and tree view", "Fig. 1", e01_structure.run),
    "E2": ExperimentSpec("E2", "Working set number", "Fig. 2", e02_working_set.run),
    "E3": ExperimentSpec("E3", "Working set lower bound", "Fig. 3, Theorem 1", e03_ws_bound.run),
    "E4": ExperimentSpec("E4", "S8 -> S9 transformation", "Fig. 4", e04_fig4.run),
    "E5": ExperimentSpec("E5", "AMF rank accuracy", "Lemma 1", e05_amf_accuracy.run),
    "E6": ExperimentSpec("E6", "AMF round complexity", "Section V, Theorem 3", e06_amf_rounds.run),
    "E7": ExperimentSpec("E7", "Height bounds under adjustment", "Lemmas 4-5", e07_height_bounds.run),
    "E8": ExperimentSpec("E8", "Working set property", "Theorem 2", e08_ws_property.run),
    "E9": ExperimentSpec("E9", "DSG vs baselines vs WS bound", "Theorems 4-5", e09_comparison.run),
    "E10": ExperimentSpec("E10", "Dummy nodes and a-balance", "Section IV-F", e10_dummy_abalance.run),
    "E11": ExperimentSpec("E11", "CONGEST conformance and memory", "Section III (model)", e11_congest.run),
    "E12": ExperimentSpec("E12", "Distributed sum and group bookkeeping", "Appendices C-D", e12_sum_groups.run),
}


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by its (case-insensitive) identifier."""
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {experiment_id!r}; available: {sorted(EXPERIMENTS)}")
    return EXPERIMENTS[key]


def run_experiment(experiment_id: str, **params) -> ExperimentResult:
    """Run one experiment with optional parameter overrides."""
    return get_experiment(experiment_id).runner(**params)
