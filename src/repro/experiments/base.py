"""Common experiment result types."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.analysis.tables import Table

__all__ = ["ExperimentResult", "ExperimentSpec"]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes
    ----------
    experiment_id:
        Identifier from the docs/EXPERIMENTS.md index (e.g. ``"E5"``).
    title:
        Human-readable description (which paper artefact is regenerated).
    tables:
        The rows/series the experiment reports.
    checks:
        Named boolean outcomes of the claims the experiment validates
        (e.g. ``{"lemma1_rank_bound": True}``).  ``all_passed`` summarises
        them.
    parameters:
        The parameters the experiment ran with (sizes, seeds, workloads).
    """

    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    parameters: Dict[str, object] = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(self.checks.values()) if self.checks else True

    def render(self) -> str:
        lines = [f"{self.experiment_id}: {self.title}", ""]
        for table in self.tables:
            lines.append(table.render())
            lines.append("")
        if self.checks:
            lines.append("checks:")
            for name, passed in sorted(self.checks.items()):
                lines.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        if self.parameters:
            rendered = ", ".join(f"{key}={value}" for key, value in sorted(self.parameters.items()))
            lines.append(f"parameters: {rendered}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ExperimentSpec:
    """Registry entry: identifier, description and runner."""

    experiment_id: str
    title: str
    paper_artifact: str
    runner: Callable[..., ExperimentResult]
