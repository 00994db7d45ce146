"""Experiment E1: regenerate Table I.

For every RevLib benchmark: circuit depth (original vs obfuscated),
gate count (original vs obfuscated, iteration-averaged), gate change
percentage, noisy accuracy of the original compiled circuit, accuracy
after split compilation + restoration, and the accuracy change — the
averages of 20 iterations at 1000 shots, exactly the procedure of
Sec. V.

The experiment is a :mod:`repro.experiments.framework` spec: one grid
cell per (benchmark, iteration), each with its own
positionally spawned seed, so checkpointed, resumed, sharded and
parallel runs are all bit-identical to a sequential run for a fixed
seed.

Run with ``repro experiment run table1``.

Absolute accuracies depend on the noise calibration (ours is
representative rather than the authors' 2021 snapshot — see DESIGN.md);
the claims checked by the benches are the paper's structural ones:
zero depth increase, ~20% average gate increase from 1–4 inserted
gates, and accuracy change below ~1–2%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..core.pipeline import EvaluationResult, evaluate_iteration
from ..revlib.benchmarks import TABLE1_PAPER_VALUES, load_benchmark, paper_suite
from .framework import Cell, ExperimentSpec

__all__ = ["AggregateResult", "render_table1", "TABLE1_SPEC"]

_COLUMNS = [
    ("Circuit", "name", "s"),
    ("Depth", "depth", ".0f"),
    ("DepthObf", "depth_obfuscated", ".0f"),
    ("Gates", "gates", ".0f"),
    ("GatesObf", "gates_obfuscated", ".1f"),
    ("Gate+%", "gate_change_pct", ".1f"),
    ("Acc", "accuracy", ".3f"),
    ("AccRest", "accuracy_restored", ".3f"),
    ("AccΔ%", "accuracy_change_pct", ".2f"),
]


@dataclass
class AggregateResult:
    """Iteration-averaged metrics for one benchmark (one Table I row)."""

    name: str
    iterations: List[EvaluationResult] = field(default_factory=list)

    def _mean(self, attr: str) -> float:
        return float(
            np.mean([getattr(it, attr) for it in self.iterations])
        )

    def _values(self, attr: str) -> List[float]:
        return [float(getattr(it, attr)) for it in self.iterations]

    # -- Table I columns --------------------------------------------------
    @property
    def depth(self) -> float:
        return self._mean("depth_original")

    @property
    def depth_obfuscated(self) -> float:
        return self._mean("depth_obfuscated")

    @property
    def gates(self) -> float:
        return self._mean("gates_original")

    @property
    def gates_obfuscated(self) -> float:
        return self._mean("gates_obfuscated")

    @property
    def gate_change_pct(self) -> float:
        return self._mean("gate_change_pct")

    @property
    def accuracy(self) -> float:
        return self._mean("accuracy_original")

    @property
    def accuracy_restored(self) -> float:
        return self._mean("accuracy_restored")

    @property
    def accuracy_change_pct(self) -> float:
        return 100.0 * self._mean("accuracy_change")

    # -- Figure 4 series ---------------------------------------------------
    @property
    def tvd_obfuscated_values(self) -> List[float]:
        return self._values("tvd_obfuscated")

    @property
    def tvd_restored_values(self) -> List[float]:
        return self._values("tvd_restored")

    @property
    def depth_always_preserved(self) -> bool:
        return all(it.depth_preserved for it in self.iterations)


# ---------------------------------------------------------------------------
# framework spec
# ---------------------------------------------------------------------------

def _suite_names(config: Dict[str, Any]) -> List[str]:
    names = [record.name for record in paper_suite()]
    subset = config.get("benchmarks")
    if subset:
        unknown = sorted(set(subset) - set(names))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"available: {names}"
            )
        names = [name for name in names if name in set(subset)]
    return names


def table_cells(config: Dict[str, Any]) -> List[Cell]:
    """(benchmark, iteration) grid, benchmark-major in suite order.

    The order decides which positional seed each evaluation gets, so
    it is part of the results: a benchmark subset is always expanded
    in :func:`~repro.revlib.benchmarks.paper_suite` order, whatever
    order the caller listed it in.
    """
    return [
        Cell(f"{name}/{iteration}",
             {"benchmark": name, "iteration": iteration})
        for name in _suite_names(config)
        for iteration in range(int(config["iterations"]))
    ]


def table_task(
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> EvaluationResult:
    """One pipeline evaluation — pure and picklable."""
    record = load_benchmark(cell.params["benchmark"])
    return evaluate_iteration(
        record.circuit(),
        record.name,
        record.output_qubits,
        shots=int(config["shots"]),
        gate_limit=int(config["gate_limit"]),
        seed=seed,
    )


def aggregate_table(
    config: Dict[str, Any], results: Dict[str, Any]
) -> Dict[str, AggregateResult]:
    """Group per-cell evaluations back into Table I rows (suite order)."""
    iterations = int(config["iterations"])
    return {
        name: AggregateResult(
            name,
            [results[f"{name}/{i}"] for i in range(iterations)],
        )
        for name in _suite_names(config)
    }


TABLE1_SPEC = ExperimentSpec(
    name="table1",
    description="Table I: depth/gate overhead + noisy accuracy per "
    "RevLib benchmark (Sec. V)",
    defaults={
        "iterations": 20,
        "shots": 1000,
        "seed": 2025,
        "gate_limit": 4,
        "benchmarks": None,
    },
    make_cells=table_cells,
    task=table_task,
    aggregate=aggregate_table,
    render=lambda results: render_table1(results),
    encode=lambda result: result.to_dict(),
    decode=EvaluationResult.from_dict,
)


def render_table1(
    results: Dict[str, AggregateResult], show_paper: bool = True
) -> str:
    """Format results (and the paper's reference values) as text."""
    header = " | ".join(f"{title:>9}" for title, _, _ in _COLUMNS)
    lines = [header, "-" * len(header)]
    for name, agg in results.items():
        cells: List[str] = []
        for title, attr, fmt in _COLUMNS:
            value = getattr(agg, attr)
            cells.append(f"{value:>9{fmt}}" if fmt != "s" else f"{value:>9s}")
        lines.append(" | ".join(cells))
        if show_paper and name in TABLE1_PAPER_VALUES:
            paper = TABLE1_PAPER_VALUES[name]
            ref = (
                f"{'(paper)':>9} | {paper['depth']:>9.0f} | "
                f"{paper['depth_obf']:>9.0f} | {paper['gates']:>9.0f} | "
                f"{paper['gates_obf']:>9.1f} | "
                f"{paper['gate_change_pct']:>9.1f} | "
                f"{paper['accuracy']:>9.3f} | "
                f"{paper['accuracy_restored']:>9.3f} | "
                f"{paper['accuracy_change_pct']:>9.2f}"
            )
            lines.append(ref)
    return "\n".join(lines)
