"""One Table I cell and the iteration average over a benchmark's cells.

:func:`_evaluate_record` runs one pipeline iteration as a pure function
of ``(record, shots, gate_limit, seed)`` — the task behind the
``table1`` and ``figure4`` framework specs, which spawn one
:class:`numpy.random.SeedSequence` child per (benchmark, iteration)
cell.  :class:`AggregateResult` averages a benchmark's cells into one
Table I row and one set of Figure 4 series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..core.pipeline import EvaluationResult, TetrisLockPipeline
from ..revlib.benchmarks import BenchmarkRecord

__all__ = ["AggregateResult"]


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


def _evaluate_record(
    record: BenchmarkRecord,
    shots: int,
    gate_limit: int,
    seed: np.random.SeedSequence,
) -> EvaluationResult:
    """One pipeline iteration — a pure function of its arguments.

    Module-level (not a closure) so process-pool workers can pickle it.
    """
    pipeline = TetrisLockPipeline(
        shots=shots,
        gate_limit=gate_limit,
        seed=np.random.default_rng(seed),
    )
    return pipeline.evaluate(
        record.circuit(),
        name=record.name,
        output_qubits=record.output_qubits,
    )
