"""Shared experiment runner: iterate the pipeline over benchmarks.

Every (benchmark, iteration) cell is an independent task seeded from
its own :class:`numpy.random.SeedSequence` child, so a suite run is
deterministic for a fixed seed **regardless of how many workers
execute it** — ``run_suite(..., jobs=4)`` returns bit-identical
aggregates to the sequential run.  Parallelism uses
``concurrent.futures``; tasks are pure functions of
``(record, shots, gate_limit, seed)``, which keeps them picklable for
the process pool.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.pipeline import EvaluationResult, TetrisLockPipeline
from ..revlib.benchmarks import BenchmarkRecord, paper_suite

__all__ = ["AggregateResult", "run_suite", "run_benchmark"]


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
    split_jobs: int = 1,
    transpile_cache: bool = True,
    chunk_size=None,
) -> EvaluationResult:
    """One pipeline iteration — a pure function of its arguments.

    Module-level (not a closure) so the process pool can pickle it.
    """
    pipeline = TetrisLockPipeline(
        shots=shots,
        gate_limit=gate_limit,
        seed=np.random.default_rng(seed),
        split_jobs=split_jobs,
        use_transpile_cache=transpile_cache,
        chunk_size=chunk_size,
    )
    return pipeline.evaluate(
        record.circuit(),
        name=record.name,
        output_qubits=record.output_qubits,
    )


def run_suite(
    records: Optional[Sequence[BenchmarkRecord]] = None,
    iterations: int = 20,
    shots: int = 1000,
    seed: Optional[int] = None,
    gate_limit: int = 4,
    jobs: int = 1,
    split_jobs: int = 1,
    transpile_cache: bool = True,
    chunk_size: Optional[int] = None,
) -> Dict[str, AggregateResult]:
    """Run the pipeline over a benchmark suite (defaults to Table I).

    *jobs* > 1 fans the (benchmark, iteration) grid out over a process
    pool.  Per-task seeds come from ``SeedSequence(seed).spawn``, so
    the aggregates are identical for any *jobs* value.

    *split_jobs* > 1 additionally pipelines each iteration's split
    compilation (segment 1 compiles on a worker thread while the
    obfuscated-circuit simulation runs); *transpile_cache* toggles the
    per-process transpile cache that lets repeated iterations over the
    same benchmark skip recompilation.  Neither affects any result —
    compilation is deterministic and RNG-free.

    *chunk_size* caps the shots per tensor chunk of the noisy
    trajectory ensemble (see :func:`repro.execution.run`).
    """
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    if jobs <= 0:
        raise ValueError("jobs must be positive")
    if records is None:
        records = paper_suite()
    records = list(records)
    # one independent seed per grid cell, derived only from the root
    # seed and the cell's position — never from execution order
    children = np.random.SeedSequence(seed).spawn(
        len(records) * iterations
    )
    task_records = [r for r in records for _ in range(iterations)]
    if jobs == 1 or len(task_records) <= 1:
        evaluations = [
            _evaluate_record(
                r,
                shots,
                gate_limit,
                s,
                split_jobs,
                transpile_cache,
                chunk_size,
            )
            for r, s in zip(task_records, children)
        ]
    else:
        workers = min(jobs, len(task_records))
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers
        ) as pool:
            evaluations = list(
                pool.map(
                    _evaluate_record,
                    task_records,
                    repeat(shots),
                    repeat(gate_limit),
                    children,
                    repeat(split_jobs),
                    repeat(transpile_cache),
                    repeat(chunk_size),
                )
            )
    results: Dict[str, AggregateResult] = {}
    for index, record in enumerate(records):
        results[record.name] = AggregateResult(
            record.name,
            evaluations[index * iterations : (index + 1) * iterations],
        )
    return results


def run_benchmark(
    record: BenchmarkRecord,
    iterations: int = 20,
    shots: int = 1000,
    seed: Optional[int] = None,
    gate_limit: int = 4,
    jobs: int = 1,
    split_jobs: int = 1,
    transpile_cache: bool = True,
    chunk_size: Optional[int] = None,
) -> AggregateResult:
    """Run the full pipeline *iterations* times on one benchmark."""
    return run_suite(
        [record],
        iterations=iterations,
        shots=shots,
        seed=seed,
        gate_limit=gate_limit,
        jobs=jobs,
        split_jobs=split_jobs,
        transpile_cache=transpile_cache,
        chunk_size=chunk_size,
    )[record.name]
