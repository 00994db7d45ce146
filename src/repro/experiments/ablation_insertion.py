"""Experiment E7 (ablation): empty-slot insertion vs naive prepending.

DESIGN.md calls out TetrisLock's depth-preserving empty-slot insertion
as a key design choice.  This ablation compares, across the RevLib
suite:

* **tetrislock** — Algorithm 1 pair insertion into empty slots
  (expected: zero depth overhead);
* **das-front / das-middle** — the random-block insertion baseline
  (expected: positive depth overhead, growing with block size);

and reports structural overhead plus whether each scheme needs a
trusted compiler for the restore step.

Each benchmark is one framework grid cell with its own
``SeedSequence``-spawned seed (the pre-framework version threaded one
RNG through every benchmark sequentially; per-cell seeding changes the
drawn samples for a given root seed, but makes parallel, sharded and
resumed runs bit-identical to the sequential one).

Run with ``repro experiment run ablation_insertion``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..baselines.das_insertion import das_insertion
from ..core.insertion import insert_random_pairs
from ..revlib.benchmarks import load_benchmark, paper_suite
from .framework import Cell, ExperimentSpec, register, run_experiment

__all__ = ["AblationRow", "run_ablation", "render_ablation", "ABLATION_SPEC"]


@dataclass
class AblationRow:
    benchmark: str
    scheme: str
    depth_overhead: float
    gate_overhead: float
    needs_trusted_compiler: bool


def _ablation_names(config: Dict[str, Any]) -> List[str]:
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


def _ablation_cells(config: Dict[str, Any]) -> List[Cell]:
    return [
        Cell(name, {"benchmark": name})
        for name in _ablation_names(config)
    ]


def _ablation_task(
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> List[AblationRow]:
    """All three schemes on one benchmark (three rows)."""
    record = load_benchmark(cell.params["benchmark"])
    circuit = record.circuit()
    num_random_gates = int(config["num_random_gates"])
    rng = np.random.default_rng(seed)
    tetris_depth, tetris_gates = [], []
    das_front_depth, das_front_gates = [], []
    das_mid_depth, das_mid_gates = [], []
    for _ in range(int(config["iterations"])):
        ins = insert_random_pairs(
            circuit, gate_limit=num_random_gates, seed=rng
        )
        rc = ins.rc_circuit()
        tetris_depth.append(rc.depth() - circuit.depth())
        tetris_gates.append(rc.size() - circuit.size())
        front = das_insertion(circuit, num_random_gates, "front", seed=rng)
        das_front_depth.append(front.depth_overhead)
        das_front_gates.append(front.gate_overhead)
        middle = das_insertion(circuit, num_random_gates, "middle", seed=rng)
        das_mid_depth.append(middle.depth_overhead)
        das_mid_gates.append(middle.gate_overhead)
    return [
        AblationRow(
            record.name, "tetrislock",
            float(np.mean(tetris_depth)), float(np.mean(tetris_gates)),
            needs_trusted_compiler=False,
        ),
        AblationRow(
            record.name, "das-front",
            float(np.mean(das_front_depth)),
            float(np.mean(das_front_gates)),
            needs_trusted_compiler=True,
        ),
        AblationRow(
            record.name, "das-middle",
            float(np.mean(das_mid_depth)),
            float(np.mean(das_mid_gates)),
            needs_trusted_compiler=True,
        ),
    ]


def _aggregate_ablation(
    config: Dict[str, Any], results: Dict[str, Any]
) -> List[AblationRow]:
    rows: List[AblationRow] = []
    for cell in _ablation_cells(config):
        rows.extend(results[cell.id])
    return rows


ABLATION_SPEC = register(
    ExperimentSpec(
        name="ablation_insertion",
        description="insertion-strategy ablation: empty-slot pairs vs "
        "das block insertion (depth/gate overhead)",
        defaults={
            "iterations": 10,
            "seed": 7,
            "num_random_gates": 4,
            "benchmarks": None,
        },
        make_cells=_ablation_cells,
        task=_ablation_task,
        aggregate=_aggregate_ablation,
        render=lambda rows: render_ablation(rows),
        encode=lambda rows: [asdict(row) for row in rows],
        decode=lambda data: [AblationRow(**row) for row in data],
    )
)


def run_ablation(
    iterations: int = 10,
    seed: int = 7,
    num_random_gates: int = 4,
    benchmarks: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[AblationRow]:
    """Average structural overhead per benchmark and scheme.

    *jobs* fans the per-benchmark grid over a process pool with
    bit-identical results.
    """
    report = run_experiment(
        "ablation_insertion",
        {
            "iterations": iterations,
            "seed": seed,
            "num_random_gates": num_random_gates,
            "benchmarks": list(benchmarks) if benchmarks else None,
        },
        jobs=jobs,
    )
    return report.result


def render_ablation(rows: List[AblationRow]) -> str:
    lines = [
        f"{'benchmark':>14} {'scheme':>12} {'depth+':>8} {'gates+':>8} "
        f"{'trusted?':>9}",
        "-" * 56,
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:>14} {row.scheme:>12} "
            f"{row.depth_overhead:>8.2f} {row.gate_overhead:>8.2f} "
            f"{'yes' if row.needs_trusted_compiler else 'no':>9}"
        )
    return "\n".join(lines)
