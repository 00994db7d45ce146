"""Experiment E8 (extension): obfuscation strength vs gate budget.

Sec. V-C observes that "more insertion of random gates results in more
flips in the output": larger/deeper circuits offer more empty slots,
receive more random gates, and show obfuscated TVD approaching 1.
This sweep makes the relationship explicit: for a fixed benchmark, the
ideal (noiseless) TVD of the compiler-visible circuit ``RC`` against
the theoretical output, as a function of the insertion budget.

Noise-free on purpose — it isolates the *obfuscation* corruption from
hardware error, so the curve is the pure security/strength trade-off.

Each (benchmark, gate_limit) pair is one framework grid cell with its
own ``SeedSequence``-spawned seed (the pre-framework version threaded
a single RNG through the whole sweep, which made it impossible to
parallelise or resume without changing results — per-cell seeding
changes the drawn samples for a given root seed, but makes every
execution strategy bit-identical to the sequential run).

Run with ``repro experiment run sweep_gate_limit``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..core.insertion import insert_random_pairs
from ..execution import run as execute
from ..metrics.tvd import tvd_to_reference
from ..revlib.benchmarks import load_benchmark, paper_suite
from .framework import Cell, ExperimentSpec, register, run_experiment

__all__ = ["SweepPoint", "run_gate_limit_sweep", "render_sweep", "SWEEP_SPEC"]


@dataclass
class SweepPoint:
    benchmark: str
    gate_limit: int
    mean_inserted: float
    mean_tvd_obfuscated: float


def _sweep_names(config: Dict[str, Any]) -> List[str]:
    subset = config.get("benchmarks")
    if subset:
        from ..revlib.benchmarks import benchmark_names

        available = benchmark_names()
        unknown = sorted(set(subset) - set(available))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s) {', '.join(unknown)}; "
                f"available: {available}"
            )
        return list(subset)
    return [r.name for r in paper_suite() if r.num_qubits <= 7]


def _sweep_cells(config: Dict[str, Any]) -> List[Cell]:
    return [
        Cell(f"{name}/limit{limit}",
             {"benchmark": name, "gate_limit": int(limit)})
        for name in _sweep_names(config)
        for limit in config["gate_limits"]
    ]


def _sweep_task(
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> SweepPoint:
    """One curve point: mean inserted pairs + mean noiseless TVD."""
    record = load_benchmark(cell.params["benchmark"])
    circuit = record.circuit()
    expected = record.expected_output()
    limit = cell.params["gate_limit"]
    rng = np.random.default_rng(seed)
    inserted: List[int] = []
    tvds: List[float] = []
    for _ in range(int(config["iterations"])):
        result = insert_random_pairs(circuit, gate_limit=limit, seed=rng)
        inserted.append(result.num_pairs)
        rc = result.rc_circuit()
        # noiseless + terminal measures: auto-dispatch picks the
        # statevector engine (one evolution per circuit)
        counts = execute(rc, int(config["shots"]), seed=rng)
        tvds.append(tvd_to_reference(counts, expected))
    return SweepPoint(
        benchmark=cell.params["benchmark"],
        gate_limit=limit,
        mean_inserted=float(np.mean(inserted)),
        mean_tvd_obfuscated=float(np.mean(tvds)),
    )


def _aggregate_sweep(
    config: Dict[str, Any], results: Dict[str, Any]
) -> List[SweepPoint]:
    return [results[cell.id] for cell in _sweep_cells(config)]


SWEEP_SPEC = register(
    ExperimentSpec(
        name="sweep_gate_limit",
        description="noiseless obfuscated-TVD curve vs random-gate "
        "insertion budget (Sec. V-C extension)",
        defaults={
            "benchmarks": None,
            "gate_limits": [0, 1, 2, 4, 8],
            "iterations": 10,
            "shots": 512,
            "seed": 9,
        },
        make_cells=_sweep_cells,
        task=_sweep_task,
        aggregate=_aggregate_sweep,
        render=lambda points: render_sweep(points),
        encode=asdict,
        decode=lambda data: SweepPoint(**data),
    )
)


def run_gate_limit_sweep(
    benchmarks: Optional[Sequence[str]] = None,
    gate_limits: Sequence[int] = (0, 1, 2, 4, 8),
    iterations: int = 10,
    shots: int = 512,
    seed: int = 9,
    jobs: int = 1,
) -> List[SweepPoint]:
    """Noiseless obfuscated-TVD curve over insertion budgets.

    *jobs* fans the (benchmark, limit) grid over a process pool;
    results are bit-identical for any *jobs* value.
    """
    report = run_experiment(
        "sweep_gate_limit",
        {
            "benchmarks": list(benchmarks) if benchmarks else None,
            "gate_limits": list(gate_limits),
            "iterations": iterations,
            "shots": shots,
            "seed": seed,
        },
        jobs=jobs,
    )
    return report.result


def render_sweep(points: List[SweepPoint]) -> str:
    lines = [
        f"{'benchmark':>14} {'limit':>6} {'inserted':>9} {'TVD(obf)':>9}",
        "-" * 42,
    ]
    for point in points:
        lines.append(
            f"{point.benchmark:>14} {point.gate_limit:>6} "
            f"{point.mean_inserted:>9.1f} "
            f"{point.mean_tvd_obfuscated:>9.3f}"
        )
    return "\n".join(lines)
