"""Experiment E3: attack-complexity comparison (paper Sec. IV-C, Eq. 1).

Tabulates the colluding-compiler search space for cascading split
compilation (``k_n * n!``, Saki et al.) versus TetrisLock's
mismatched-qubit interlocking split (Eq. 1) across qubit counts and
device sizes, and demonstrates the brute-force attack concretely on a
small benchmark (it succeeds against a straight same-width split in at
most ``n!`` trials — the motivation for the interlocking pattern).

As a framework spec, every (device size, qubit count) pair is one
grid cell and the brute-force demo a final cell — all deterministic
(integer combinatorics plus a fixed-seed attack), so the spec is
unseeded and any shard/resume/jobs combination is trivially
bit-identical.

Run with ``repro experiment run attack_complexity``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..attacks import SearchOptions, get_attack, problem_for
from ..core.attack import saki_attack_complexity, tetrislock_attack_complexity
from ..revlib.benchmarks import benchmark_circuit
from .framework import Cell, ExperimentSpec, register

__all__ = [
    "ComplexityRow",
    "generate_complexity_table",
    "render_complexity_table",
    "demo_bruteforce_attack",
    "render_attack_report",
    "ATTACK_SPEC",
]


@dataclass
class ComplexityRow:
    n: int
    nmax: int
    k: int
    saki: int
    tetrislock: int

    @property
    def ratio(self) -> float:
        if self.saki == 0:
            return float("inf")
        return self.tetrislock / self.saki


@dataclass
class BruteForceDemo:
    benchmark: str
    candidates: int
    matches: int

    @property
    def success(self) -> bool:
        return self.matches > 0


def generate_complexity_table(
    qubit_counts: Sequence[int] = (4, 5, 7, 10, 12),
    nmax_values: Sequence[int] = (5, 27, 127),
    k: int = 2,
) -> List[ComplexityRow]:
    """Search-space sizes over the paper's benchmark qubit counts.

    *nmax* spans device generations (5-qubit Valencia up to a
    127-qubit Eagle); *k* is the candidate-segment count per size.
    """
    rows: List[ComplexityRow] = []
    for nmax in nmax_values:
        for n in qubit_counts:
            rows.append(
                ComplexityRow(
                    n=n,
                    nmax=nmax,
                    k=k,
                    saki=saki_attack_complexity(n, k),
                    tetrislock=tetrislock_attack_complexity(n, nmax, k),
                )
            )
    return rows


def demo_bruteforce_attack(
    benchmark: str = "4gt13", seed: int = 3
) -> BruteForceDemo:
    """Run the real collusion attack on a Saki-style straight split.

    The attack recovers the original function (matches >= 1): with
    same-width segments the adversary only needs n! trials.
    """
    problem = problem_for(
        benchmark_circuit(benchmark), "same-width", seed=seed
    )
    outcome = get_attack("same-width").search(
        problem, SearchOptions(prefilter=False)
    )
    return BruteForceDemo(
        benchmark=benchmark,
        candidates=outcome.candidates_tried,
        matches=outcome.matches,
    )


# ---------------------------------------------------------------------------
# framework spec
# ---------------------------------------------------------------------------

def _attack_cells(config: Dict[str, Any]) -> List[Cell]:
    cells = [
        Cell(f"eq1/nmax{nmax}/n{n}",
             {"n": int(n), "nmax": int(nmax)})
        for nmax in config["nmax_values"]
        for n in config["qubit_counts"]
    ]
    cells.append(Cell("demo", {}))
    return cells


def _attack_task(
    config: Dict[str, Any],
    cell: Cell,
    seed: Optional[np.random.SeedSequence],
) -> Dict[str, Any]:
    if cell.id == "demo":
        demo = demo_bruteforce_attack(
            str(config["demo_benchmark"]), int(config["demo_seed"])
        )
        return asdict(demo)
    n, nmax, k = cell.params["n"], cell.params["nmax"], int(config["k"])
    row = ComplexityRow(
        n=n,
        nmax=nmax,
        k=k,
        saki=saki_attack_complexity(n, k),
        tetrislock=tetrislock_attack_complexity(n, nmax, k),
    )
    return asdict(row)


def _aggregate_attack(
    config: Dict[str, Any], results: Dict[str, Any]
) -> Dict[str, Any]:
    rows = [
        ComplexityRow(**results[cell.id])
        for cell in _attack_cells(config)
        if cell.id != "demo"
    ]
    return {"rows": rows, "demo": BruteForceDemo(**results["demo"])}


def render_attack_report(report: Dict[str, Any]) -> str:
    """Complexity table plus the brute-force demo verdict."""
    demo = report["demo"]
    return (
        render_complexity_table(report["rows"])
        + "\n\n"
        + f"Brute-force vs straight split on {demo.benchmark}: "
        f"{demo.matches}/{demo.candidates} candidate matchings recover "
        f"the original function "
        f"(attack {'succeeds' if demo.success else 'fails'})"
    )


ATTACK_SPEC = register(
    ExperimentSpec(
        name="attack_complexity",
        description="Eq. 1 search-space comparison vs Saki k*n! plus "
        "the concrete brute-force collusion attack",
        defaults={
            "qubit_counts": [4, 5, 7, 10, 12],
            "nmax_values": [5, 27, 127],
            "k": 2,
            "demo_benchmark": "4gt13",
            "demo_seed": 3,
        },
        make_cells=_attack_cells,
        task=_attack_task,
        aggregate=_aggregate_attack,
        render=render_attack_report,
        seeded=False,
    )
)


def render_complexity_table(rows: List[ComplexityRow]) -> str:
    lines = [
        f"{'n':>4} {'nmax':>5} {'k':>3} {'Saki k*n!':>14} "
        f"{'TetrisLock Eq.1':>20} {'ratio':>12}",
        "-" * 64,
    ]
    for row in rows:
        lines.append(
            f"{row.n:>4} {row.nmax:>5} {row.k:>3} {row.saki:>14.3e} "
            f"{row.tetrislock:>20.3e} {row.ratio:>12.1f}"
        )
    return "\n".join(lines)
